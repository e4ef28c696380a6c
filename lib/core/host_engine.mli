(** The host engine (Fig. 3): registers the shipped rows as resident
    tables and runs the host portion of the query (joins, aggregation,
    ordering). *)

type phase = {
  result : Ironsafe_sql.Exec.result;
  counters : Ironsafe_sql.Observer.counters;
}

val run_host :
  ?exec_mode:Ironsafe_sql.Exec.exec_mode ->
  storage_catalog:Ironsafe_sql.Catalog.t ->
  Partitioner.plan ->
  Storage_engine.phase ->
  phase
(** [exec_mode] is ignored; it is kept only for the benchmark loader
    that still passes {!Deployment.exec_mode}. *)
