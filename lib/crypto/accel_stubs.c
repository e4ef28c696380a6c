/* AES-NI and SHA-NI kernels behind Aes, Modes and Sha256.

   Every entry point is a [@@noalloc] external over OCaml strings/bytes
   and untagged offsets: no allocation, no exception, no GC interaction,
   and the OCaml side has already checked every range. The kernels are
   compiled with per-function target attributes, so the library builds
   with the default flags and runs on any x86-64 CPU; Accel calls
   [ironsafe_crypto_cpu_features] once at start-up and the OCaml
   wrappers call a kernel only when its extensions are present. On
   other architectures the kernels are never called, and abort if they
   are.

   AES key schedules arrive as the byte string [Aes.expand_key] builds:
   the (rounds + 1) encryption round keys, then the (rounds + 1) round
   keys of the equivalent inverse cipher (InvMixColumns applied to the
   middle rounds, the input aesdec expects), 16 bytes each in FIPS-197
   byte order. The length gives the round count: 352 bytes is AES-128
   (10 rounds), 480 bytes AES-256 (14 rounds).

   SHA-256 state is the context's 32 big-endian bytes h0..h7, updated
   in place. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IRONSAFE_X86 1
#include <immintrin.h>
#define TARGET __attribute__((target("aes,sha,sse4.1")))
#endif

#define FEATURE_AES 1
#define FEATURE_SHA 2

value ironsafe_crypto_cpu_features(value unit)
{
  (void)unit;
#ifdef IRONSAFE_X86
  int f = 0;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.1")) {
    if (__builtin_cpu_supports("aes")) f |= FEATURE_AES;
    if (__builtin_cpu_supports("sha")) f |= FEATURE_SHA;
  }
  return Val_int(f);
#else
  return Val_int(0);
#endif
}

#ifdef IRONSAFE_X86

#define LOAD(p) _mm_loadu_si128((const __m128i *)(p))
#define STORE(p, x) _mm_storeu_si128((__m128i *)(p), (x))

/* -- AES ------------------------------------------------------------ */

/* Round count and the first byte of the encryption (dec = 0) or
   decryption (dec = 1) schedule. */
static inline int sched_rounds(value sched)
{
  return (int)(caml_string_length(sched) / 32) - 1;
}

static inline const unsigned char *sched_keys(value sched, int dec)
{
  return (const unsigned char *)String_val(sched) +
         dec * 16 * (sched_rounds(sched) + 1);
}

/* Round key r of a schedule k; the loads sit off the data's critical
   path, and aesenc/aesdec take them as memory operands. */
#define RK(k, r) LOAD((k) + (16 * (r)))

TARGET static inline __m128i encrypt1(const unsigned char *k, int nr, __m128i x)
{
  x = _mm_xor_si128(x, RK(k, 0));
  for (int r = 1; r < nr; r++) x = _mm_aesenc_si128(x, RK(k, r));
  return _mm_aesenclast_si128(x, RK(k, nr));
}

TARGET static inline __m128i decrypt1(const unsigned char *k, int nr, __m128i x)
{
  x = _mm_xor_si128(x, RK(k, 0));
  for (int r = 1; r < nr; r++) x = _mm_aesdec_si128(x, RK(k, r));
  return _mm_aesdeclast_si128(x, RK(k, nr));
}

/* Eight independent blocks through the same rounds: aesenc/aesdec have
   a latency of several cycles but issue every cycle, so the lanes
   overlap. The last round is left to the caller (CBC folds its
   chaining xor into the aesdeclast key). */
#define ROUNDS8(op, k, nr, x)                                          \
  do {                                                                 \
    for (int r_ = 1; r_ < (nr); r_++) {                                \
      __m128i k_ = RK(k, r_);                                          \
      x##0 = op(x##0, k_); x##1 = op(x##1, k_);                         \
      x##2 = op(x##2, k_); x##3 = op(x##3, k_);                         \
      x##4 = op(x##4, k_); x##5 = op(x##5, k_);                         \
      x##6 = op(x##6, k_); x##7 = op(x##7, k_);                         \
    }                                                                  \
  } while (0)

TARGET value ironsafe_aes_encrypt_block(value sched, value src, intnat soff,
                                        value dst, intnat doff)
{
  STORE(Bytes_val(dst) + doff, encrypt1(sched_keys(sched, 0), sched_rounds(sched),
                                        LOAD(Bytes_val(src) + soff)));
  return Val_unit;
}

TARGET value ironsafe_aes_decrypt_block(value sched, value src, intnat soff,
                                        value dst, intnat doff)
{
  STORE(Bytes_val(dst) + doff, decrypt1(sched_keys(sched, 1), sched_rounds(sched),
                                        LOAD(Bytes_val(src) + soff)));
  return Val_unit;
}

/* In place over buf[0 .. n-1], n a multiple of 16. Each block chains on
   the previous ciphertext, so CBC encryption is one block at a time. */
TARGET value ironsafe_aes_cbc_encrypt(value sched, value iv, value buf, intnat n)
{
  const unsigned char *k = sched_keys(sched, 0);
  int nr = sched_rounds(sched);
  unsigned char *b = Bytes_val(buf);
  __m128i x = LOAD(String_val(iv));
  for (intnat off = 0; off < n; off += 16) {
    x = encrypt1(k, nr, _mm_xor_si128(x, LOAD(b + off)));
    STORE(b + off, x);
  }
  return Val_unit;
}

/* src[soff .. soff+n-1] -> dst[doff ..], n a multiple of 16, chained
   from iv[iv_off .. iv_off+15]. Decryption has no chain through the
   cipher, so eight blocks are in flight. Every ciphertext block of a
   batch is loaded before any plaintext is stored, so dst may be src. */
TARGET value ironsafe_aes_cbc_decrypt(value sched, value iv, intnat iv_off,
                                      value src, intnat soff, value dst,
                                      intnat doff, intnat n)
{
  const unsigned char *k = sched_keys(sched, 1);
  int nr = sched_rounds(sched);
  const unsigned char *s = Bytes_val(src) + soff;
  unsigned char *d = Bytes_val(dst) + doff;
  __m128i prev = LOAD(Bytes_val(iv) + iv_off);
  __m128i first = RK(k, 0), last = RK(k, nr);
  intnat off = 0;
  for (; off + 128 <= n; off += 128) {
    const unsigned char *c = s + off;
    __m128i x0 = _mm_xor_si128(LOAD(c), first);
    __m128i x1 = _mm_xor_si128(LOAD(c + 16), first);
    __m128i x2 = _mm_xor_si128(LOAD(c + 32), first);
    __m128i x3 = _mm_xor_si128(LOAD(c + 48), first);
    __m128i x4 = _mm_xor_si128(LOAD(c + 64), first);
    __m128i x5 = _mm_xor_si128(LOAD(c + 80), first);
    __m128i x6 = _mm_xor_si128(LOAD(c + 96), first);
    __m128i x7 = _mm_xor_si128(LOAD(c + 112), first);
    ROUNDS8(_mm_aesdec_si128, k, nr, x);
    /* aesdeclast xors its key in last, so the chaining xor rides on it */
    x0 = _mm_aesdeclast_si128(x0, _mm_xor_si128(last, prev));
    x1 = _mm_aesdeclast_si128(x1, _mm_xor_si128(last, LOAD(c)));
    x2 = _mm_aesdeclast_si128(x2, _mm_xor_si128(last, LOAD(c + 16)));
    x3 = _mm_aesdeclast_si128(x3, _mm_xor_si128(last, LOAD(c + 32)));
    x4 = _mm_aesdeclast_si128(x4, _mm_xor_si128(last, LOAD(c + 48)));
    x5 = _mm_aesdeclast_si128(x5, _mm_xor_si128(last, LOAD(c + 64)));
    x6 = _mm_aesdeclast_si128(x6, _mm_xor_si128(last, LOAD(c + 80)));
    x7 = _mm_aesdeclast_si128(x7, _mm_xor_si128(last, LOAD(c + 96)));
    prev = LOAD(c + 112);
    STORE(d + off, x0);
    STORE(d + off + 16, x1);
    STORE(d + off + 32, x2);
    STORE(d + off + 48, x3);
    STORE(d + off + 64, x4);
    STORE(d + off + 80, x5);
    STORE(d + off + 96, x6);
    STORE(d + off + 112, x7);
  }
  for (; off < n; off += 16) {
    __m128i c = LOAD(s + off);
    STORE(d + off, _mm_xor_si128(decrypt1(k, nr, c), prev));
    prev = c;
  }
  return Val_unit;
}

static inline uint64_t load_be64(const unsigned char *p)
{
  uint64_t v;
  memcpy(&v, p, 8);
  return __builtin_bswap64(v);
}

/* CTR: xor the keystream of the 16-byte big-endian counter block ctr,
   incremented mod 2^128 per block, over src[soff .. soff+len-1] into
   dst[doff ..]. A final partial block uses the head of its keystream.
   Each source block is loaded before its output is stored, so dst may
   be src at the same offset. ctr itself is not modified. */
TARGET value ironsafe_aes_ctr(value sched, value ctr, value src, intnat soff,
                              value dst, intnat doff, intnat len)
{
  const unsigned char *k = sched_keys(sched, 0);
  int nr = sched_rounds(sched);
  const unsigned char *s = Bytes_val(src) + soff;
  unsigned char *d = Bytes_val(dst) + doff;
  __m128i first = RK(k, 0), last = RK(k, nr);
  /* the counter as two host words; the block is their big-endian bytes */
  uint64_t hi = load_be64(Bytes_val(ctr)), lo = load_be64(Bytes_val(ctr) + 8);
  const __m128i rev = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15);
  intnat off = 0;
#define NEXT_COUNTER(x)                                                  \
  do {                                                                   \
    x = _mm_shuffle_epi8(_mm_set_epi64x((long long)hi, (long long)lo), rev); \
    if (++lo == 0) hi++;                                                 \
  } while (0)
  for (; off + 128 <= len; off += 128) {
    __m128i x0, x1, x2, x3, x4, x5, x6, x7;
    NEXT_COUNTER(x0); NEXT_COUNTER(x1); NEXT_COUNTER(x2); NEXT_COUNTER(x3);
    NEXT_COUNTER(x4); NEXT_COUNTER(x5); NEXT_COUNTER(x6); NEXT_COUNTER(x7);
    x0 = _mm_xor_si128(x0, first); x1 = _mm_xor_si128(x1, first);
    x2 = _mm_xor_si128(x2, first); x3 = _mm_xor_si128(x3, first);
    x4 = _mm_xor_si128(x4, first); x5 = _mm_xor_si128(x5, first);
    x6 = _mm_xor_si128(x6, first); x7 = _mm_xor_si128(x7, first);
    ROUNDS8(_mm_aesenc_si128, k, nr, x);
    x0 = _mm_aesenclast_si128(x0, last); x1 = _mm_aesenclast_si128(x1, last);
    x2 = _mm_aesenclast_si128(x2, last); x3 = _mm_aesenclast_si128(x3, last);
    x4 = _mm_aesenclast_si128(x4, last); x5 = _mm_aesenclast_si128(x5, last);
    x6 = _mm_aesenclast_si128(x6, last); x7 = _mm_aesenclast_si128(x7, last);
    STORE(d + off, _mm_xor_si128(x0, LOAD(s + off)));
    STORE(d + off + 16, _mm_xor_si128(x1, LOAD(s + off + 16)));
    STORE(d + off + 32, _mm_xor_si128(x2, LOAD(s + off + 32)));
    STORE(d + off + 48, _mm_xor_si128(x3, LOAD(s + off + 48)));
    STORE(d + off + 64, _mm_xor_si128(x4, LOAD(s + off + 64)));
    STORE(d + off + 80, _mm_xor_si128(x5, LOAD(s + off + 80)));
    STORE(d + off + 96, _mm_xor_si128(x6, LOAD(s + off + 96)));
    STORE(d + off + 112, _mm_xor_si128(x7, LOAD(s + off + 112)));
  }
  for (; off + 16 <= len; off += 16) {
    __m128i x;
    NEXT_COUNTER(x);
    STORE(d + off, _mm_xor_si128(encrypt1(k, nr, x), LOAD(s + off)));
  }
  if (off < len) {
    unsigned char ks[16];
    __m128i x;
    NEXT_COUNTER(x);
    STORE(ks, encrypt1(k, nr, x));
    for (intnat i = 0; off + i < len; i++) d[off + i] = s[off + i] ^ ks[i];
  }
#undef NEXT_COUNTER
  return Val_unit;
}

/* -- SHA-256 -------------------------------------------------------- */

static const uint32_t sha256_k[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Four rounds (FIPS 180-4 §6.2.2 step 3) with message words w: two
   sha256rnds2, each taking two of the four w+K sums. */
#define SHA_ROUNDS4(w, i)                                               \
  do {                                                                  \
    __m128i m_ = _mm_add_epi32((w), _mm_load_si128(                     \
                                  (const __m128i *)&sha256_k[4 * (i)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m_);                       \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(m_, 0x0e)); \
  } while (0)

/* Message schedule: words 16.. of group [next] from groups
   [next-4] (already through sha256msg1 with [next-3]), [prev] and
   [cur]: W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]). */
#define SHA_MSG2(next, prev, cur)                                       \
  next = _mm_sha256msg2_epu32(                                          \
      _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur)

TARGET value ironsafe_sha256_compress(value st, value src, intnat off,
                                      intnat nblocks)
{
  /* byte-swaps each 32-bit lane: big-endian words <-> host order */
  const __m128i bswap32 =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  unsigned char *state = Bytes_val(st);
  const unsigned char *m = Bytes_val(src) + off;
  /* sha256rnds2 keeps the working variables as ABEF and CDGH */
  __m128i dcba = _mm_shuffle_epi8(LOAD(state), bswap32);
  __m128i hgfe = _mm_shuffle_epi8(LOAD(state + 16), bswap32);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (intnat b = 0; b < nblocks; b++, m += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i w0 = _mm_shuffle_epi8(LOAD(m), bswap32);
    __m128i w1 = _mm_shuffle_epi8(LOAD(m + 16), bswap32);
    __m128i w2 = _mm_shuffle_epi8(LOAD(m + 32), bswap32);
    __m128i w3 = _mm_shuffle_epi8(LOAD(m + 48), bswap32);
    /* group i: rounds 4i..4i+3 on w(i mod 4); while they run, group
       i+1 is finished (sha256msg2) and group i+3 started (sha256msg1) */
    SHA_ROUNDS4(w0, 0);
    SHA_ROUNDS4(w1, 1); w0 = _mm_sha256msg1_epu32(w0, w1);
    SHA_ROUNDS4(w2, 2); w1 = _mm_sha256msg1_epu32(w1, w2);
    SHA_ROUNDS4(w3, 3); SHA_MSG2(w0, w2, w3); w2 = _mm_sha256msg1_epu32(w2, w3);
    SHA_ROUNDS4(w0, 4); SHA_MSG2(w1, w3, w0); w3 = _mm_sha256msg1_epu32(w3, w0);
    SHA_ROUNDS4(w1, 5); SHA_MSG2(w2, w0, w1); w0 = _mm_sha256msg1_epu32(w0, w1);
    SHA_ROUNDS4(w2, 6); SHA_MSG2(w3, w1, w2); w1 = _mm_sha256msg1_epu32(w1, w2);
    SHA_ROUNDS4(w3, 7); SHA_MSG2(w0, w2, w3); w2 = _mm_sha256msg1_epu32(w2, w3);
    SHA_ROUNDS4(w0, 8); SHA_MSG2(w1, w3, w0); w3 = _mm_sha256msg1_epu32(w3, w0);
    SHA_ROUNDS4(w1, 9); SHA_MSG2(w2, w0, w1); w0 = _mm_sha256msg1_epu32(w0, w1);
    SHA_ROUNDS4(w2, 10); SHA_MSG2(w3, w1, w2); w1 = _mm_sha256msg1_epu32(w1, w2);
    SHA_ROUNDS4(w3, 11); SHA_MSG2(w0, w2, w3); w2 = _mm_sha256msg1_epu32(w2, w3);
    SHA_ROUNDS4(w0, 12); SHA_MSG2(w1, w3, w0); w3 = _mm_sha256msg1_epu32(w3, w0);
    SHA_ROUNDS4(w1, 13); SHA_MSG2(w2, w0, w1);
    SHA_ROUNDS4(w2, 14); SHA_MSG2(w3, w1, w2);
    SHA_ROUNDS4(w3, 15);
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  /* back to h0..h7 and big-endian bytes */
  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  STORE(state, _mm_shuffle_epi8(_mm_blend_epi16(feba, dchg, 0xf0), bswap32));
  STORE(state + 16, _mm_shuffle_epi8(_mm_alignr_epi8(dchg, feba, 8), bswap32));
  return Val_unit;
}

#else /* no x86-64: Accel reports no extension and nothing calls these */

value ironsafe_aes_encrypt_block(value sched, value src, intnat soff,
                                 value dst, intnat doff)
{
  abort();
}

value ironsafe_aes_decrypt_block(value sched, value src, intnat soff,
                                 value dst, intnat doff)
{
  abort();
}

value ironsafe_aes_cbc_encrypt(value sched, value iv, value buf, intnat n)
{
  abort();
}

value ironsafe_aes_cbc_decrypt(value sched, value iv, intnat iv_off,
                               value src, intnat soff, value dst, intnat doff,
                               intnat n)
{
  abort();
}

value ironsafe_aes_ctr(value sched, value ctr, value src, intnat soff,
                       value dst, intnat doff, intnat len)
{
  abort();
}

value ironsafe_sha256_compress(value st, value src, intnat off, intnat nblocks)
{
  abort();
}

#endif

/* Bytecode entry points: the same kernels with tagged offsets. */

value ironsafe_aes_encrypt_block_byte(value sched, value src, value soff,
                                      value dst, value doff)
{
  return ironsafe_aes_encrypt_block(sched, src, Long_val(soff), dst,
                                    Long_val(doff));
}

value ironsafe_aes_decrypt_block_byte(value sched, value src, value soff,
                                      value dst, value doff)
{
  return ironsafe_aes_decrypt_block(sched, src, Long_val(soff), dst,
                                    Long_val(doff));
}

value ironsafe_aes_cbc_encrypt_byte(value sched, value iv, value buf, value n)
{
  return ironsafe_aes_cbc_encrypt(sched, iv, buf, Long_val(n));
}

value ironsafe_aes_cbc_decrypt_byte(value *argv, int argn)
{
  (void)argn;
  return ironsafe_aes_cbc_decrypt(argv[0], argv[1], Long_val(argv[2]), argv[3],
                                  Long_val(argv[4]), argv[5],
                                  Long_val(argv[6]), Long_val(argv[7]));
}

value ironsafe_aes_ctr_byte(value *argv, int argn)
{
  (void)argn;
  return ironsafe_aes_ctr(argv[0], argv[1], argv[2], Long_val(argv[3]),
                          argv[4], Long_val(argv[5]), Long_val(argv[6]));
}

value ironsafe_sha256_compress_byte(value st, value src, value off,
                                    value nblocks)
{
  return ironsafe_sha256_compress(st, src, Long_val(off), Long_val(nblocks));
}
