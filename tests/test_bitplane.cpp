// Differential tests for the packed bitplane kernels (util/bitplane.h):
// every word-masked operation is compared against a per-bit boolean model
// over randomized shapes that cross word boundaries, the cyclic wrap
// decomposition is exercised at its edges (zero-length, full-period,
// boundary-straddling), and the bitplane_hooks fault injection is proven to
// produce exactly the one-bit-short corruption the auditor's
// packed-vs-scalar check exists to catch. The suite runs under both the
// packed build and -DSALSA_BITPLANE_SCALAR=ON (the scalar-fallback CI job),
// so both implementations are held to the same model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/bitplane.h"
#include "util/bits.h"
#include "util/rng.h"

namespace salsa {
namespace {

// Per-bit boolean model of one plane row.
using ModelRow = std::vector<bool>;

ModelRow model_of(const BitPlane& p, int r) {
  ModelRow m(static_cast<size_t>(p.bits()));
  for (int b = 0; b < p.bits(); ++b) m[static_cast<size_t>(b)] = p.test(r, b);
  return m;
}

void expect_row_matches(const BitPlane& p, int r, const ModelRow& m) {
  for (int b = 0; b < p.bits(); ++b)
    ASSERT_EQ(p.test(r, b), m[static_cast<size_t>(b)])
        << "row " << r << " bit " << b;
}

// Padding bits past bits() must stay zero after every mutator, or the
// word-level queries would see garbage.
void expect_padding_clear(const BitPlane& p, int r) {
  if (p.bits() == p.stride() * 64) return;
  const uint64_t last = p.row(r)[p.stride() - 1];
  const int used = p.bits() - (p.stride() - 1) * 64;
  EXPECT_EQ(last >> used, 0ull) << "padding bits of row " << r << " are set";
}

TEST(Bits, PopcountAndCtzMatchNaive) {
  Rng rng(7);
  EXPECT_EQ(popcount64(0ull), 0);
  EXPECT_EQ(popcount64(~0ull), 64);
  EXPECT_EQ(ctz64(1ull), 0);
  EXPECT_EQ(ctz64(1ull << 63), 63);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t w = rng.next();
    int pop = 0;
    for (int b = 0; b < 64; ++b) pop += (w >> b) & 1ull;
    EXPECT_EQ(popcount64(w), pop);
    if (w != 0) {
      int tz = 0;
      while (((w >> tz) & 1ull) == 0) ++tz;
      EXPECT_EQ(ctz64(w), tz);
    }
  }
}

TEST(BitPlane, RangedOpsMatchPerBitModel) {
  Rng rng(11);
  // Shapes straddling one-word, exact-word and multi-word strides.
  for (const int bits : {1, 7, 63, 64, 65, 128, 130}) {
    BitPlane p;
    p.resize(3, bits);
    std::vector<ModelRow> m(3, ModelRow(static_cast<size_t>(bits)));
    for (int iter = 0; iter < 500; ++iter) {
      const int r = rng.uniform(3);
      const int start = rng.uniform(bits);
      const int len = rng.uniform(bits - start + 1);
      switch (rng.uniform(4)) {
        case 0:
          p.set_range(r, start, len);
          for (int b = start; b < start + len; ++b)
            m[static_cast<size_t>(r)][static_cast<size_t>(b)] = true;
          break;
        case 1:
          p.clear_range(r, start, len);
          for (int b = start; b < start + len; ++b)
            m[static_cast<size_t>(r)][static_cast<size_t>(b)] = false;
          break;
        case 2: {
          const int wlen = rng.uniform(bits + 1);
          p.set_range_wrap(r, start, wlen);
          for (int i = 0; i < wlen; ++i)
            m[static_cast<size_t>(r)][static_cast<size_t>((start + i) % bits)] =
                true;
          break;
        }
        case 3: {
          const int b = rng.uniform(bits);
          if (rng.chance(0.5)) {
            p.set(r, b);
            m[static_cast<size_t>(r)][static_cast<size_t>(b)] = true;
          } else {
            p.clear(r, b);
            m[static_cast<size_t>(r)][static_cast<size_t>(b)] = false;
          }
          break;
        }
      }
      // Queries agree with the model after every mutation.
      const int qr = rng.uniform(3);
      expect_row_matches(p, qr, m[static_cast<size_t>(qr)]);
      expect_padding_clear(p, qr);
      const int expect_pop = static_cast<int>(
          std::count(m[static_cast<size_t>(qr)].begin(),
                     m[static_cast<size_t>(qr)].end(), true));
      EXPECT_EQ(p.popcount_row(qr), expect_pop);
      const int qs = rng.uniform(bits);
      const int ql = rng.uniform(bits - qs + 1);
      bool any = false;
      for (int b = qs; b < qs + ql; ++b)
        any = any || m[static_cast<size_t>(qr)][static_cast<size_t>(b)];
      EXPECT_EQ(p.any_in_range(qr, qs, ql), any);
    }
  }
}

TEST(BitPlane, WrapDecompositionEdges) {
  BitPlane p;
  p.resize(4, 17);

  // Zero-length: no-op.
  p.set_range_wrap(0, 5, 0);
  EXPECT_EQ(p.popcount_row(0), 0);

  // Full period starting mid-cycle: every bit set.
  p.set_range_wrap(1, 9, 17);
  EXPECT_EQ(p.popcount_row(1), 17);

  // Wrap-around interval [15, 15+5) mod 17 = {15, 16, 0, 1, 2}.
  p.set_range_wrap(2, 15, 5);
  EXPECT_EQ(p.popcount_row(2), 5);
  for (int b : {15, 16, 0, 1, 2}) EXPECT_TRUE(p.test(2, b)) << b;
  for (int b : {3, 14}) EXPECT_FALSE(p.test(2, b)) << b;

  // Tail-only interval touching the last step exactly.
  p.set_range_wrap(3, 12, 5);  // {12..16}, no wrap
  EXPECT_EQ(p.popcount_row(3), 5);
  EXPECT_TRUE(p.test(3, 16));
  EXPECT_FALSE(p.test(3, 0));
}

TEST(BitPlane, AndAnyAndOrAssign) {
  Rng rng(23);
  BitPlane p, q;
  const int bits = 130;
  p.resize(2, bits);
  q.resize(2, bits);
  for (int i = 0; i < 40; ++i) {
    p.set(0, rng.uniform(bits));
    q.set(0, rng.uniform(bits));
  }
  bool expect_any = false;
  for (int b = 0; b < bits; ++b)
    expect_any = expect_any || (p.test(0, b) && q.test(0, b));
  EXPECT_EQ(p.and_any(0, q.row(0)), expect_any);
  EXPECT_FALSE(p.and_any(1, q.row(0)));  // empty row intersects nothing

  ModelRow want = model_of(p, 0);
  for (int b = 0; b < bits; ++b)
    if (q.test(0, b)) want[static_cast<size_t>(b)] = true;
  p.or_assign(0, q.row(0));
  expect_row_matches(p, 0, want);

  // words_and_any / words_and_andnot_any against the same model.
  BitPlane c;
  c.resize(1, bits);
  for (int i = 0; i < 20; ++i) c.set(0, rng.uniform(bits));
  bool expect_and = false, expect_andnot = false;
  for (int b = 0; b < bits; ++b) {
    const bool pb = p.test(0, b), qb = q.test(0, b), cb = c.test(0, b);
    expect_and = expect_and || (pb && qb);
    expect_andnot = expect_andnot || (pb && qb && !cb);
  }
  EXPECT_EQ(words_and_any(p.row(0), q.row(0), p.stride()), expect_and);
  EXPECT_EQ(words_and_andnot_any(p.row(0), q.row(0), c.row(0), p.stride()),
            expect_andnot);
}

TEST(BitPlane, EqualityComparesShapeAndContent) {
  BitPlane a, b;
  a.resize(2, 70);
  b.resize(2, 70);
  EXPECT_TRUE(a == b);
  a.set(1, 69);
  EXPECT_FALSE(a == b);
  b.set(1, 69);
  EXPECT_TRUE(a == b);
  BitPlane c;
  c.resize(2, 71);
  EXPECT_FALSE(a == c);
}

TEST(BitPlaneHooks, MutationLeavesLastBitStaleAndDisarms) {
  BitPlane p;
  p.resize(1, 64);
  p.mark_mutation_target();
  const long count_before = bitplane_hooks::word_update_count;
  bitplane_hooks::break_word_update_after = count_before + 2;

  // 1st ranged update: armed but not yet the Nth — intact.
  p.set_range(0, 0, 8);
  EXPECT_EQ(p.popcount_row(0), 8);

  // 2nd ranged update fires: per-bit loop stops one bit short, so the
  // window's last bit stays clear — exactly a fencepost-broken mask.
  p.set_range(0, 20, 5);
  EXPECT_TRUE(p.test(0, 20));
  EXPECT_TRUE(p.test(0, 23));
  EXPECT_FALSE(p.test(0, 24)) << "sabotaged set_range must miss the last bit";

  // One-shot: the hook disarmed itself; further updates are intact.
  EXPECT_EQ(bitplane_hooks::break_word_update_after, 0);
  p.set_range(0, 40, 4);
  EXPECT_TRUE(p.test(0, 43));
}

TEST(BitPlaneHooks, UnmarkedPlanesAreNeverSabotaged) {
  BitPlane p;
  p.resize(1, 64);  // not marked
  const long count_before = bitplane_hooks::word_update_count;
  bitplane_hooks::break_word_update_after = count_before + 1;
  p.set_range(0, 0, 8);
  p.clear_range(0, 0, 8);
  EXPECT_EQ(p.popcount_row(0), 0);
  // Ineligible updates neither fire nor advance the counter.
  EXPECT_EQ(bitplane_hooks::word_update_count, count_before);
  EXPECT_NE(bitplane_hooks::break_word_update_after, 0);
  bitplane_hooks::break_word_update_after = 0;  // disarm for later tests
}

// The register-mask kernels (words_or_accumulate + popcount_words) against
// their naive per-bit references, across word counts straddling the unroll
// widths (the AVX2 leg runs four words per vector op, popcount_words four
// accumulators per round) so every remainder-tail length is exercised.
TEST(WordKernels, OrAccumulateAndPopcountMatchNaive) {
  Rng rng(47);
  for (const int n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13}) {
    for (int iter = 0; iter < 20; ++iter) {
      std::vector<uint64_t> acc(static_cast<size_t>(n)),
          row(static_cast<size_t>(n));
      for (uint64_t& w : acc) w = rng.next();
      for (uint64_t& w : row) w = rng.next();
      std::vector<uint64_t> want = acc;
      int want_bits = 0;
      for (size_t i = 0; i < want.size(); ++i) {
        want[i] |= row[i];
        for (int bit = 0; bit < 64; ++bit)
          want_bits += static_cast<int>((want[i] >> bit) & 1ull);
      }
      words_or_accumulate(acc.data(), row.data(), n);
      EXPECT_EQ(acc, want) << "n=" << n;
      EXPECT_EQ(popcount_words(acc.data(), n), want_bits) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace salsa
