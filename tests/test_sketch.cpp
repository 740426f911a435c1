// One-sparse recovery cells and the l0-sampler: recovery, linearity,
// cancellation, the trimmed wire image, failure rates — and the build
// kernel's interleaved fingerprint power table.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sketch/graph_sketch.hpp"
#include "sketch/l0_sampler.hpp"
#include "util/prime_field.hpp"
#include "util/random.hpp"

namespace kmm {
namespace {

constexpr std::uint64_t kUniverse = 1 << 20;

std::uint64_t rpow(std::uint64_t r, std::uint64_t i) { return fp::pow(r, i); }

TEST(OneSparse, RecoversSingleEntry) {
  const std::uint64_t r = 987654321;
  for (const int value : {1, -1}) {
    OneSparseCell cell;
    cell.update(777, value, rpow(r, 777));
    const auto rec = cell.recover(r, kUniverse);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->index, 777u);
    EXPECT_EQ(rec->value, value);
  }
}

TEST(OneSparse, RejectsTwoEntries) {
  const std::uint64_t r = 13371337;
  OneSparseCell cell;
  cell.update(10, 1, rpow(r, 10));
  cell.update(20, 1, rpow(r, 20));
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, RejectsCancelingPairPlusOne) {
  // s0 == 1 but the vector has three nonzero contributions: the
  // fingerprint must reject.
  const std::uint64_t r = 555666777;
  OneSparseCell cell;
  cell.update(10, 1, rpow(r, 10));
  cell.update(20, 1, rpow(r, 20));
  cell.update(30, -1, rpow(r, 30));
  EXPECT_EQ(cell.s0(), 1);
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, CancellationGivesZero) {
  const std::uint64_t r = 42424242;
  OneSparseCell cell;
  cell.update(99, 1, rpow(r, 99));
  cell.update(99, -1, rpow(r, 99));
  EXPECT_TRUE(cell.all_zero());
  EXPECT_FALSE(cell.recover(r, kUniverse).has_value());
}

TEST(OneSparse, AddIsLinear) {
  const std::uint64_t r = 31415926;
  OneSparseCell a, b, direct;
  a.update(5, 1, rpow(r, 5));
  b.update(9, -1, rpow(r, 9));
  direct.update(5, 1, rpow(r, 5));
  direct.update(9, -1, rpow(r, 9));
  a.add(b);
  EXPECT_EQ(a.s0(), direct.s0());
  EXPECT_EQ(a.s1(), direct.s1());
  EXPECT_EQ(a.s2(), direct.s2());
}

TEST(OneSparse, RawRoundtrip) {
  const std::uint64_t r = 2718281828;
  OneSparseCell cell;
  cell.update(123, -1, rpow(r, 123));
  const auto copy = OneSparseCell::from_raw(cell.s0(), cell.s1(), cell.s2());
  const auto rec = copy.recover(r, kUniverse);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 123u);
}

TEST(OneSparse, WireBitsGrowWithUniverse) {
  EXPECT_GT(OneSparseCell::wire_bits(1 << 30), OneSparseCell::wire_bits(1 << 10));
  EXPECT_GE(OneSparseCell::wire_bits(16), 2 * 61u);
}

L0Sampler make_sampler(std::uint64_t seed) {
  return L0Sampler(kUniverse, L0Params::for_universe(kUniverse), seed);
}

TEST(L0, EmptyIsZero) {
  const auto s = make_sampler(1);
  EXPECT_TRUE(s.is_zero());
  EXPECT_FALSE(s.sample().has_value());
}

TEST(L0, SingleItemRecoveredExactly) {
  auto s = make_sampler(2);
  s.update(4242, 1);
  EXPECT_FALSE(s.is_zero());
  const auto rec = s.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 4242u);
  EXPECT_EQ(rec->value, 1);
}

TEST(L0, SampleReturnsSupportMember) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = make_sampler(split(991, trial));
    std::set<std::uint64_t> support;
    const int size = 1 + static_cast<int>(rng.next_below(200));
    while (static_cast<int>(support.size()) < size) {
      support.insert(rng.next_below(kUniverse));
    }
    for (const auto idx : support) s.update(idx, 1);
    const auto rec = s.sample();
    ASSERT_TRUE(rec.has_value()) << "sampler failed on support size " << size;
    EXPECT_TRUE(support.count(rec->index)) << "sampled a non-support index";
    EXPECT_EQ(rec->value, 1);
  }
}

TEST(L0, MixedSignsStillValid) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    auto s = make_sampler(split(772, trial));
    std::map<std::uint64_t, int> entries;
    for (int i = 0; i < 100; ++i) {
      entries.emplace(rng.next_below(kUniverse), rng.next_bool(0.5) ? 1 : -1);
    }
    for (const auto& [idx, val] : entries) s.update(idx, val);
    const auto rec = s.sample();
    ASSERT_TRUE(rec.has_value());
    const auto it = entries.find(rec->index);
    ASSERT_NE(it, entries.end());
    EXPECT_EQ(rec->value, it->second);
  }
}

TEST(L0, LinearityExact) {
  Rng rng(7);
  const std::uint64_t seed = 404;
  auto a = make_sampler(seed);
  auto b = make_sampler(seed);
  auto direct = make_sampler(seed);
  for (int i = 0; i < 300; ++i) {
    const auto idx = rng.next_below(kUniverse);
    const int val = rng.next_bool(0.5) ? 1 : -1;
    if (i % 2 == 0) {
      a.update(idx, val);
    } else {
      b.update(idx, val);
    }
    direct.update(idx, val);
  }
  a.add(b);
  WordWriter wa, wd;
  a.serialize(wa);
  direct.serialize(wd);
  EXPECT_EQ(std::move(wa).take(), std::move(wd).take());
}

TEST(L0, CancellationToZero) {
  Rng rng(9);
  const std::uint64_t seed = 505;
  auto a = make_sampler(seed);
  auto b = make_sampler(seed);
  std::vector<std::uint64_t> idxs;
  for (int i = 0; i < 100; ++i) idxs.push_back(rng.next_below(kUniverse));
  for (const auto idx : idxs) a.update(idx, 1);
  for (const auto idx : idxs) b.update(idx, -1);
  a.add(b);
  EXPECT_TRUE(a.is_zero());
  EXPECT_FALSE(a.sample().has_value());
}

TEST(L0, PartialCancellationLeavesRest) {
  const std::uint64_t seed = 606;
  auto a = make_sampler(seed);
  a.update(100, 1);
  a.update(200, 1);
  auto b = make_sampler(seed);
  b.update(100, -1);
  a.add(b);
  const auto rec = a.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 200u);
}

TEST(L0, SerializeDeserializeRoundtrip) {
  Rng rng(11);
  auto s = make_sampler(707);
  for (int i = 0; i < 50; ++i) s.update(rng.next_below(kUniverse), 1);
  WordWriter w;
  s.serialize(w);
  const auto words = std::move(w).take();
  WordReader r(words);
  const auto copy =
      L0Sampler::deserialize(kUniverse, L0Params::for_universe(kUniverse), 707, r);
  EXPECT_TRUE(r.done());
  const auto s1 = s.sample();
  const auto s2 = copy.sample();
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s1->index, s2->index);
}

// Serialize both sides and compare every word — wire-bit equality, the
// property the golden ledger relies on.
std::vector<std::uint64_t> wire_words(const L0Sampler& s) {
  WordWriter w;
  s.serialize(w);
  return std::move(w).take();
}

TEST(L0, AddSerializedMatchesDeserializeAdd) {
  // Randomized sketches: merging the wire form directly must be bit-exact
  // with materializing the sketch and adding it.
  Rng rng(29);
  const auto params = L0Params::for_universe(kUniverse);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seed = split(71, trial);
    L0Sampler incoming(kUniverse, params, seed);
    const int support = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < support; ++i) {
      incoming.update(rng.next_below(kUniverse), (i & 3) == 0 ? -1 : 1);
    }
    WordWriter w;
    w.u64(0x10be1);  // leading non-cell word, as on the engine's wire
    incoming.serialize(w);
    const auto words = std::move(w).take();

    // Identical nonzero accumulators; only the merge path differs.
    L0Sampler acc_a(kUniverse, params, seed);
    L0Sampler acc_b(kUniverse, params, seed);
    const std::uint64_t shared_index = rng.next_below(kUniverse);
    acc_a.update(shared_index, 1);
    acc_b.update(shared_index, 1);

    WordReader ra(words);
    (void)ra.u64();
    acc_a.add(L0Sampler::deserialize(kUniverse, params, seed, ra));
    EXPECT_TRUE(ra.done());

    WordReader rb(words);
    (void)rb.u64();
    acc_b.add_serialized(rb);
    EXPECT_TRUE(rb.done());

    EXPECT_EQ(wire_words(acc_a), wire_words(acc_b));
    const auto sa = acc_a.sample();
    const auto sb = acc_b.sample();
    ASSERT_EQ(sa.has_value(), sb.has_value());
    if (sa.has_value()) EXPECT_EQ(sa->index, sb->index);
  }
}

TEST(L0, AddSerializedCancelsLikeAdd) {
  // Two parts of one component cancel their shared edge when merged on the
  // wire, exactly as with add().
  const auto params = L0Params::for_universe(kUniverse);
  L0Sampler a(kUniverse, params, 31), b(kUniverse, params, 31);
  a.update(1234, 1);
  a.update(999, 1);
  b.update(1234, -1);
  L0Sampler acc(kUniverse, params, 31);
  const auto words_a = wire_words(a);
  const auto words_b = wire_words(b);
  WordReader ra(words_a);
  acc.add_serialized(ra);
  WordReader rb(words_b);
  acc.add_serialized(rb);
  const auto rec = acc.sample();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, 999u);
}

TEST(L0, ResetZeroesAndRebinds) {
  const auto params = L0Params::for_universe(kUniverse);
  L0Sampler s(kUniverse, params, 41);
  s.update(777, 1);
  EXPECT_FALSE(s.is_zero());
  s.reset(43);
  EXPECT_TRUE(s.is_zero());
  EXPECT_EQ(s.seed(), 43u);
  // After reset the sampler behaves like a fresh seed-43 sketch.
  L0Sampler fresh(kUniverse, params, 43);
  s.update(555, 1);
  fresh.update(555, 1);
  EXPECT_EQ(wire_words(s), wire_words(fresh));
}

TEST(L0, FingerprintBaseForMatchesInstance) {
  const L0Sampler s(kUniverse, L0Params::for_universe(kUniverse), 97);
  for (int c = 0; c < s.params().copies; ++c) {
    EXPECT_EQ(L0Sampler::fingerprint_base_for(97, c), s.fingerprint_base(c));
  }
}

TEST(L0, SuccessRateHigh) {
  Rng rng(13);
  int failures = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto s = make_sampler(split(808, trial));
    const int size = 1 + static_cast<int>(rng.next_below(1000));
    for (int i = 0; i < size; ++i) s.update(rng.next_below(kUniverse), 1);
    if (!s.sample().has_value()) ++failures;
  }
  // Three independent copies: empirical failure rate stays in low percent.
  EXPECT_LE(failures, kTrials / 20);
}

TEST(L0, SampleSpreadsOverSupport) {
  // Across independent seeds, every element of a small support should be
  // sampled at least once — a coarse uniformity check.
  constexpr int kSupport = 8;
  std::set<std::uint64_t> hit;
  for (int seed = 0; seed < 200 && hit.size() < kSupport; ++seed) {
    auto s = make_sampler(split(909, seed));
    for (std::uint64_t i = 0; i < kSupport; ++i) s.update(1000 + i, 1);
    if (const auto rec = s.sample()) hit.insert(rec->index);
  }
  EXPECT_EQ(hit.size(), kSupport);
}

TEST(L0, WireBitsMatchParams) {
  const auto s = make_sampler(1);
  const auto& params = s.params();
  EXPECT_EQ(s.wire_bits(),
            static_cast<std::uint64_t>(params.cells()) * OneSparseCell::wire_bits(kUniverse));
  // O(polylog): a few hundred field elements at most for this universe.
  EXPECT_LT(s.wire_bits(), 50'000u);
}

// -- trimmed wire image --------------------------------------------------

// Header word of a 3-copy image with per-copy level counts a, b, c.
std::uint64_t header3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return a | (b << 8) | (c << 16);
}

TEST(L0Image, TrimmedImageMatchesFullSketch) {
  // Seeded random vectors, some with cancellation inside the sketch (an
  // index added and later removed): the trimmed image must carry exactly
  // the levels up to each copy's top non-zero one, and both wire paths —
  // add_serialized and serialize -> deserialize — must reproduce the
  // in-memory sketch bit for bit.
  Rng rng(2024);
  const auto params = L0Params::for_universe(kUniverse);
  for (int trial = 0; trial < 40; ++trial) {
    const std::uint64_t seed = split(123, trial);
    L0Sampler s(kUniverse, params, seed);
    std::map<std::uint64_t, int> live;
    const int support = static_cast<int>(rng.next_below(120));
    for (int i = 0; i < support; ++i) {
      const std::uint64_t idx = rng.next_below(kUniverse);
      if (live.count(idx) != 0) continue;
      const int val = rng.next_bool(0.5) ? 1 : -1;
      s.update(idx, val);
      live[idx] = val;
    }
    if (trial % 2 == 1) {
      // Cancel every index sitting on some copy's top level: the image
      // must shrink to the levels the survivors still occupy.
      for (int c = 0; c < params.copies; ++c) {
        int top = -1;
        for (const auto& [idx, val] : live) top = std::max(top, s.level_of(idx, c));
        for (auto it = live.begin(); it != live.end();) {
          if (s.level_of(it->first, c) == top) {
            s.update(it->first, -it->second);
            it = live.erase(it);
          } else {
            ++it;
          }
        }
      }
    }

    const auto words = wire_words(s);
    // Expected length from the surviving support alone: 1 header word plus
    // 3 words per level up to each copy's highest occupied level.
    std::size_t expect = 1;
    for (int c = 0; c < params.copies; ++c) {
      int top = 0;
      for (const auto& [idx, val] : live) top = std::max(top, s.level_of(idx, c));
      expect += 3 * static_cast<std::size_t>(top + 1);
    }
    EXPECT_EQ(words.size(), expect) << "trial " << trial;
    EXPECT_LE(words.size(), s.max_image_words());

    // add_serialized(trimmed) == add(full), into a nonzero accumulator.
    L0Sampler via_wire(kUniverse, params, seed), via_add(kUniverse, params, seed);
    via_wire.update(7, 1);
    via_add.update(7, 1);
    WordReader r(words);
    via_wire.add_serialized(r);
    EXPECT_TRUE(r.done());
    via_add.add(s);
    EXPECT_EQ(wire_words(via_wire), wire_words(via_add));

    // serialize -> deserialize is the identity.
    WordReader rd(words);
    const L0Sampler back = L0Sampler::deserialize(kUniverse, params, seed, rd);
    EXPECT_TRUE(rd.done());
    EXPECT_EQ(wire_words(back), words);
    EXPECT_EQ(back.is_zero(), s.is_zero());
    const auto sa = s.sample();
    const auto sb = back.sample();
    ASSERT_EQ(sa.has_value(), sb.has_value());
    if (sa.has_value()) {
      EXPECT_EQ(sa->index, sb->index);
    }
  }
}

TEST(L0Image, EmptySketchIsHeaderPlusLevelZero) {
  const auto s = make_sampler(3);
  const auto words = wire_words(s);
  ASSERT_EQ(words.size(), 1u + 3u * static_cast<std::size_t>(s.params().copies));
  EXPECT_EQ(words[0], header3(1, 1, 1));
  for (std::size_t i = 1; i < words.size(); ++i) EXPECT_EQ(words[i], 0u);
  // The logical size the ledger charges does not shrink with the image.
  EXPECT_EQ(s.wire_bits(), static_cast<std::uint64_t>(s.params().cells()) *
                               OneSparseCell::wire_bits(kUniverse));
}

TEST(L0Image, ImagesReadBackToBackAndWideHeaders) {
  // Ten copies need a two-word header; images written into one writer must
  // read back one after another off one reader.
  const L0Params params = L0Params::for_universe(kUniverse, 10);
  Rng rng(77);
  std::vector<L0Sampler> sketches;
  WordWriter w;
  for (int i = 0; i < 3; ++i) {
    sketches.emplace_back(kUniverse, params, 55);
    for (int j = 0; j < 40 * i; ++j) sketches.back().update(rng.next_below(kUniverse), 1);
    sketches.back().serialize(w);
  }
  const auto words = std::move(w).take();
  WordReader r(words);
  for (const auto& expect : sketches) {
    const L0Sampler got = L0Sampler::deserialize(kUniverse, params, 55, r);
    EXPECT_EQ(wire_words(got), wire_words(expect));
  }
  EXPECT_TRUE(r.done());
}

TEST(L0ImageDeath, LevelCountAboveLevelsRejected) {
  auto s = make_sampler(4);
  const auto levels = static_cast<std::uint64_t>(s.params().levels);
  // Enough words behind the header that only the count can be at fault.
  std::vector<std::uint64_t> words(1 + 3 * 3 * (levels + 1), 0);
  words[0] = header3(1, levels + 1, 1);
  WordReader r(words);
  EXPECT_DEATH(s.add_serialized(r), "level count");
  words[0] = header3(1, 0, 1);  // level 0 is always present
  WordReader r0(words);
  EXPECT_DEATH(s.add_serialized(r0), "level count");
}

TEST(L0ImageDeath, TruncatedImageRejected) {
  auto s = make_sampler(5);
  for (std::uint64_t i = 0; i < 50; ++i) s.update(1000 + 37 * i, 1);
  auto words = wire_words(s);
  words.pop_back();
  auto acc = make_sampler(5);
  WordReader r(words);
  EXPECT_DEATH(acc.add_serialized(r), "payload underrun");
  // A header that claims every level, followed by nothing.
  const std::vector<std::uint64_t> header_only{header3(3, 3, 3)};
  WordReader rh(header_only);
  EXPECT_DEATH(acc.add_serialized(rh), "payload underrun");
}

TEST(L0Image, HostileCountersWrapWithoutOverflow) {
  // Counter words arrive from the wire: summing extreme s0 values must wrap
  // (checked under the UBSan job), not overflow a signed integer.
  std::vector<std::uint64_t> words(1 + 3 * 3, 0);
  words[0] = header3(1, 1, 1);
  for (int c = 0; c < 3; ++c) words[1 + 3 * c] = 0x7fffffffffffffffULL;
  auto acc = make_sampler(6);
  for (int i = 0; i < 2; ++i) {
    WordReader r(words);
    acc.add_serialized(r);
    EXPECT_TRUE(r.done());
  }
  EXPECT_FALSE(acc.is_zero());
}

// -- build kernel power table ---------------------------------------------

TEST(GraphSketchPowers, InterleavedTableMatchesFieldPow) {
  // Known answer: the kernel's r_c^(x*n + y) from the interleaved rows
  // equals direct exponentiation, for every copy, before and after rebind.
  constexpr std::size_t n = 37;
  GraphSketchBuilder b(n, 11);
  for (const std::uint64_t seed : {11ull, 12ull}) {
    b.rebind(seed);
    for (int c = 0; c < b.params().copies; ++c) {
      const std::uint64_t r = L0Sampler::fingerprint_base_for(seed, c);
      for (Vertex x = 0; x < n; ++x) {
        for (Vertex y = x + 1; y < n; ++y) {
          ASSERT_EQ(b.edge_power(x, y, c), fp::pow(r, static_cast<std::uint64_t>(x) * n + y))
              << "copy " << c << " edge (" << x << ", " << y << ")";
        }
      }
    }
  }
}

TEST(L0Death, MismatchedCombineRejected) {
  auto a = make_sampler(1);
  auto b = make_sampler(2);  // different seed
  EXPECT_DEATH(a.add(b), "different construction");
}

TEST(L0Death, UpdateOutsideUniverse) {
  auto a = make_sampler(1);
  EXPECT_DEATH(a.update(kUniverse + 5, 1), "outside universe");
}

TEST(L0Params, LevelsCoverUniverse) {
  const auto p = L0Params::for_universe(1ULL << 32);
  EXPECT_GE(p.levels, 32);
  const auto small = L0Params::for_universe(16);
  EXPECT_GE(small.levels, 4);
  EXPECT_EQ(small.cells(), small.levels * small.copies);
}

}  // namespace
}  // namespace kmm
