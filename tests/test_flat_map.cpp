// FlatMap (util/flat_map.h): randomized equivalence against
// std::unordered_map over the refcount contract, growth/boundary behavior,
// collision and backward-shift stress, the content-equality and drain
// contracts the engine relies on, and the mutation hook proving a broken
// backward-shift deletion is detectable.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/diagnostics.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace salsa {
namespace {

// Mirrors `map` into `ref` semantics: counts live only while nonzero.
template <typename Key>
void apply_ref(std::unordered_map<Key, int>& ref, Key key, int delta) {
  const int now = (ref[key] += delta);
  if (now == 0) ref.erase(key);
}

template <typename Key>
void expect_matches(const FlatMap<Key>& map,
                    const std::unordered_map<Key, int>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  size_t seen = 0;
  map.for_each([&](Key key, int count) {
    ++seen;
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "key " << key << " not in the reference";
    EXPECT_EQ(count, it->second);
  });
  EXPECT_EQ(seen, ref.size());
}

template <typename Key>
void randomized_equivalence(uint64_t seed) {
  // A small key universe keeps counts churning through zero (entry death
  // and rebirth), which is the whole point of the refcount layout.
  Rng rng(seed);
  FlatMap<Key> map;
  std::unordered_map<Key, int> ref;
  std::vector<Key> universe(257);
  for (Key& k : universe) k = static_cast<Key>(rng.next());
  for (int step = 0; step < 200000; ++step) {
    const Key key = universe[static_cast<size_t>(
        rng.uniform(static_cast<int>(universe.size())))];
    const auto it = ref.find(key);
    const int cur = it == ref.end() ? 0 : it->second;
    // Bias toward +1 so the table fills, but drive counts down through
    // erase often; never take a positive count negative via decrement.
    int delta;
    if (cur > 0 && rng.chance(0.55)) {
      delta = -1;
      EXPECT_EQ(map.decrement(key), cur - 1);
    } else {
      delta = 1 + rng.uniform(3);
      EXPECT_EQ(map.add(key, delta), cur + delta);
    }
    apply_ref(ref, key, delta);
    if (step % 4096 == 0) expect_matches(map, ref);
    // Spot-check lookups, hits and misses alike.
    const Key probe = universe[static_cast<size_t>(
        rng.uniform(static_cast<int>(universe.size())))];
    const int* got = map.find(probe);
    const auto rit = ref.find(probe);
    if (rit == ref.end()) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, rit->second);
    }
  }
  expect_matches(map, ref);
}

TEST(FlatMap, RandomizedEquivalenceU64) { randomized_equivalence<uint64_t>(1); }
TEST(FlatMap, RandomizedEquivalenceU32) { randomized_equivalence<uint32_t>(2); }

TEST(FlatMap, RefcountLifecycle) {
  FlatMap<uint64_t> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_EQ(map.increment(7), 1);
  EXPECT_EQ(map.increment(7), 2);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 2);
  EXPECT_EQ(map.decrement(7), 1);
  EXPECT_EQ(map.decrement(7), 0);
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_TRUE(map.empty());
  // Negative transients (the transaction netting shape) are legal via add().
  EXPECT_EQ(map.add(9, -1), -1);
  EXPECT_EQ(map.add(9, +1), 0);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, DecrementMissingKeyFailsHard) {
  FlatMap<uint64_t> map;
  EXPECT_THROW(map.decrement(1), Error);  // empty table
  map.increment(2);
  EXPECT_THROW(map.decrement(1), Error);  // absent key
}

TEST(FlatMap, GrowthKeepsEveryEntry) {
  // March straight through several load-factor doublings (16 → 2048 slots)
  // and verify nothing is lost or duplicated on any rehash boundary.
  FlatMap<uint64_t> map;
  Rng rng(3);
  std::vector<uint64_t> inserted;
  for (int i = 0; i < 1500; ++i) {
    const uint64_t key = rng.next();
    inserted.push_back(key);
    map.add(key, 1 + rng.uniform(9));
    if (i == 13 || i == 14 || i == 27 || i == 28 || i % 100 == 99) {
      // Around the 7/8 thresholds of the first capacities, then periodic.
      ASSERT_EQ(map.size(), static_cast<size_t>(i) + 1);
    }
  }
  ASSERT_EQ(map.size(), 1500u);
  for (uint64_t key : inserted) ASSERT_NE(map.find(key), nullptr);
  size_t seen = 0;
  map.for_each([&](uint64_t, int) { ++seen; });
  EXPECT_EQ(seen, 1500u);
}

TEST(FlatMap, ReservePreservesContent) {
  FlatMap<uint32_t> map;
  for (uint32_t k = 0; k < 40; ++k) map.add(k, static_cast<int>(k) + 1);
  map.reserve(100000);
  for (uint32_t k = 0; k < 40; ++k) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), static_cast<int>(k) + 1);
  }
  EXPECT_EQ(map.size(), 40u);
}

/// Brute-forces `n` distinct keys that all hash to the same ideal slot of a
/// 16-slot table — every insertion after the first probes linearly, and
/// every deletion exercises the backward-shift walk over displaced keys.
std::vector<uint64_t> colliding_keys(size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if ((static_cast<size_t>((k * 0x9e3779b97f4a7c15ull) >> 32) & 15u) == 3u)
      keys.push_back(k);
  }
  return keys;
}

TEST(FlatMap, CollisionClusterSurvivesInterleavedErases) {
  const std::vector<uint64_t> keys = colliding_keys(12);
  FlatMap<uint64_t> map;
  for (uint64_t k : keys) map.increment(k);
  // Erase every other key: each erase compacts the probe chain across the
  // survivors, which must all stay findable.
  for (size_t i = 0; i < keys.size(); i += 2) map.decrement(keys[i]);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(map.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(map.find(keys[i]), nullptr) << "orphaned key " << keys[i];
    }
  }
  // Refill and drain the whole cluster front-to-back.
  for (size_t i = 0; i < keys.size(); i += 2) map.increment(keys[i]);
  for (uint64_t k : keys) map.decrement(k);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, EqualityIsContentBasedNotLayoutBased) {
  const std::vector<uint64_t> keys = colliding_keys(8);
  // b takes a different insertion/deletion history, so its slot layout
  // differs from a's; content equality must hold regardless.
  FlatMap<uint64_t> a, b;
  for (uint64_t k : keys) a.increment(k);
  for (size_t i = keys.size(); i-- > 0;) b.increment(keys[i]);
  b.increment(999);
  b.decrement(999);
  EXPECT_TRUE(a == b);
  b.decrement(keys[3]);
  EXPECT_FALSE(a == b);
  b.increment(keys[3]);
  EXPECT_TRUE(a == b);
}

TEST(FlatMap, DrainVisitsEverythingOnceAndEmpties) {
  FlatMap<uint32_t> map;
  std::unordered_map<uint32_t, int> ref;
  for (uint32_t k = 100; k < 200; ++k) {
    map.add(k, static_cast<int>(k % 5) - 2);  // some nets are zero
    apply_ref(ref, k, static_cast<int>(k % 5) - 2);
  }
  std::unordered_map<uint32_t, int> drained;
  map.drain([&](uint32_t key, int count) {
    EXPECT_TRUE(drained.emplace(key, count).second) << "visited twice";
  });
  EXPECT_EQ(drained, ref);
  EXPECT_TRUE(map.empty());
  map.drain([](uint32_t, int) { FAIL() << "drain on empty table visited"; });
}

// The mutation test behind salsa_audit --break-flat-erase: a deletion that
// skips the backward-shift compaction strands displaced keys behind the
// hole, and the corruption MUST be observable — a present key becomes
// unfindable, which the engine-level rebuild cross-check
// (SearchEngine::index_matches_rebuild) and FlatMap's own decrement CHECK
// turn into a hard failure.
TEST(FlatMap, BrokenBackwardShiftIsDetectable) {
  const std::vector<uint64_t> keys = colliding_keys(10);
  FlatMap<uint64_t> map;
  map.mark_mutation_target();
  for (uint64_t k : keys) map.increment(k);

  // Arm the one-shot hook for the very next compacting erase (the counter
  // is process-wide and cumulative, so arm relative to its current value).
  flat_map_hooks::break_backward_shift_after =
      flat_map_hooks::erase_count + 1;
  map.decrement(keys[0]);
  ASSERT_EQ(flat_map_hooks::break_backward_shift_after, 0) << "hook unfired";

  // Every survivor was displaced behind keys[0]'s slot; the skipped
  // compaction must orphan at least one of them.
  bool orphaned = false;
  for (size_t i = 1; i < keys.size(); ++i)
    orphaned = orphaned || map.find(keys[i]) == nullptr;
  EXPECT_TRUE(orphaned) << "broken deletion went undetected";

  // Content equality against a correctly-built table with the same
  // intended contents flags the drift too (this is exactly what the
  // index_matches_rebuild audit compares).
  FlatMap<uint64_t> rebuilt;
  for (size_t i = 1; i < keys.size(); ++i) rebuilt.increment(keys[i]);
  EXPECT_FALSE(map == rebuilt);
}

}  // namespace
}  // namespace salsa
