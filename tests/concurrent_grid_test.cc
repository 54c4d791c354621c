// Tests for the epoch-based concurrent index (src/concurrency,
// docs/CONCURRENCY.md):
//
//  * EpochDomain protocol unit tests — the "global - 2" reclamation rule,
//    pinned readers blocking advancement, the nothing-retired refusal that
//    keeps drain loops finite, and guard move semantics.
//  * Overlay exactness — every query kind over (published base + unmerged
//    delta) must equal the same query over a sequential TwoLayerGrid that
//    applied the identical ops, at every interleaving of appends, merges,
//    and flushes. Duplicate-freeness rides along: the id-set comparators
//    reject duplicates, and posthoc_dedup must stay 0
//    (the Lemma 1-4 replica-avoidance survives the overlay composition).
//  * Randomized interleaved reader/writer differential test — one writer
//    replays a precomputed op script while reader threads pin snapshots
//    and check them against an oracle reconstructed *at the snapshot's
//    sequence number*. This is the TSan CI target for the concurrency
//    layer; it also proves snapshot sequence numbers are monotone per
//    reader.
//  * Version-retirement accounting — after any quiesced op, the epoch
//    domain must have drained every retired version (retired_count == 0),
//    so a leaked Version would be visible here long before ASan reports
//    it at exit.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/query_stats.h"
#include "common/rng.h"
#include "concurrency/epoch.h"
#include "concurrency/versioned_grid.h"
#include "core/diversified_knn.h"
#include "core/skyline.h"
#include "core/two_layer_grid.h"
#include "grid/grid_layout.h"
#include "test_util.h"

namespace tlp {
namespace {

// --------------------------------------------------------------------------
// EpochDomain

TEST(EpochDomainTest, AdvanceRefusesWithNothingRetired) {
  EpochDomain d;
  const std::uint64_t g = d.global_epoch();
  EXPECT_FALSE(d.TryAdvance());
  EXPECT_EQ(d.global_epoch(), g);
}

TEST(EpochDomainTest, RetireeFreesAfterTwoAdvances) {
  EpochDomain d;
  bool freed = false;
  d.Retire([&freed] { freed = true; });
  EXPECT_EQ(d.retired_count(), 1u);

  // Retired at epoch g: the first advance (to g+1) frees the g-1 bucket,
  // the second (to g+2) frees the g bucket — the standard global-2 rule.
  EXPECT_TRUE(d.TryAdvance());
  EXPECT_FALSE(freed);
  EXPECT_TRUE(d.TryAdvance());
  EXPECT_TRUE(freed);
  EXPECT_EQ(d.retired_count(), 0u);
  EXPECT_FALSE(d.TryAdvance());  // drained: refuse again
}

TEST(EpochDomainTest, PinnedReaderBlocksSecondAdvance) {
  EpochDomain d;
  bool freed = false;
  {
    EpochDomain::Guard guard = d.Pin();
    EXPECT_EQ(d.active_pins(), 1u);
    d.Retire([&freed] { freed = true; });
    // The pin announces the current epoch, so one advance succeeds; the
    // guard is now one epoch behind and must block the next advance —
    // this is exactly what keeps the retiree alive while the reader can
    // still hold a pointer to it.
    EXPECT_TRUE(d.TryAdvance());
    EXPECT_FALSE(d.TryAdvance());
    EXPECT_FALSE(freed);
  }
  EXPECT_EQ(d.active_pins(), 0u);
  EXPECT_TRUE(d.TryAdvance());
  EXPECT_TRUE(freed);
}

TEST(EpochDomainTest, GuardMoveTransfersTheSlot) {
  EpochDomain d;
  EpochDomain::Guard a = d.Pin();
  EXPECT_TRUE(a.pinned());
  EXPECT_EQ(d.active_pins(), 1u);

  EpochDomain::Guard b = std::move(a);
  EXPECT_FALSE(a.pinned());  // NOLINT(bugprone-use-after-move): post-move test
  EXPECT_TRUE(b.pinned());
  EXPECT_EQ(d.active_pins(), 1u);

  EpochDomain::Guard c;
  c = std::move(b);
  EXPECT_TRUE(c.pinned());
  EXPECT_EQ(d.active_pins(), 1u);
}

TEST(EpochDomainTest, ReclaimAllRunsEveryBucket) {
  EpochDomain d;
  int runs = 0;
  d.Retire([&runs] { ++runs; });
  ASSERT_TRUE(d.TryAdvance());  // spreads retirees across two buckets
  d.Retire([&runs] { ++runs; });
  EXPECT_EQ(d.retired_count(), 2u);
  d.ReclaimAll();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(d.retired_count(), 0u);
}

// --------------------------------------------------------------------------
// Overlay exactness against a sequential oracle

const Box kUnit{0, 0, 1, 1};

GridLayout Layout() { return GridLayout(kUnit, 9, 7); }

/// Compares every query kind between a pinned snapshot of `live` and the
/// sequential `oracle` that applied the identical op sequence.
void ExpectSnapshotMatchesOracle(const ConcurrentTwoLayerGrid& live,
                                 const TwoLayerGrid& oracle,
                                 std::uint64_t query_seed,
                                 const std::string& context) {
  const ConcurrentTwoLayerGrid::Snapshot snap = live.Acquire();
  Rng rng(query_seed);

  for (const Box& w : testing::RandomWindows(8, query_seed)) {
    std::vector<ObjectId> expected;
    oracle.WindowQuery(w, &expected);
    std::sort(expected.begin(), expected.end());
    ResetQueryStats();
    std::vector<ObjectId> actual;
    snap.WindowQuery(w, &actual);
    testing::ExpectSameIdSet(expected, actual, context + " window");
    // Lemma 1-4 hold over (base + overlay): results come out exact
    // without any post-hoc dedup pass.
    EXPECT_EQ(GetQueryStats().posthoc_dedup, 0u) << context;
  }

  for (int t = 0; t < 6; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const Coord radius = rng.NextDouble() * 0.15;

    // Ids only, so the boxes are checked through a box-field predicate.
    const EntryPredicate wide = [](const BoxEntry& e) {
      return e.box.width() > 0.02;
    };
    for (const EntryPredicate& keep : {EntryPredicate{}, wide}) {
      std::vector<BoxEntry> expected_entries;
      oracle.DiskQueryEntries(q, radius, &expected_entries);
      std::vector<ObjectId> expected;
      for (const BoxEntry& e : expected_entries) {
        if (!keep || keep(e)) expected.push_back(e.id);
      }
      std::sort(expected.begin(), expected.end());
      std::vector<ObjectId> actual;
      snap.DiskQuery(q, radius, &actual, keep);
      EXPECT_EQ(actual, expected) << context << " disk";

      const Box w{q.x - radius, q.y - radius, q.x + radius, q.y + radius};
      std::vector<Candidate> candidates;
      oracle.WindowCandidates(w, &candidates);
      expected.clear();
      for (const Candidate& c : candidates) {
        if (!keep || keep(BoxEntry{c.box, c.id})) expected.push_back(c.id);
      }
      std::sort(expected.begin(), expected.end());
      snap.WindowQuery(w, &actual, keep);
      EXPECT_EQ(actual, expected) << context << " window";
    }

    const std::size_t k = 1 + static_cast<std::size_t>(rng.NextDouble() * 12);
    EXPECT_EQ(snap.KnnEntries(q, k), KnnEntries(oracle, q, k))
        << context << " knn k=" << k;

    EXPECT_EQ(snap.SkylineQuery(q), [&] {
      auto sky = SkylineQuery(oracle, q);
      std::sort(sky.begin(), sky.end(),
                [](const SkylineEntry& a, const SkylineEntry& b) {
                  return a.entry.id < b.entry.id;
                });
      return sky;
    }()) << context << " skyline";

    DivKnnOptions opts;
    opts.k = 1 + static_cast<std::size_t>(rng.NextDouble() * 8);
    opts.lambda = rng.NextDouble();
    EXPECT_EQ(snap.DiversifiedKnnQuery(q, opts),
              DiversifiedKnnQuery(oracle, q, opts))
        << context << " divknn k=" << opts.k;
  }
}

TEST(ConcurrentGridTest, DeleteWithAnotherBoxChangesNothing) {
  // Regression: id 7 spans tiles (0,0) and (1,0). A delete naming a box
  // inside tile (0,0) only used to be acknowledged; the merge then removed
  // only the class-A replica, the orphan in tile (1,0) kept answering
  // windows, and re-inserting 7 made that tile return it twice.
  const Box stored{0.1, 0.1, 0.4, 0.2};
  const Box other{0.1, 0.1, 0.2, 0.2};
  const Box tile_windows[] = {Box{0.05, 0.05, 0.2, 0.2},   // tile (0,0)
                              Box{0.3, 0.05, 0.45, 0.2}};  // tile (1,0)
  const auto expect_once = [&](const ConcurrentTwoLayerGrid& live) {
    const ConcurrentTwoLayerGrid::Snapshot snap = live.Acquire();
    EXPECT_TRUE(snap.base().CheckInvariants());
    for (const Box& w : tile_windows) {
      std::vector<ObjectId> ids;
      snap.WindowQuery(w, &ids);
      EXPECT_EQ(ids, std::vector<ObjectId>{7});
    }
  };
  ConcurrentTwoLayerGrid live(TwoLayerGrid(GridLayout(kUnit, 4, 4)));
  ASSERT_TRUE(live.Insert(BoxEntry{stored, 7}));
  // Once while id 7 is in the delta window, once merged into the base.
  EXPECT_FALSE(live.Delete(7, other));
  live.Flush();
  expect_once(live);
  EXPECT_FALSE(live.Delete(7, other));
  live.Flush();
  expect_once(live);
  // The stored box deletes it; re-inserting stores exactly one copy.
  EXPECT_TRUE(live.Delete(7, stored));
  ASSERT_TRUE(live.Insert(BoxEntry{stored, 7}));
  live.Flush();
  expect_once(live);
}

TEST(ConcurrentGridTest, OverlayExactnessAcrossInterleavedUpdates) {
  const auto base_data = testing::RandomEntries(1000, 0.05, 71);
  TwoLayerGrid oracle(Layout());
  oracle.Build(base_data);
  TwoLayerGrid base(Layout());
  base.Build(base_data);

  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 48;  // small: exercise merges mid-test
  ConcurrentTwoLayerGrid live(std::move(base), opts);
  EXPECT_EQ(live.live_count(), base_data.size());

  // Op mix over base ids (deletes/reinserts) and a fresh id range, with a
  // sprinkle of out-of-domain boxes (the clamped class-A corner case).
  Rng rng(72);
  std::unordered_map<ObjectId, Box> live_boxes;
  for (const BoxEntry& e : base_data) live_boxes.emplace(e.id, e.box);
  std::uint64_t applied = 0;

  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 40; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.45 && !live_boxes.empty()) {
        // Delete a (pseudo)random live object.
        auto it = live_boxes.begin();
        std::advance(it, static_cast<long>(rng.NextDouble() *
                                           static_cast<double>(
                                               live_boxes.size())));
        ASSERT_TRUE(live.Delete(it->first, it->second));
        ASSERT_TRUE(oracle.Delete(it->first, it->second));
        live_boxes.erase(it);
        ++applied;
      } else {
        const double x = rng.NextDouble() * 1.2 - 0.1;  // may exit [0,1]
        const double y = rng.NextDouble() * 1.2 - 0.1;
        const Box b{x, y, x + rng.NextDouble() * 0.05,
                    y + rng.NextDouble() * 0.05};
        const ObjectId id = static_cast<ObjectId>(
            20000 + rng.NextDouble() * 500);
        const BoxEntry entry{b, id};
        const bool fresh = live_boxes.count(id) == 0;
        EXPECT_EQ(live.Insert(entry), fresh);
        if (fresh) {
          oracle.Insert(entry);
          live_boxes.emplace(id, b);
          ++applied;
        }
      }
    }
    ExpectSnapshotMatchesOracle(live, oracle,
                                73 + static_cast<std::uint64_t>(round),
                                "round " + std::to_string(round));
    EXPECT_EQ(live.live_count(), live_boxes.size());

    if (round % 3 == 2) {
      live.Flush();
      // A flushed snapshot has an empty overlay; results must not change.
      const auto snap = live.Acquire();
      EXPECT_EQ(snap.overlay_size(), 0u);
      EXPECT_EQ(snap.seq(), applied);
      ExpectSnapshotMatchesOracle(live, oracle,
                                  173 + static_cast<std::uint64_t>(round),
                                  "flushed round " + std::to_string(round));
    }
  }
  EXPECT_GE(live.merges_completed(), 1u);

  // Duplicate-insert / missing-delete return values.
  const BoxEntry dup{live_boxes.begin()->second, live_boxes.begin()->first};
  EXPECT_FALSE(live.Insert(dup));
  EXPECT_FALSE(live.Delete(static_cast<ObjectId>(999999), kUnit));
}

/// The live kNN over a nearly full delta window (just under the default
/// merge threshold, so no merge runs): inserts, deletes and re-inserts all
/// land near the query point, where the overlay decides the answer. KNN
/// and DIVKNN are checked against brute force over the live set; the
/// DIVKNN oracle re-ranks the brute-force pool with DiversifiedReRank,
/// which diversified_knn_test checks against a full brute force.
TEST(ConcurrentGridTest, KnnMatchesBruteForceOverNearlyFullDeltaWindow) {
  const auto base_data = testing::RandomEntries(3000, 0.03, 77);
  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid live(std::move(base));  // merge_threshold 1024

  const Point q{0.42, 0.57};
  std::unordered_map<ObjectId, Box> live_boxes;
  for (const BoxEntry& e : base_data) live_boxes.emplace(e.id, e.box);
  std::vector<ObjectId> deleted;
  Rng rng(78);
  auto near_q = [&] {
    const double x = q.x + (rng.NextDouble() - 0.5) * 0.2;
    const double y = q.y + (rng.NextDouble() - 0.5) * 0.2;
    return Box{x, y, x + rng.NextDouble() * 0.01, y + rng.NextDouble() * 0.01};
  };
  ObjectId next_id = 90000;
  for (int op = 0; op < 1000; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.35) {
      const BoxEntry e{near_q(), next_id++};
      ASSERT_TRUE(live.Insert(e));
      live_boxes.emplace(e.id, e.box);
    } else if (dice < 0.55 && !deleted.empty()) {
      const BoxEntry e{near_q(), deleted.back()};
      deleted.pop_back();
      ASSERT_TRUE(live.Insert(e));
      live_boxes.emplace(e.id, e.box);
    } else {
      // Delete the live object nearest a random point near q.
      const Box probe = near_q();
      const Point p{probe.xl, probe.yl};
      auto victim = live_boxes.end();
      for (auto it = live_boxes.begin(); it != live_boxes.end(); ++it) {
        if (victim == live_boxes.end() ||
            it->second.MinDistanceTo(p) < victim->second.MinDistanceTo(p)) {
          victim = it;
        }
      }
      ASSERT_TRUE(live.Delete(victim->first, victim->second));
      deleted.push_back(victim->first);
      live_boxes.erase(victim);
    }
  }
  const ConcurrentTwoLayerGrid::Snapshot snap = live.Acquire();
  // All 1000 ops are pending (re-inserts reuse ids, so fewer distinct ids).
  ASSERT_EQ(live.merges_completed(), 0u);
  ASSERT_EQ(snap.seq(), 1000u);
  ASSERT_GT(snap.overlay_size(), 400u);

  std::vector<BoxEntry> alive;
  for (const auto& [id, box] : live_boxes) alive.push_back(BoxEntry{box, id});
  auto brute_force = [&](const Point& p, std::size_t k,
                         const EntryPredicate& keep) {
    std::vector<RankedEntry> all;
    for (const BoxEntry& e : alive) {
      if (!keep || keep(e)) all.push_back({e, e.box.MinDistanceTo(p)});
    }
    std::sort(all.begin(), all.end(), RankedBefore);
    if (all.size() > k) all.resize(k);
    return all;
  };
  const EntryPredicate odd = [](const BoxEntry& e) { return e.id % 2 == 1; };
  for (const Point& p : {q, Point{0.45, 0.6}, Point{0.9, 0.1}}) {
    for (const EntryPredicate& keep : {EntryPredicate{}, odd}) {
      for (const std::size_t k : {1u, 10u, 64u, 700u, 5000u}) {
        EXPECT_EQ(snap.KnnEntries(p, k, keep), brute_force(p, k, keep))
            << "knn k=" << k;
      }
      DivKnnOptions opts;
      opts.k = 8;
      opts.lambda = 0.6;
      EXPECT_EQ(snap.DiversifiedKnnQuery(p, opts, keep),
                DiversifiedReRank(brute_force(p, ResolvedDivKnnFetch(opts),
                                              keep),
                                  opts.k, opts.lambda))
          << "divknn";
    }
  }
}

TEST(ConcurrentGridTest, SkylineMatchesBruteForceAcrossMerges) {
  // The live skyline runs on the published base, whose class-A extents a
  // merge copies from the previous base and then widens by Insert (and
  // leaves stale on Delete). Check it against the brute force over the
  // live set, not against a grid that shares the extent code.
  const auto base_data = testing::RandomEntries(1200, 0.04, 75);
  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 24;
  ConcurrentTwoLayerGrid live(std::move(base), opts);

  std::unordered_map<ObjectId, Box> live_boxes;
  for (const BoxEntry& e : base_data) live_boxes.emplace(e.id, e.box);
  Rng rng(76);
  ObjectId next_id = 50000;
  const Box region{0.15, 0.3, 0.8, 0.75};
  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 60; ++op) {
      if (rng.NextDouble() < 0.45) {
        auto it = live_boxes.begin();
        std::advance(it, static_cast<long>(
                             rng.NextDouble() *
                             static_cast<double>(live_boxes.size())));
        ASSERT_TRUE(live.Delete(it->first, it->second));
        live_boxes.erase(it);
        continue;
      }
      // Mostly long horizontal or vertical objects: they start in a
      // low-column (or low-row) tile and reach far across the domain, so a
      // missing extent widening would hide them.
      const double a = rng.NextDouble() * 0.3;
      const double b = a + 0.3 + rng.NextDouble() * 0.6;
      const double c = rng.NextDouble();
      const Box box = rng.NextDouble() < 0.5 ? Box{a, c, b, c + 0.01}
                                             : Box{c, a, c + 0.01, b};
      ASSERT_TRUE(live.Insert(BoxEntry{box, next_id}));
      live_boxes.emplace(next_id++, box);
    }
    std::vector<BoxEntry> data;
    for (const auto& [id, box] : live_boxes) data.push_back(BoxEntry{box, id});
    const ConcurrentTwoLayerGrid::Snapshot snap = live.Acquire();
    for (int t = 0; t < 8; ++t) {
      const Point q{rng.NextDouble(), rng.NextDouble()};
      const std::string context = "round " + std::to_string(round);
      testing::ExpectBitIdentical(snap.SkylineQuery(q),
                                  testing::BruteForceSkyline(data, q),
                                  context);
      testing::ExpectBitIdentical(
          snap.SkylineQuery(q, &region),
          testing::BruteForceSkyline(data, q, &region), context + " region");
    }
    // Fold the round's pending ops, so the next round queries a merged
    // base however the background merges were scheduled.
    live.Flush();
  }
  EXPECT_GE(live.merges_completed(), 3u);
}

TEST(ConcurrentGridTest, SnapshotOutlivesSupersedingMerge) {
  const auto base_data = testing::RandomEntries(300, 0.05, 81);
  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 8;
  ConcurrentTwoLayerGrid live(std::move(base), opts);

  // Pin a snapshot, then push the index through several merges. The pinned
  // version (and its base grid) must stay fully usable: the epoch pin is
  // what keeps the retired-but-observed versions alive.
  const auto snap = live.Acquire();
  std::vector<ObjectId> before;
  snap.WindowQuery(kUnit, &before);

  for (ObjectId id = 30000; id < 30100; ++id) {
    ASSERT_TRUE(live.Insert(BoxEntry{Box{0.4, 0.4, 0.41, 0.41}, id}));
  }
  live.Flush();
  EXPECT_GE(live.merges_completed(), 1u);

  std::vector<ObjectId> after;
  snap.WindowQuery(kUnit, &after);  // the OLD view: pre-insert results
  EXPECT_EQ(before, after);

  const auto fresh = live.Acquire();
  std::vector<ObjectId> now;
  fresh.WindowQuery(kUnit, &now);
  EXPECT_EQ(now.size(), before.size() + 100);
}

TEST(ConcurrentGridTest, RetiredVersionsDrainOnceUnpinned) {
  TwoLayerGrid base(Layout());
  base.Build(testing::RandomEntries(100, 0.05, 91));
  ConcurrentTwoLayerGrid live(std::move(base));
  EpochDomain& d = live.epoch_domain();

  // Quiesced appends drain their own garbage: every publish retires the
  // previous version and advances the epoch all the way, so nothing may
  // accumulate.
  for (ObjectId id = 40000; id < 40050; ++id) {
    ASSERT_TRUE(live.Insert(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, id}));
    EXPECT_EQ(d.retired_count(), 0u) << "id " << id;
  }

  // A pinned reader parks retirement; releasing it lets the next publish
  // drain the backlog.
  {
    const auto snap = live.Acquire();
    for (ObjectId id = 40050; id < 40060; ++id) {
      ASSERT_TRUE(live.Insert(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, id}));
    }
    EXPECT_GT(d.retired_count(), 0u);
    EXPECT_EQ(d.active_pins(), 1u);
  }
  ASSERT_TRUE(live.Insert(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, 40060}));
  EXPECT_EQ(d.retired_count(), 0u);
  EXPECT_EQ(d.active_pins(), 0u);
}

// --------------------------------------------------------------------------
// Randomized interleaved reader/writer differential test (TSan target)

struct ScriptedOp {
  bool insert = false;
  BoxEntry entry;
};

/// Per-object timeline: (seq, present, box) changes, seq 0 = base state.
struct IdHistory {
  struct Event {
    std::uint64_t seq = 0;
    bool present = false;
    Box box;
  };
  std::vector<Event> events;
};

/// The live set at sequence number `seq`, reconstructed from histories.
std::vector<BoxEntry> LiveSetAt(
    const std::unordered_map<ObjectId, IdHistory>& history,
    std::uint64_t seq) {
  std::vector<BoxEntry> out;
  for (const auto& [id, h] : history) {
    const IdHistory::Event* last = nullptr;
    for (const auto& e : h.events) {
      if (e.seq > seq) break;
      last = &e;
    }
    if (last != nullptr && last->present) out.push_back(BoxEntry{last->box, id});
  }
  return out;
}

TEST(ConcurrentGridTest, InterleavedReadersWriterDifferential) {
  const std::size_t kBase = 400;
  const std::uint64_t kOps = 900;
  const auto base_data = testing::RandomEntries(kBase, 0.05, 101);

  // Precompute the op script plus each op's expected return value, and the
  // per-id histories reader threads replay by snapshot sequence number.
  std::unordered_map<ObjectId, IdHistory> history;
  std::unordered_map<ObjectId, Box> live_boxes;
  for (const BoxEntry& e : base_data) {
    history[e.id].events.push_back({0, true, e.box});
    live_boxes.emplace(e.id, e.box);
  }
  std::vector<ScriptedOp> script;
  script.reserve(kOps);
  Rng rng(102);
  for (std::uint64_t s = 1; s <= kOps; ++s) {
    ScriptedOp op;
    if (rng.NextDouble() < 0.5 && !live_boxes.empty()) {
      auto it = live_boxes.begin();
      std::advance(it, static_cast<long>(rng.NextDouble() *
                                         static_cast<double>(
                                             live_boxes.size())));
      op.insert = false;
      op.entry = BoxEntry{it->second, it->first};
      live_boxes.erase(it);
      history[op.entry.id].events.push_back({s, false, op.entry.box});
    } else {
      ObjectId id;
      do {
        id = static_cast<ObjectId>(50000 + rng.NextDouble() * 900);
      } while (live_boxes.count(id) != 0);
      const double x = rng.NextDouble() * 0.95;
      const double y = rng.NextDouble() * 0.95;
      const Box b{x, y, x + rng.NextDouble() * 0.04,
                  y + rng.NextDouble() * 0.04};
      op.insert = true;
      op.entry = BoxEntry{b, id};
      live_boxes.emplace(id, b);
      history[id].events.push_back({s, true, b});
    }
    script.push_back(op);
  }

  TwoLayerGrid base(Layout());
  base.Build(base_data);
  ConcurrentTwoLayerGrid::Options opts;
  opts.merge_threshold = 64;  // merges race the readers throughout
  ConcurrentTwoLayerGrid live(std::move(base), opts);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checks{0};

  auto reader = [&](std::uint64_t seed) {
    Rng qrng(seed);
    std::uint64_t last_seq = 0;
    while (!done.load()) {
      const auto snap = live.Acquire();
      const std::uint64_t s = snap.seq();
      EXPECT_LE(s, kOps);
      EXPECT_GE(s, last_seq) << "snapshot sequence went backwards";
      last_seq = s;

      const auto expected_live = LiveSetAt(history, s);
      const double wx = qrng.NextDouble() * 0.8;
      const double wy = qrng.NextDouble() * 0.8;
      const Box w{wx, wy, wx + 0.2, wy + 0.2};
      std::vector<ObjectId> expected;
      for (const BoxEntry& e : expected_live) {
        if (e.box.Intersects(w)) expected.push_back(e.id);
      }
      std::sort(expected.begin(), expected.end());
      std::vector<ObjectId> actual;
      snap.WindowQuery(w, &actual);
      EXPECT_EQ(actual, expected) << "window mismatch at seq " << s;

      // kNN against brute force over the reconstructed live set; both
      // sides order by (distance, id), so equality is exact.
      const Point q{qrng.NextDouble(), qrng.NextDouble()};
      std::vector<RankedEntry> brute;
      for (const BoxEntry& e : expected_live) {
        brute.push_back(RankedEntry{e, e.box.MinDistanceTo(q)});
      }
      std::sort(brute.begin(), brute.end(),
                [](const RankedEntry& a, const RankedEntry& b) {
                  return a.distance != b.distance
                             ? a.distance < b.distance
                             : a.entry.id < b.entry.id;
                });
      if (brute.size() > 5) brute.resize(5);
      EXPECT_EQ(snap.KnnEntries(q, 5), brute) << "knn mismatch at seq " << s;

      checks.fetch_add(1);
    }
  };

  std::vector<std::thread> readers;
  for (std::uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back(reader, 103 + t);
  }

  for (std::size_t n = 0; n < script.size(); ++n) {
    const ScriptedOp& op = script[n];
    if (op.insert) {
      EXPECT_TRUE(live.Insert(op.entry));
    } else {
      EXPECT_TRUE(live.Delete(op.entry.id, op.entry.box));
    }
    // Let readers land snapshots between appends — otherwise the writer
    // finishes before they observe more than a couple of sequence numbers.
    if (n % 16 == 0) std::this_thread::yield();
  }
  live.Flush();
  // On a loaded machine the writer can finish before any reader is
  // scheduled; keep the readers running until one check has landed.
  while (checks.load() == 0) std::this_thread::yield();
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(live.published_seq(), kOps);
  EXPECT_EQ(live.live_count(), live_boxes.size());

  // Final state: a quiesced snapshot must equal the fully-applied oracle.
  TwoLayerGrid oracle(Layout());
  oracle.Build(base_data);
  for (const ScriptedOp& op : script) {
    if (op.insert) {
      oracle.Insert(op.entry);
    } else {
      ASSERT_TRUE(oracle.Delete(op.entry.id, op.entry.box));
    }
  }
  ExpectSnapshotMatchesOracle(live, oracle, 104, "post-join final state");

  // Retirement accounting: no pins remain, and the final publishes drained
  // all retired versions (an actual leak would also trip ASan at exit).
  EXPECT_EQ(live.epoch_domain().active_pins(), 0u);
  ASSERT_TRUE(live.Insert(BoxEntry{Box{0.5, 0.5, 0.51, 0.51}, 60000}));
  EXPECT_EQ(live.epoch_domain().retired_count(), 0u);
}

}  // namespace
}  // namespace tlp
