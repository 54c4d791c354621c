// Extensions beyond the paper's evaluation (its §VIII future work), plus
// ablations of our design choices:
//  * Ext/join    — two-layer class-pair spatial join vs the reference-point
//                  deduplicating join, across grid granularities. The class
//                  rule skips the duplicate candidate pairs up front.
//  * Ext/knn     — k-NN by the best-first duplicate-free tile walk.
//  * Ext/ablation/classmask — value of the per-class comparison reduction:
//                  2-layer window evaluation vs the same grid evaluated with
//                  the full 4-comparison intersection test per entry
//                  (isolates §IV-B / Table II from the duplicate avoidance).

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/knn.h"
#include "core/spatial_join.h"
#include "datagen/synthetic.h"

namespace {

using namespace tlp;
using namespace tlp::bench;

std::vector<BoxEntry> JoinSide(std::uint64_t seed) {
  SyntheticConfig config;
  config.cardinality = static_cast<std::size_t>(
      static_cast<double>(EnvInt64("TLP_CARD_JOIN", 200000)) *
      DatasetScale());
  config.area = 1e-8;
  config.seed = seed;
  return GenerateSyntheticRects(config);
}

void RegisterJoin(std::uint32_t dim, bool two_layer) {
  const std::string name = std::string("Ext/join/") +
                           (two_layer ? "2-layer" : "ref-point") +
                           "/dim:" + std::to_string(dim);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [dim, two_layer](benchmark::State& state) {
        static std::map<std::uint32_t,
                        std::pair<std::shared_ptr<TwoLayerGrid>,
                                  std::shared_ptr<TwoLayerGrid>>>& cache =
            *new std::map<std::uint32_t,
                          std::pair<std::shared_ptr<TwoLayerGrid>,
                                    std::shared_ptr<TwoLayerGrid>>>;
        auto [it, inserted] = cache.try_emplace(dim);
        if (inserted) {
          const GridLayout layout(kUnitDomain, dim, dim);
          it->second.first = std::make_shared<TwoLayerGrid>(layout);
          it->second.first->Build(JoinSide(7));
          it->second.second = std::make_shared<TwoLayerGrid>(layout);
          it->second.second->Build(JoinSide(8));
        }
        std::size_t pairs = 0;
        for (auto _ : state) {
          const auto result =
              two_layer
                  ? TwoLayerJoin::Join(*it->second.first, *it->second.second)
                  : TwoLayerJoin::JoinReferencePoint(*it->second.first,
                                                     *it->second.second);
          benchmark::DoNotOptimize(result.data());
          pairs = result.size();
        }
        state.counters["pairs"] = static_cast<double>(pairs);
      })
      ->MinTime(0.2)
      ->Unit(benchmark::kMillisecond);
}

void RegisterKnn(std::size_t k) {
  const std::string name = "Ext/knn/k:" + std::to_string(k);
  benchmark::RegisterBenchmark(
      name.c_str(),
      [k](benchmark::State& state) {
        static TwoLayerGrid* grid = [] {
          const auto& data = Dataset(TigerFlavor::kRoads);
          auto* g = new TwoLayerGrid(DefaultLayout(data));
          g->Build(data);
          return g;
        }();
        const auto& data = Dataset(TigerFlavor::kRoads);
        Rng rng(42);
        std::vector<Point> queries(1000);
        for (auto& q : queries) {
          q = data[rng.NextBelow(data.size())].box.center();
        }
        std::size_t qi = 0;
        for (auto _ : state) {
          const auto res = KnnEntries(*grid, queries[qi], k);
          benchmark::DoNotOptimize(res.data());
          if (++qi == queries.size()) qi = 0;
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
      })
      ->MinTime(0.25)
      ->Unit(benchmark::kMicrosecond);
}

/// Ablation: same two-layer grid and class selection, but every scanned
/// entry pays the full 4-comparison intersection test instead of the
/// tile-position-reduced mask.
void RegisterClassMaskAblation(bool reduced) {
  const std::string name = std::string("Ext/ablation/classmask/") +
                           (reduced ? "reduced" : "full-4-comparisons");
  benchmark::RegisterBenchmark(
      name.c_str(),
      [reduced](benchmark::State& state) {
        static TwoLayerGrid* grid = [] {
          const auto& data = Dataset(TigerFlavor::kRoads);
          auto* g = new TwoLayerGrid(DefaultLayout(data));
          g->Build(data);
          return g;
        }();
        const auto& queries =
            Windows(TigerFlavor::kRoads,
                    PercentToFraction(kDefaultQueryAreaPercent));
        std::vector<ObjectId> out;
        std::vector<Candidate> cands;
        std::size_t qi = 0;
        for (auto _ : state) {
          out.clear();
          if (reduced) {
            grid->WindowQuery(queries[qi], &out);
          } else {
            // Full test: take the duplicate-free candidates, then apply the
            // unreduced 4-comparison intersection check to each.
            cands.clear();
            grid->WindowCandidates(queries[qi], &cands);
            const Box& w = queries[qi];
            for (const Candidate& c : cands) {
              if (c.box.Intersects(w)) out.push_back(c.id);
            }
          }
          benchmark::DoNotOptimize(out.data());
          if (++qi == queries.size()) qi = 0;
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
      })
      ->MinTime(0.25)
      ->Unit(benchmark::kMicrosecond);
}

void RegisterAll() {
  for (const std::uint32_t dim : {128u, 256u, 512u}) {
    RegisterJoin(dim, /*two_layer=*/true);
    RegisterJoin(dim, /*two_layer=*/false);
  }
  for (const std::size_t k : {1u, 10u, 100u}) RegisterKnn(k);
  RegisterClassMaskAblation(true);
  RegisterClassMaskAblation(false);
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  tlp::bench::AppendBenchTrajectory("ext_extensions",
                                    tlp::bench::RunBenchmarksWithStats("ext"));
  benchmark::Shutdown();
  return 0;
}
