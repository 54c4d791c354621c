// Cold-start benchmark of the snapshot subsystem (docs/PERSISTENCE.md):
// Build() from raw entries vs. Load() (deserializing) vs. LoadMapped()
// (zero-copy) of a 2-layer+ index, each followed by its first window query —
// the metric a restarting query server cares about. Plain main (not
// google-benchmark): each variant must run exactly once from a cold state,
// while the benchmark library exists to repeat until steady state.
//
//   TLP_SNAPSHOT_N        dataset cardinality (default 1,000,000)
//   TLP_SNAPSHOT_QUERIES  queries per loaded index (default 100)
//   TLP_SNAPSHOT_PATH     snapshot file location (default: ./bench_snapshot
//                         .tlps, removed afterwards)
//
// Emits one TLP_SNAPSHOT JSON line with the timings plus TLP_QUERY_STATS
// lines per variant (parsed by tools/summarize_results.py).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

namespace {

using tlp::EnvInt64;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// First-query-ready time: runs one window query and returns (seconds,
/// result count) — on a mapped index this is where pages actually fault in.
std::pair<double, std::size_t> FirstQuery(const tlp::SpatialIndex& index,
                                          const tlp::Box& w) {
  std::vector<tlp::ObjectId> out;
  const double t0 = Now();
  index.WindowQuery(w, &out);
  return {Now() - t0, out.size()};
}

/// The steady-state workload: returns (seconds, total result count).
std::pair<double, std::size_t> RunWorkload(
    const tlp::SpatialIndex& index, const std::vector<tlp::Box>& windows) {
  std::vector<tlp::ObjectId> out;
  std::size_t results = 0;
  const double t0 = Now();
  for (const tlp::Box& w : windows) {
    out.clear();
    index.WindowQuery(w, &out);
    results += out.size();
  }
  return {Now() - t0, results};
}

}  // namespace

int main() {
  const auto n = static_cast<std::size_t>(EnvInt64("TLP_SNAPSHOT_N", 1000000));
  const auto query_count =
      static_cast<std::size_t>(EnvInt64("TLP_SNAPSHOT_QUERIES", 100));
  // NOLINTNEXTLINE(concurrency-mt-unsafe) single-threaded main, no setenv
  const char* path_env = std::getenv("TLP_SNAPSHOT_PATH");
  const std::string path =
      path_env != nullptr ? path_env : "bench_snapshot.tlps";

  tlp::SyntheticConfig config;
  config.cardinality = n;
  const std::vector<tlp::BoxEntry> data =
      tlp::GenerateSyntheticRects(config);
  const tlp::GridLayout layout = tlp::bench::DefaultLayout(data);
  const std::vector<tlp::Box> windows = tlp::GenerateWindowQueries(
      data, query_count,
      tlp::bench::PercentToFraction(tlp::bench::kDefaultQueryAreaPercent));

  // --- Variant 1: Build() from raw entries (the no-snapshot cold start).
  tlp::ResetQueryStats();
  double t0 = Now();
  auto built = std::make_unique<tlp::TwoLayerPlusGrid>(layout);
  built->Build(data);
  const double build_seconds = Now() - t0;
  const auto [build_fq_seconds, fq_results] = FirstQuery(*built, windows[0]);
  const double build_workload_seconds = RunWorkload(*built, windows).first;
  tlp::bench::PrintQueryStatsJson("snapshot_build",
                                  build_fq_seconds + build_workload_seconds);

  t0 = Now();
  tlp::Status s = built->Save(path);
  const double save_seconds = Now() - t0;
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.message().c_str());
    return 1;
  }
  const std::size_t index_bytes = built->SizeBytes();
  built.reset();  // drop the hot copy before the load variants

  // --- Variant 2: Load() — deserialize into owned storage.
  tlp::ResetQueryStats();
  t0 = Now();
  auto loaded = std::make_unique<tlp::TwoLayerPlusGrid>(layout);
  s = loaded->Load(path);
  const double load_seconds = Now() - t0;
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.message().c_str());
    return 1;
  }
  const auto [load_fq_seconds, load_fq_results] =
      FirstQuery(*loaded, windows[0]);
  const auto [owned_seconds, owned_results] = RunWorkload(*loaded, windows);
  tlp::bench::PrintQueryStatsJson("snapshot_load_owned",
                                  load_fq_seconds + owned_seconds);
  loaded.reset();

  // --- Variant 3: LoadMapped() — zero-copy, O(pages touched).
  tlp::ResetQueryStats();
  t0 = Now();
  auto mapped = std::make_unique<tlp::TwoLayerPlusGrid>(layout);
  s = mapped->LoadMapped(path);
  const double mmap_seconds = Now() - t0;
  if (!s.ok()) {
    std::fprintf(stderr, "mapped load failed: %s\n", s.message().c_str());
    return 1;
  }
  const auto [mmap_fq_seconds, mmap_fq_results] =
      FirstQuery(*mapped, windows[0]);
  const auto [mapped_seconds, mapped_results] = RunWorkload(*mapped, windows);
  tlp::bench::PrintQueryStatsJson("snapshot_load_mmap",
                                  mmap_fq_seconds + mapped_seconds);
  mapped.reset();

  if (owned_results != mapped_results || load_fq_results != mmap_fq_results ||
      fq_results != load_fq_results) {
    std::fprintf(stderr,
                 "result mismatch: build=%zu owned=%zu mapped=%zu\n",
                 fq_results, owned_results, mapped_results);
    return 1;
  }

  const double build_ready = build_seconds + build_fq_seconds;
  const double mmap_ready = mmap_seconds + mmap_fq_seconds;
  std::printf(
      "TLP_SNAPSHOT {\"n\": %zu, \"queries\": %zu, \"index_bytes\": %zu, "
      "\"build_seconds\": %.6f, \"save_seconds\": %.6f, "
      "\"load_seconds\": %.6f, \"mmap_seconds\": %.6f, "
      "\"build_first_query_seconds\": %.6f, "
      "\"load_first_query_seconds\": %.6f, "
      "\"mmap_first_query_seconds\": %.6f, "
      "\"mmap_cold_start_speedup\": %.2f}\n",
      n, query_count, index_bytes, build_seconds, save_seconds, load_seconds,
      mmap_seconds, build_fq_seconds, load_fq_seconds, mmap_fq_seconds,
      mmap_ready > 0 ? build_ready / mmap_ready : 0.0);

  if (path_env == nullptr) std::remove(path.c_str());
  return 0;
}
