#ifndef TLP_COMMON_QUERY_STATS_H_
#define TLP_COMMON_QUERY_STATS_H_

#include <cstdint>
#include <string>

namespace tlp {

/// Per-thread query-operation counters: the observability layer behind the
/// paper's counting claims. Table II promises fewer comparisons per
/// candidate, Lemmas 1-4 promise duplicate results avoided *by construction*
/// (never generated, so never eliminated), and §IV promises fewer secondary
/// partitions touched per tile; these counters make all three measurable.
///
/// The counters are always on. Hot paths account once per scanned segment
/// (a tile's class partition, a sorted-table range), never once per entry,
/// so the SIMD kernels and the counters run in the same build: a segment of
/// n entries scanned under a §IV-B comparison mask m adds n * popcount(m)
/// planned comparisons, whether the scan short-circuits per entry or
/// decides four entries at once. Query entry points count `queries` but
/// read no clock; `query_seconds` is filled by the callers that report it
/// (the WITH STATS reply, tlp_snapshot, the bench TLP_QUERY_STATS lines).
///
/// Threading model: one accumulator per thread (thread_local). Code that
/// fans a query batch out to worker threads (BatchExecutor) drains each
/// worker's accumulator and merges it into the caller's on Wait(), so the
/// caller observes batch-wide totals regardless of thread count.
struct QueryStats {
  /// Index-level queries executed (WindowQuery / DiskQuery /
  /// WindowCandidates / DiskQueryEntries / SkylineQuery / KnnEntries
  /// calls).
  std::uint64_t queries = 0;
  /// Non-empty tiles whose contents were examined.
  std::uint64_t tiles_visited = 0;
  /// Entries scanned per secondary partition, indexed by ObjectClass
  /// (0=A, 1=B, 2=C, 3=D). Only classed (two-layer) scans count here.
  std::uint64_t scanned_class[4] = {0, 0, 0, 0};
  /// Entries scanned in unclassified (flat 1-layer / quad-tree style) tiles.
  std::uint64_t scanned_flat = 0;
  /// Planned per-entry predicate evaluations: §IV-B endpoint comparisons
  /// (entries x comparisons in the segment's mask, Table II's count, even
  /// where a scalar loop short-circuits) and per-entry MBR distance tests.
  std::uint64_t comparisons = 0;
  /// Probes spent in sorted-table binary searches (2-layer+, §IV-C);
  /// one search over n entries accounts ceil(log2(n))+1 probes.
  std::uint64_t binary_search_probes = 0;
  /// Replica entries whose examination the two-layer scheme skipped
  /// outright (classes B/C/D excluded by Lemmas 1-2, plus §IV-E disk
  /// row-dedup rejections, plus KnnEntries' replicas outside the tile of
  /// their MBR point nearest q: skipped class segments and single entries
  /// its emit rule rejects). A 1-layer grid scans these and then discards
  /// the duplicates it generated; the two-layer grid never reports them.
  std::uint64_t duplicates_avoided = 0;
  /// Duplicate results that *were* generated and then eliminated after the
  /// fact (1-layer reference-point rejections and hash sort-unique drops).
  /// Zero for the two-layer indices by Lemmas 1-4 — asserted in tests.
  std::uint64_t posthoc_dedup = 0;
  /// Filter-step results emitted (candidate (id) outputs).
  std::uint64_t candidates = 0;
  /// Refinement candidates accepted by Lemma 5 secondary filtering without
  /// an exact geometry test (hits) vs. ones needing the exact test (misses).
  std::uint64_t refine_hits = 0;
  std::uint64_t refine_misses = 0;
  /// Wall-clock seconds, filled by the reporting caller (the core reads no
  /// clock); docs/BENCHMARKING.md says what each reporter measures.
  double query_seconds = 0;

  /// Total entries scanned across classed and flat partitions.
  std::uint64_t scanned_total() const {
    return scanned_class[0] + scanned_class[1] + scanned_class[2] +
           scanned_class[3] + scanned_flat;
  }

  /// Adds every counter of `other` into this accumulator.
  void MergeFrom(const QueryStats& other);

  /// One-line JSON object (schema documented in docs/BENCHMARKING.md).
  std::string ToJson(const std::string& label) const;
};

/// Always true: every build carries the counters. Kept so callers that
/// print the JSON "enabled" field need no change.
inline constexpr bool kQueryStatsEnabled = true;

/// The calling thread's accumulator.
inline QueryStats& CurrentQueryStats() {
  thread_local QueryStats stats;
  return stats;
}

/// Zeroes the calling thread's accumulator.
inline void ResetQueryStats() { CurrentQueryStats() = QueryStats{}; }

/// Snapshot of the calling thread's accumulator.
inline QueryStats GetQueryStats() { return CurrentQueryStats(); }

/// Adds `other` into the calling thread's accumulator (used to merge worker
/// stats back into a batch caller).
inline void MergeQueryStats(const QueryStats& other) {
  CurrentQueryStats().MergeFrom(other);
}

/// Moves the calling thread's accumulated stats into `*sink` and resets the
/// accumulator; run at the end of a worker task so a later task reusing the
/// same pool thread starts from zero.
inline void DrainQueryStatsInto(QueryStats* sink) {
  sink->MergeFrom(CurrentQueryStats());
  ResetQueryStats();
}

#define TLP_STATS_ADD(field, amount) \
  ((void)(::tlp::CurrentQueryStats().field += (amount)))
#define TLP_STATS_CLASS_SCANNED(class_index, amount) \
  ((void)(::tlp::CurrentQueryStats()                 \
              .scanned_class[static_cast<int>(class_index)] += (amount)))

}  // namespace tlp

#endif  // TLP_COMMON_QUERY_STATS_H_
