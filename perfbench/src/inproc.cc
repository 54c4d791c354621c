// In-process subcommands of perfbench_tool: they load the same inputs the
// server serves and call the library directly.
//
//   check   served reply samples vs EvaluateQuery on the snapshot
//   digest  expected live count + digest of base data plus acknowledged
//           inserts (compared with `tlp_snapshot wal-replay`)
//   trace   times each layer's public entry points on the request stream
//
// The traced replay records one span per call, keyed by the request's
// stream index: net.request (parse + eval + encode), its children
// net.parse (ParseQuery), net.eval (EvaluateQuery) and net.encode
// (EncodeOkReply + EncodeFrame), and core.<kind>, the core call
// EvaluateQuery makes, timed as a separate call with the same arguments
// (a span inside EvaluateQuery would need code in the server's own
// sources). net.eval's self time is its span minus its core.<kind> child.
//
// Two calls on the same query must not run back to back: the second would
// find the tiles and rows the first just touched in cache. So the replay
// goes in blocks of requests, with one pass per call kind over a block, and
// the pass that goes first alternates from block to block.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/query_stats.h"
#include "concurrency/versioned_grid.h"
#include "core/diversified_knn.h"
#include "core/skyline.h"
#include "core/two_layer_grid.h"
#include "grid/grid_layout.h"
#include "io/dataset_io.h"
#include "net/query_eval.h"
#include "net/query_lang.h"
#include "net/wire.h"
#include "persist/open_snapshot.h"
#include "util.h"
#include "wal/durable_log.h"

namespace perfbench {
namespace {

using tlp::net::Query;

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_tool: %s\n", what.c_str());
  return 1;
}

bool Parse(const std::string& text, Query* q) {
  tlp::net::ParseError err;
  return tlp::net::ParseQuery(text, q, &err);
}

/// Opens a 2-layer snapshot (owned copy, as tlp_serve loads it).
int OpenGrid(const std::string& path,
             std::unique_ptr<tlp::PersistentIndex>* owner,
             const tlp::TwoLayerGrid** grid) {
  if (const tlp::Status s = tlp::OpenSnapshot(path, false, owner); !s.ok()) {
    return Fail("cannot open " + path + ": " + s.message());
  }
  *grid = dynamic_cast<const tlp::TwoLayerGrid*>(owner->get());
  return *grid == nullptr ? Fail(path + " is not a 2layer snapshot") : 0;
}

std::string Expected(const tlp::TwoLayerGrid& grid, const Query& q) {
  tlp::net::EvalResult result;
  if (!tlp::net::EvaluateQuery(grid, q, &result).ok()) return "ERR";
  return tlp::net::EncodeOkReply(result.rows, result.stats_json);
}

/// Rows of an OK payload whose leading id is below `limit`.
std::vector<std::string> BaseRows(const std::string& payload,
                                  std::uint64_t limit) {
  std::vector<std::string> rows;
  std::size_t pos = payload.find('\n');
  while (pos != std::string::npos) {
    const std::size_t next = payload.find('\n', pos + 1);
    std::string row = payload.substr(pos + 1, next == std::string::npos
                                                  ? std::string::npos
                                                  : next - pos - 1);
    if (std::stoull(row) < limit) rows.push_back(std::move(row));
    pos = next;
  }
  return rows;
}

/// The core call EvaluateQuery(grid, q) makes, with the same arguments.
void CoreCall(const tlp::TwoLayerGrid& grid, const Query& q,
              const tlp::EntryPredicate& keep) {
  switch (q.kind) {
    case tlp::net::QueryKind::kWindow: {
      if (q.box.IsEmpty()) return;
      if (q.where == nullptr) {
        std::vector<tlp::ObjectId> ids;
        grid.WindowQuery(q.box, &ids);
      } else {
        std::vector<tlp::Candidate> candidates;
        grid.WindowCandidates(q.box, &candidates);
      }
      return;
    }
    case tlp::net::QueryKind::kDisk: {
      std::vector<tlp::BoxEntry> entries;
      grid.DiskQueryEntries(q.point, q.radius, &entries);
      return;
    }
    case tlp::net::QueryKind::kKnn:
      (void)tlp::KnnEntries(grid, q.point, static_cast<std::size_t>(q.k), keep);
      return;
    case tlp::net::QueryKind::kSkyline:
      (void)tlp::SkylineQuery(grid, q.point, q.has_region ? &q.box : nullptr,
                              keep);
      return;
    case tlp::net::QueryKind::kDivKnn: {
      tlp::DivKnnOptions opts;
      opts.k = static_cast<std::size_t>(q.k);
      if (q.has_fetch) opts.fetch = static_cast<std::size_t>(q.fetch);
      if (q.has_lambda) opts.lambda = q.lambda;
      (void)tlp::DiversifiedKnnQuery(grid, q.point, opts, keep);
      return;
    }
    default:
      return;
  }
}

/// In-memory span log, written out when the replay ends.
class Spans {
 public:
  void Add(std::size_t req, const char* name, const char* parent,
           std::int64_t start, std::int64_t end) {
    spans_.push_back({req, name, parent, start, end});
  }
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f, "%zu %s %s %lld %lld\n", s.req, s.name, s.parent,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::size_t req;
    const char* name;
    const char* parent;
    std::int64_t start, end;
  };
  std::vector<Span> spans_;
};

const char* CoreSpanName(char code) {
  switch (code) {
    case 'w': return "core.window";
    case 'd': return "core.disk";
    case 'k': return "core.knn";
    case 's': return "core.skyline";
    default: return "core.divknn";
  }
}

/// Requests per block of the alternating passes (see the file comment):
/// enough that a pass evicts most of what the previous one left in L1/L2.
constexpr std::size_t kBlock = 64;

/// Runs `first` then `second` over each block [begin, end) of [0, n) while
/// the budget lasts, swapping the two on every other block. Returns the
/// number of requests replayed, or -1 when a pass failed.
template <typename PassA, typename PassB>
long AlternatingPasses(std::size_t n, std::int64_t budget_end, const PassA& a,
                       const PassB& b) {
  std::size_t begin = 0;
  for (; begin < n && NowNs() < budget_end; begin += kBlock) {
    const std::size_t end = std::min(n, begin + kBlock);
    const bool a_first = (begin / kBlock) % 2 == 0;
    if (!(a_first ? a(begin, end) : b(begin, end))) return -1;
    if (!(a_first ? b(begin, end) : a(begin, end))) return -1;
  }
  return static_cast<long>(std::min(begin, n));
}

/// persist + net + core spans over a stream of reads.
int TraceReads(const Flags& flags, const std::vector<StreamItem>& stream) {
  const std::string snapshot = flags.Str("snapshot");
  std::vector<double> open_s;
  std::unique_ptr<tlp::PersistentIndex> owner;
  const tlp::TwoLayerGrid* grid = nullptr;
  for (int rep = 0; rep < 3; ++rep) {
    owner.reset();
    const std::int64_t t0 = NowNs();
    if (const int rc = OpenGrid(snapshot, &owner, &grid); rc != 0) return rc;
    open_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  std::sort(open_s.begin(), open_s.end());

  const std::size_t n =
      std::min(stream.size(), static_cast<std::size_t>(flags.Num("count")));
  std::vector<Query> queries(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (!Parse(stream[idx].statement, &queries[idx])) {
      return Fail("unparsable: " + stream[idx].statement);
    }
  }
  struct Counts {
    std::size_t rows = 0, frame_bytes = 0;
    tlp::QueryStats stats;
  };
  std::vector<Counts> counts(n);
  Spans spans;
  std::string failed;
  const auto eval_pass = [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      Query q;
      tlp::net::EvalResult result;
      const std::int64_t t0 = NowNs();
      (void)Parse(stream[idx].statement, &q);
      const std::int64_t t1 = NowNs();
      if (!tlp::net::EvaluateQuery(*grid, q, &result).ok()) {
        failed = "eval failed: " + stream[idx].statement;
        return false;
      }
      const std::int64_t t2 = NowNs();
      const std::string frame = tlp::net::EncodeFrame(
          tlp::net::EncodeOkReply(result.rows, result.stats_json));
      const std::int64_t t3 = NowNs();
      spans.Add(idx, "net.request", "-", t0, t3);
      spans.Add(idx, "net.parse", "net.request", t0, t1);
      spans.Add(idx, "net.eval", "net.request", t1, t2);
      spans.Add(idx, "net.encode", "net.request", t2, t3);
      counts[idx].rows = result.rows.size();
      counts[idx].frame_bytes = frame.size();
    }
    return true;
  };
  const auto core_pass = [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      const Query& q = queries[idx];
      const tlp::EntryPredicate keep = tlp::net::CompileWhere(q.where.get());
      tlp::ResetQueryStats();
      const std::int64_t c0 = NowNs();
      CoreCall(*grid, q, keep);
      const std::int64_t c1 = NowNs();
      counts[idx].stats = tlp::GetQueryStats();
      spans.Add(idx, CoreSpanName(stream[idx].code), "net.eval", c0, c1);
    }
    return true;
  };
  // The whole --count, so each kind's sample count is fixed.
  const long replayed = AlternatingPasses(n, INT64_MAX, eval_pass, core_pass);
  if (replayed < 0) return Fail(failed);

  std::FILE* f = std::fopen(flags.Str("counts").c_str(), "w");
  if (f == nullptr) return Fail("cannot write --counts");
  for (std::size_t idx = 0; idx < static_cast<std::size_t>(replayed); ++idx) {
    const Counts& c = counts[idx];
    std::fprintf(f, "%zu %c %zu %zu %llu %llu %llu\n", idx, stream[idx].code,
                 c.rows, c.frame_bytes,
                 static_cast<unsigned long long>(c.stats.scanned_total()),
                 static_cast<unsigned long long>(c.stats.tiles_visited),
                 static_cast<unsigned long long>(c.stats.posthoc_dedup));
  }
  std::fclose(f);
  if (!spans.Write(flags.Str("spans"))) return Fail("cannot write --spans");
  std::printf(
      "TRACE {\"persist.open_s\": %.6f, \"replayed\": %ld, "
      "\"stats_enabled\": %s}\n",
      open_s[open_s.size() / 2], replayed,
      tlp::kQueryStatsEnabled ? "true" : "false");
  return 0;
}

/// wal recovery, durable writes, Acquire, live vs read-only evaluation, on
/// a copy of a WAL directory and a stream of updates and reads.
int TraceLive(const Flags& flags, const std::vector<StreamItem>& stream) {
  const std::string dir = flags.Str("wal-dir");
  std::unique_ptr<tlp::DurableLog> wal;
  std::unique_ptr<tlp::TwoLayerGrid> recovered;
  std::uint64_t seq = 0;
  const std::int64_t r0 = NowNs();
  if (const tlp::Status s =
          tlp::DurableLog::Open(dir, tlp::DurableLog::Options{}, nullptr, &wal);
      !s.ok()) {
    return Fail("wal open: " + s.message());
  }
  if (const tlp::Status s = wal->RecoverIndex(&recovered, &seq); !s.ok()) {
    return Fail("wal recover: " + s.message());
  }
  const double recover_s = static_cast<double>(NowNs() - r0) * 1e-9;

  const tlp::TwoLayerGrid read_only(*recovered);
  tlp::ConcurrentTwoLayerGrid live(std::move(*recovered));
  live.AttachWal(wal.get());

  Spans spans;
  std::vector<std::size_t> update_idx, read_idx;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    (IsUpdateCode(stream[i].code) ? update_idx : read_idx).push_back(i);
  }
  std::size_t writes = 0;
  const auto write = [&](std::size_t n) -> int {
    for (std::size_t k = 0; k < n && writes < update_idx.size(); ++k) {
      const std::size_t idx = update_idx[writes++];
      Query q;
      if (!Parse(stream[idx].statement, &q)) return Fail("unparsable update");
      const auto id = static_cast<tlp::ObjectId>(q.id);
      bool applied = false;
      const std::int64_t t0 = NowNs();
      const tlp::Status s =
          q.kind == tlp::net::QueryKind::kInsert
              ? live.InsertDurable(tlp::BoxEntry{q.box, id}, &applied)
              : live.DeleteDurable(id, q.box, &applied);
      const std::int64_t t1 = NowNs();
      if (!s.ok()) return Fail("durable write: " + s.message());
      spans.Add(idx, "concurrency.write", "-", t0, t1);
    }
    return 0;
  };

  // Half a merge threshold of ops: the delta window every Acquire() then
  // materializes is populated and no merge has folded it yet.
  if (const int rc = write(512); rc != 0) return rc;
  const std::size_t acquires = 2000;
  for (std::size_t k = 0; k < acquires; ++k) {
    const std::int64_t t0 = NowNs();
    const tlp::ConcurrentTwoLayerGrid::Snapshot snap = live.Acquire();
    const std::int64_t t1 = NowNs();
    spans.Add(k, "concurrency.acquire", "-", t0, t1);
  }
  std::vector<Query> reads(read_idx.size());
  for (std::size_t k = 0; k < read_idx.size(); ++k) {
    if (!Parse(stream[read_idx[k]].statement, &reads[k])) {
      return Fail("unparsable read");
    }
  }
  const auto eval_pass = [&](auto& grid, const char* name) {
    return [&grid, &reads, &read_idx, &spans, name](std::size_t begin,
                                                    std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        tlp::net::EvalResult result;
        const std::int64_t t0 = NowNs();
        if (!tlp::net::EvaluateQuery(grid, reads[k], &result).ok()) {
          return false;
        }
        spans.Add(read_idx[k], name, "-", t0, NowNs());
      }
      return true;
    };
  };
  const std::int64_t reads_end =
      NowNs() + static_cast<std::int64_t>(flags.Num("seconds") * 1e9 / 2);
  if (AlternatingPasses(reads.size(), reads_end,
                        eval_pass(live, "concurrency.live_eval"),
                        eval_pass(read_only, "concurrency.readonly_eval")) <
      0) {
    return Fail("eval failed");
  }
  const std::uint64_t merges_before = live.merges_completed();
  const std::size_t writes_before = writes;
  const std::int64_t writes_end =
      NowNs() + static_cast<std::int64_t>(flags.Num("seconds") * 1e9 / 2);
  while (writes < update_idx.size() && NowNs() < writes_end) {
    if (const int rc = write(64); rc != 0) return rc;
  }
  const std::uint64_t merges = live.merges_completed() - merges_before;
  const std::size_t ops = writes - writes_before;
  if (!spans.Write(flags.Str("spans"))) return Fail("cannot write --spans");
  std::printf(
      "TRACE {\"wal.recover_s\": %.6f, \"concurrency.merges_per_kop\": %.6f, "
      "\"writes\": %zu, \"merges\": %llu}\n",
      recover_s,
      ops > 0 ? 1000.0 * static_cast<double>(merges) / static_cast<double>(ops)
              : 0.0,
      writes, static_cast<unsigned long long>(merges));
  return 0;
}

}  // namespace

int RunCheck(const Flags& flags) {
  std::unique_ptr<tlp::PersistentIndex> owner;
  const tlp::TwoLayerGrid* grid = nullptr;
  if (const int rc = OpenGrid(flags.Str("snapshot"), &owner, &grid); rc != 0) {
    return rc;
  }
  const std::vector<StreamItem> stream = ReadStream(flags.Str("stream"));
  // Live-update: only the base objects' rows of WINDOW/DISK replies are
  // comparable with the read-only answer.
  const auto base_below = static_cast<std::uint64_t>(flags.Num("base-below", 0));
  std::FILE* f = std::fopen(flags.Str("samples").c_str(), "rb");
  if (f == nullptr) return Fail("cannot read --samples");
  std::size_t checked = 0, mismatches = 0;
  std::size_t idx = 0, len = 0;
  while (std::fscanf(f, "%zu %zu", &idx, &len) == 2 && std::fgetc(f) == '\n') {
    std::string served(len, '\0');
    if (std::fread(served.data(), 1, len, f) != len) break;
    if (idx >= stream.size()) return Fail("sample index out of range");
    const StreamItem& item = stream[idx];
    Query q;
    if (!Parse(item.statement, &q)) return Fail("unparsable: " + item.statement);
    bool same = true;
    if (base_below == 0) {
      same = served == Expected(*grid, q);
    } else if (item.code == 'w' || item.code == 'd') {
      tlp::net::EvalResult result;
      same = tlp::net::EvaluateQuery(*grid, q, &result).ok() &&
             BaseRows(served, base_below) == result.rows;
    } else {
      continue;
    }
    ++checked;
    if (!same) {
      if (mismatches == 0) {
        std::fprintf(stderr, "perfbench_tool: reply mismatch for '%s'\n",
                     item.statement.c_str());
      }
      ++mismatches;
    }
  }
  std::fclose(f);
  std::printf("CHECK {\"checked\": %zu, \"mismatches\": %zu}\n", checked,
              mismatches);
  return 0;
}

int RunDigest(const Flags& flags) {
  std::vector<tlp::BoxEntry> entries;
  if (const tlp::Status s = tlp::LoadMbrCsv(flags.Str("csv"), &entries);
      !s.ok()) {
    return Fail(s.message());
  }
  std::FILE* f = std::fopen(flags.Str("extra").c_str(), "r");
  if (f == nullptr) return Fail("cannot read --extra");
  unsigned long long id = 0;
  tlp::Box b;
  while (std::fscanf(f, "%llu %lf %lf %lf %lf", &id, &b.xl, &b.yl, &b.xu,
                     &b.yu) == 5) {
    entries.push_back(tlp::BoxEntry{b, static_cast<tlp::ObjectId>(id)});
  }
  std::fclose(f);
  tlp::Box domain = entries.front().box;
  for (const tlp::BoxEntry& e : entries) {
    domain.xl = std::min(domain.xl, e.box.xl);
    domain.yl = std::min(domain.yl, e.box.yl);
    domain.xu = std::max(domain.xu, e.box.xu);
    domain.yu = std::max(domain.yu, e.box.yu);
  }
  tlp::TwoLayerGrid grid(tlp::GridLayout(domain, 64, 64));
  grid.Build(entries);
  std::printf("DIGEST {\"live_objects\": %zu, \"live_digest\": %lu}\n",
              tlp::LiveObjectCount(grid),
              static_cast<unsigned long>(tlp::LiveSetDigest(grid)));
  return 0;
}

int RunTrace(const Flags& flags) {
  const std::vector<StreamItem> stream = ReadStream(flags.Str("stream"));
  return flags.Str("replay") == "live" ? TraceLive(flags, stream)
                                       : TraceReads(flags, stream);
}

}  // namespace perfbench
