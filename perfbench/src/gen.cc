// `perfbench_tool gen`: the workload's inputs, a pure function of
// (workload, --data-seed, --seed, sizes). --data-seed draws the dataset,
// --seed the request stream. Writes into --out:
//
//   data.csv    the MBRs as `xl,yl,xu,yu` lines (the io layer's CSV; ids
//               are the line numbers), which tlp_snapshot turns into the
//               snapshot the server loads
//   stream.txt  the request stream, one "<code>\t<statement>" per line;
//               request i goes to connection i % conns
//   prep.txt    the updates that seed a WAL directory (--prep lines)
//   trace.txt   the traced run's reads (--trace lines): the five read
//               kinds in turn, each the stream's next read of that kind,
//               or, for a kind the workload does not serve, a probe drawn
//               with mixed-read's recipe
//   live.txt    (read-only workloads, --live lines) the traced run's
//               in-process concurrency and wal replay on this data: half
//               durable INSERT/DELETE, half the stream's reads in order
//
// Query centres are the centres of data objects drawn with the seed
// (paper §VII), so clustered data gets queries where its objects are.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "datagen/tiger_like.h"
#include "util.h"

namespace perfbench {
namespace {

/// Benchmark-owned object ids: far above the data's 0..n-1, one disjoint
/// range per (phase, connection).
constexpr std::uint64_t kPrepIdBase = 100'000'000;
constexpr std::uint64_t kRunIdBase = 200'000'000;
constexpr std::uint64_t kIdsPerConn = 10'000'000;
/// A connection deletes the object it inserted this many inserts earlier.
constexpr std::uint64_t kDeleteLag = 32;
/// The read kinds' stream codes (perfbench/src/util.h).
constexpr char kReadKinds[] = "wdksv";

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

class StreamWriter {
 public:
  /// `seed` draws the stream; `box_seed` the boxes of inserted objects.
  StreamWriter(const std::vector<tlp::BoxEntry>& data, std::uint64_t seed,
               std::uint64_t box_seed)
      : data_(data), rng_(seed), box_seed_(box_seed) {
    domain_ = data.front().box;
    std::vector<double> areas;
    areas.reserve(data.size());
    for (const tlp::BoxEntry& e : data) {
      domain_.xl = std::min(domain_.xl, e.box.xl);
      domain_.yl = std::min(domain_.yl, e.box.yl);
      domain_.xu = std::max(domain_.xu, e.box.xu);
      domain_.yu = std::max(domain_.yu, e.box.yu);
      areas.push_back(e.box.area());
    }
    const auto mid = static_cast<std::ptrdiff_t>(areas.size() / 2);
    std::nth_element(areas.begin(), areas.begin() + mid, areas.end());
    median_area_ = areas[static_cast<std::size_t>(mid)];
  }

  tlp::Rng& rng() { return rng_; }

  /// Centre of a data object drawn with the seed.
  tlp::Point Centre() {
    return data_[rng_.NextBelow(data_.size())].box.center();
  }

  /// Area as a fraction of the data domain, log-uniform in [lo, hi].
  double Area(double lo, double hi) {
    const double rel = std::exp(rng_.Uniform(std::log(lo), std::log(hi)));
    return rel * domain_.area();
  }

  std::string Window(double lo, double hi) {
    const tlp::Point c = Centre();
    const double half = std::sqrt(Area(lo, hi)) / 2;
    return "SELECT WINDOW " + Fmt(c.x - half) + " " + Fmt(c.y - half) + " " +
           Fmt(c.x + half) + " " + Fmt(c.y + half);
  }
  std::string Disk(double lo, double hi) {
    const tlp::Point c = Centre();
    const double r = std::sqrt(Area(lo, hi) / 3.141592653589793);
    return "SELECT DISK " + Fmt(c.x) + " " + Fmt(c.y) + " " + Fmt(r);
  }
  std::string Knn(int k) {
    const tlp::Point c = Centre();
    return "SELECT KNN " + Fmt(c.x) + " " + Fmt(c.y) + " " +
           std::to_string(k);
  }
  std::string Skyline() {
    const tlp::Point c = Centre();
    return "SELECT SKYLINE " + Fmt(c.x) + " " + Fmt(c.y);
  }
  std::string DivKnn(int k) {
    const tlp::Point c = Centre();
    return "SELECT DIVKNN " + Fmt(c.x) + " " + Fmt(c.y) + " " +
           std::to_string(k);
  }
  /// A WHERE clause that keeps about half of the objects.
  std::string Where() const { return " WHERE AREA >= " + Fmt(median_area_); }

  /// The box of benchmark-owned object `id`: a data object's box, moved a
  /// little, so inserts land where the data is.
  tlp::Box UpdateBox(std::uint64_t id) {
    tlp::Rng r(id * 0x9E3779B97F4A7C15ULL ^ box_seed_);
    const tlp::Box b = data_[r.NextBelow(data_.size())].box;
    const double dx = r.Uniform(-1, 1) * b.width();
    const double dy = r.Uniform(-1, 1) * b.height();
    tlp::Box out{b.xl + dx, b.yl + dy, b.xu + dx, b.yu + dy};
    out.xl = std::max(out.xl, domain_.xl);
    out.yl = std::max(out.yl, domain_.yl);
    out.xu = std::min(out.xu, domain_.xu);
    out.yu = std::min(out.yu, domain_.yu);
    return out;
  }

 private:
  const std::vector<tlp::BoxEntry>& data_;
  tlp::Rng rng_;
  tlp::Box domain_;
  double median_area_ = 0;
  std::uint64_t box_seed_;
};

/// Per-connection update sequence: inserts of fresh ids interleaved with
/// deletes of the id inserted kDeleteLag inserts earlier (or, before that,
/// of an id never inserted). The expected replies are not precomputed: the
/// run.py checks them against its own sequential model.
class UpdateSequence {
 public:
  UpdateSequence(std::uint64_t id_base, StreamWriter* w)
      : id_base_(id_base), w_(w) {}

  std::string Next() {
    const std::uint64_t u = count_++;
    std::uint64_t id = 0;
    const char* verb = "INSERT";
    if (u % 2 == 0) {
      id = id_base_ + u / 2;
    } else {
      verb = "DELETE";
      const std::uint64_t j = (u - 1) / 2;
      // Before the lag fills, delete an id from the far end of the range:
      // never inserted, so the model expects "0".
      id = j >= kDeleteLag ? id_base_ + j - kDeleteLag
                           : id_base_ + kIdsPerConn - 1 - j;
    }
    const tlp::Box b = w_->UpdateBox(id);
    return std::string(verb) + " " + std::to_string(id) + " " + Fmt(b.xl) +
           " " + Fmt(b.yl) + " " + Fmt(b.xu) + " " + Fmt(b.yu);
  }

 private:
  std::uint64_t id_base_;
  StreamWriter* w_;
  std::uint64_t count_ = 0;
};

/// The io layer's MBR CSV, with shortest round-trip numbers: LoadMbrCsv
/// reads back the exact doubles, and writing is several times faster than
/// printf-style formatting.
bool WriteCsv(const std::string& path,
              const std::vector<tlp::BoxEntry>& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string text;
  char buf[32];
  for (const tlp::BoxEntry& e : data) {
    const double v[4] = {e.box.xl, e.box.yl, e.box.xu, e.box.yu};
    for (int k = 0; k < 4; ++k) {
      const auto res = std::to_chars(buf, buf + sizeof buf, v[k]);
      text.append(buf, res.ptr);
      text.push_back(k < 3 ? ',' : '\n');
    }
    if (text.size() > (1u << 20)) {
      std::fwrite(text.data(), 1, text.size(), f);
      text.clear();
    }
  }
  std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0;
}

/// One read of `kind` drawn with mixed-read's recipe (WHERE is the
/// caller's).
std::string MixedRead(StreamWriter& w, char kind) {
  switch (kind) {
    case 'w': return "w\t" + w.Window(1e-5, 1e-4);
    case 'd': return "d\t" + w.Disk(1e-5, 1e-4);
    case 'k': return "k\t" + w.Knn(10);
    case 's': return "s\t" + w.Skyline();
    default: return "v\t" + w.DivKnn(8);
  }
}

bool WriteLines(const std::string& path, const std::vector<std::string>& v) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const std::string& line : v) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

}  // namespace

int RunGen(const Flags& flags) {
  const std::string workload = flags.Str("workload");
  const auto seed = static_cast<std::uint64_t>(flags.Num("seed"));
  const auto data_seed = static_cast<std::uint64_t>(flags.Num("data-seed"));
  const auto n = static_cast<std::size_t>(flags.Num("n"));
  const auto requests = static_cast<std::size_t>(flags.Num("requests"));
  const auto conns = static_cast<std::size_t>(flags.Num("conns"));
  const auto prep = static_cast<std::size_t>(flags.Num("prep", 0));
  const auto trace = static_cast<std::size_t>(flags.Num("trace", 0));
  const auto live = static_cast<std::size_t>(flags.Num("live", 0));
  const std::string out = flags.Str("out");

  std::vector<tlp::BoxEntry> data;
  if (workload == "range-scan") {
    tlp::SyntheticConfig config;
    config.cardinality = n;
    config.seed = data_seed;
    data = tlp::GenerateSyntheticRects(config);
  } else if (workload == "mixed-read" || workload == "live-update") {
    tlp::TigerConfig config;
    config.flavor = tlp::TigerFlavor::kRoads;
    config.cardinality = n;
    config.seed = data_seed;
    data = tlp::GenerateTigerLikeEntries(config);
  } else {
    std::fprintf(stderr, "perfbench_tool: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  if (!WriteCsv(out + "/data.csv", data)) {
    std::fprintf(stderr, "perfbench_tool: cannot write %s/data.csv\n",
                 out.c_str());
    return 1;
  }

  StreamWriter w(data, seed ^ 0x5DEECE66DULL, seed);
  std::vector<std::string> lines;
  lines.reserve(requests);
  std::vector<UpdateSequence> run_updates;
  for (std::size_t c = 0; c < conns; ++c) {
    run_updates.emplace_back(kRunIdBase + c * kIdsPerConn, &w);
  }
  for (std::size_t i = 0; i < requests; ++i) {
    std::string line;
    if (workload == "mixed-read") {
      // All five read kinds in equal shares; WHERE on a third of them.
      const char kind = kReadKinds[w.rng().NextBelow(5)];
      const bool where = w.rng().NextBelow(3) == 0;
      line = MixedRead(w, kind);
      if (where) line += w.Where();
    } else if (workload == "range-scan") {
      // Paper Fig. 9 selectivities: 0.001% .. 0.1% of the domain.
      line = w.rng().NextBelow(2) == 0 ? "w\t" + w.Window(1e-5, 1e-3)
                                       : "d\t" + w.Disk(1e-5, 1e-3);
    } else {
      if (w.rng().NextBelow(2) == 0) {
        const std::string stmt = run_updates[i % conns].Next();
        line = (stmt[0] == 'I' ? "i\t" : "x\t") + stmt;
      } else {
        switch (w.rng().NextBelow(3)) {
          case 0: line = "w\t" + w.Window(1e-5, 1e-4); break;
          case 1: line = "d\t" + w.Disk(1e-5, 1e-4); break;
          default: line = "k\t" + w.Knn(10); break;
        }
      }
    }
    lines.push_back(std::move(line));
  }
  if (!WriteLines(out + "/stream.txt", lines)) return 1;

  if (trace > 0) {
    std::vector<std::string> trace_lines;
    std::size_t next[5] = {0, 0, 0, 0, 0};  // per kind, position in lines
    for (std::size_t i = 0; i < trace; ++i) {
      const char kind = kReadKinds[i % 5];
      std::size_t& pos = next[i % 5];
      while (pos < lines.size() && lines[pos][0] != kind) ++pos;
      if (pos < lines.size()) {
        trace_lines.push_back(lines[pos++]);
        continue;
      }
      std::string line = MixedRead(w, kind);
      if (w.rng().NextBelow(3) == 0) line += w.Where();
      trace_lines.push_back(std::move(line));
    }
    if (!WriteLines(out + "/trace.txt", trace_lines)) return 1;
  }

  if (live > 0 && workload != "live-update") {
    std::vector<std::string> live_lines;
    std::size_t read = 0;
    for (std::size_t i = 0; i < live; ++i) {
      if (w.rng().NextBelow(2) == 0) {
        const std::string stmt = run_updates[i % conns].Next();
        live_lines.push_back((stmt[0] == 'I' ? "i\t" : "x\t") + stmt);
      } else {
        live_lines.push_back(lines[read++ % lines.size()]);
      }
    }
    if (!WriteLines(out + "/live.txt", live_lines)) return 1;
  }

  if (prep > 0) {
    std::vector<UpdateSequence> prep_updates;
    for (std::size_t c = 0; c < conns; ++c) {
      prep_updates.emplace_back(kPrepIdBase + c * kIdsPerConn, &w);
    }
    std::vector<std::string> prep_lines;
    for (std::size_t i = 0; i < prep; ++i) {
      const std::string stmt = prep_updates[i % conns].Next();
      prep_lines.push_back((stmt[0] == 'I' ? "i\t" : "x\t") + stmt);
    }
    if (!WriteLines(out + "/prep.txt", prep_lines)) return 1;
  }
  std::printf("gen: workload=%s n=%zu requests=%zu prep=%zu\n",
              workload.c_str(), data.size(), lines.size(), prep);
  return 0;
}

}  // namespace perfbench
