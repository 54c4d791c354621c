// bench_serve — closed-loop latency/throughput benchmark for tlp_serve.
//
//   bench_serve --port=P [--host=127.0.0.1] [--connections=C]
//               [--queries-per-conn=Q] [--warmup=W] [--with-stats]
//
// One thread drives C concurrent connections with a nonblocking poll()
// loop; every connection keeps exactly one query outstanding (a closed
// loop: the next request is issued the moment the previous reply lands),
// so the measured latencies include the server-side queueing that C
// concurrent clients actually cause. The first W queries per connection
// warm caches and are discarded; the rest are recorded individually and
// reported as p50/p99/mean and aggregate throughput.
//
// The query mix cycles WINDOW → DISK → KNN → SKYLINE → DIVKNN with
// low-discrepancy parameters (deterministic, no RNG), so runs are
// reproducible and every query path in net/query_eval.cc gets traffic.
// BUSY replies are retried and counted separately (never timed); an ERR
// reply is a benchmark failure — the mix is well-formed by construction.
//
// --update-fraction=F replaces a deterministic F of the slots with
// INSERT/DELETE statements over a connection-private id range (requires a
// --live server), so the reported p50/p99 measure reads racing the
// concurrent writer path instead of an immutable index.
//
// --wal-stats fetches the server's WALSTATS counters after the batch and
// appends them to the trajectory (wal_appends / wal_fsync_batches /
// wal_bytes_logged), so a durability-cost regression — say fsync batching
// degrading to one fsync per op — shows up in bench_compare.py next to the
// latency it caused. Requires a --live server; counters are zero unless it
// also runs with --wal-dir.
//
// Results print as one TLP_BENCH_SERVE JSON line and, when TLP_BENCH_JSON
// is set, append to the trajectory document (bench_id "serve") as records
//   serve/mixed/c<C>/p50  (real_time_us = p50, items_per_second = qps)
//   serve/mixed/c<C>/p99  (real_time_us = p99)
// so tools/bench_compare.py can diff serving runs like any other bench.
//
// Exit status: 0 success, 1 connection/protocol/ERR failure, 2 usage.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "net/socket.h"
#include "net/wire.h"

namespace {

using tlp::net::FrameDecoder;
using tlp::net::Reply;
using tlp::net::UniqueFd;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 64;
  std::size_t queries_per_conn = 200;
  std::size_t warmup = 20;
  bool with_stats = false;
  double update_fraction = 0;  // of slots that are INSERT/DELETE
  bool wal_stats = false;      // fetch WALSTATS after the batch
};

int Usage() {
  std::fprintf(stderr,
               "usage: bench_serve --port=P [--host=A] [--connections=C]\n"
               "                   [--queries-per-conn=Q] [--warmup=W]\n"
               "                   [--with-stats] [--update-fraction=F]\n"
               "                   [--wal-stats]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eat = [&](const char* prefix, std::string* value) {
      const std::size_t len = std::strlen(prefix);
      if (arg.compare(0, len, prefix) != 0) return false;
      *value = arg.substr(len);
      return true;
    };
    try {
      std::string v;
      if (eat("--host=", &v)) {
        out->host = v;
      } else if (eat("--port=", &v)) {
        out->port = static_cast<std::uint16_t>(std::stoul(v));
      } else if (eat("--connections=", &v)) {
        out->connections = std::stoull(v);
      } else if (eat("--queries-per-conn=", &v)) {
        out->queries_per_conn = std::stoull(v);
      } else if (eat("--warmup=", &v)) {
        out->warmup = std::stoull(v);
      } else if (arg == "--with-stats") {
        out->with_stats = true;
      } else if (eat("--update-fraction=", &v)) {
        out->update_fraction = std::stod(v);
      } else if (arg == "--wal-stats") {
        out->wal_stats = true;
      } else {
        std::fprintf(stderr, "bench_serve: unknown option '%s'\n",
                     arg.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bench_serve: bad value in '%s'\n", arg.c_str());
      return false;
    }
  }
  if (out->port == 0) {
    std::fprintf(stderr, "bench_serve: --port is required\n");
    return false;
  }
  if (out->connections == 0 || out->queries_per_conn == 0) {
    std::fprintf(stderr, "bench_serve: --connections/--queries-per-conn "
                         "must be positive\n");
    return false;
  }
  if (out->warmup >= out->queries_per_conn) out->warmup = 0;
  if (out->update_fraction < 0 || out->update_fraction > 1) {
    std::fprintf(stderr,
                 "bench_serve: --update-fraction must be in [0, 1]\n");
    return false;
  }
  return true;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Low-discrepancy point in [0,1): golden-ratio rotations keep successive
/// queries spread over the domain without an RNG.
double Frac(std::size_t k, double step) {
  double v = step * static_cast<double>(k + 1);
  return v - static_cast<double>(static_cast<std::uint64_t>(v));
}

/// Whether slot k of connection `conn` is an update (INSERT/DELETE)
/// rather than a read. Deterministic so benchmark runs stay reproducible.
bool IsUpdateSlot(std::size_t conn, std::size_t k, double fraction) {
  if (fraction <= 0) return false;
  return Frac(conn * 7919 + k, 0.8191725133961645) < fraction;
}

/// The k-th query of connection `conn`: cycles through the five kinds with
/// parameters derived from (conn, k) so no two connections replay the same
/// stream. Every query is valid by construction. Update slots alternate
/// INSERT/DELETE over a connection-private cycling id range, so concurrent
/// connections never contend on the same object and the live set stays
/// bounded; a DELETE landing before its INSERT replies "0", which is still
/// an OK reply.
std::string QueryFor(std::size_t conn, std::size_t k, const Options& opt) {
  const std::size_t seq = conn * 7919 + k;  // decorrelate connections
  const double fx = Frac(seq, 0.6180339887498949);
  const double fy = Frac(seq, 0.7548776662466927);
  char buf[256];
  if (IsUpdateSlot(conn, k, opt.update_fraction)) {
    // The box is a function of (conn, pair), NOT of k: a DELETE must carry
    // the exact box its INSERT used, or the background merge cannot locate
    // the entry in the tile lists.
    const std::size_t pair = (k / 2) % 500;
    const std::size_t pair_seq = conn * 7919 + pair;
    const double px = Frac(pair_seq, 0.6180339887498949) * 0.99;
    const double py = Frac(pair_seq, 0.7548776662466927) * 0.99;
    const unsigned long long id = 10'000'000ULL + conn * 1000 + pair;
    std::snprintf(buf, sizeof(buf), "%s %llu %.6f %.6f %.6f %.6f",
                  k % 2 == 0 ? "INSERT" : "DELETE", id, px, py, px + 0.005,
                  py + 0.005);
    return std::string(buf);  // the grammar allows no WHERE/STATS suffix
  }
  switch (k % 5) {
    case 0: {
      const double side = 0.01 + 0.04 * Frac(seq, 0.5698402909980532);
      std::snprintf(buf, sizeof(buf), "SELECT WINDOW %.6f %.6f %.6f %.6f",
                    fx * (1.0 - side), fy * (1.0 - side),
                    fx * (1.0 - side) + side, fy * (1.0 - side) + side);
      break;
    }
    case 1:
      std::snprintf(buf, sizeof(buf), "SELECT DISK %.6f %.6f 0.02", fx, fy);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf), "SELECT KNN %.6f %.6f %u", fx, fy,
                    static_cast<unsigned>(4 + seq % 13));
      break;
    case 3:
      std::snprintf(buf, sizeof(buf), "SELECT SKYLINE %.6f %.6f", fx, fy);
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "SELECT DIVKNN %.6f %.6f %u LAMBDA 0.5", fx, fy,
                    static_cast<unsigned>(4 + seq % 9));
      break;
  }
  std::string q(buf);
  if (k % 3 == 0) q += " WHERE ID >= 0";  // exercise the WHERE filter path
  if (opt.with_stats) q += " WITH STATS";
  return q;
}

struct ConnState {
  UniqueFd fd;
  FrameDecoder decoder;
  std::string outbuf;       // unsent bytes of the current request frame
  std::size_t outpos = 0;
  std::size_t issued = 0;   // queries composed (== completed + awaiting)
  std::size_t completed = 0;
  bool awaiting = false;
  double t_send = 0;
  /// BUSY backoff: the retry frame is held until this instant (0 = none).
  /// Without it a shed closed loop just hammers the admission gate.
  double retry_at = 0;
  double backoff_s = 0;
  bool is_update = false;  // outstanding slot is INSERT/DELETE
};

struct Totals {
  std::vector<double> latencies_us;
  std::size_t ok = 0;
  std::size_t busy = 0;
  std::size_t rows = 0;
  std::size_t updates = 0;  // INSERT/DELETE slots completed
  std::size_t errors = 0;
  std::string first_error;
};

/// Starts the next query (or a BUSY retry of the current one) on `c`.
/// Retries are delayed by a doubling backoff; the main loop sends the
/// frame once `retry_at` passes.
void ComposeNext(ConnState* c, std::size_t conn_index, const Options& opt,
                 bool retry) {
  const std::size_t k = retry ? c->issued - 1 : c->issued;
  if (!retry) ++c->issued;
  c->outbuf = tlp::net::EncodeFrame(QueryFor(conn_index, k, opt));
  c->is_update = IsUpdateSlot(conn_index, k, opt.update_fraction);
  c->outpos = 0;
  c->awaiting = true;
  const double now = NowSeconds();
  if (retry) {
    // t_send keeps the first send: a shed request's latency includes its
    // BUSY round trips and backoff, not only the retry that succeeded.
    c->backoff_s =
        c->backoff_s == 0 ? 0.0005 : std::min(c->backoff_s * 2, 0.016);
    c->retry_at = now + c->backoff_s;
  } else {
    c->t_send = now;
  }
}

/// Drains as much of the pending request as the socket accepts.
/// Returns false when the connection broke.
bool FlushWrites(ConnState* c) {
  while (c->outpos < c->outbuf.size()) {
    const long n = ::write(c->fd.get(), c->outbuf.data() + c->outpos,
                           c->outbuf.size() - c->outpos);
    if (n > 0) {
      c->outpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// One synchronous WALSTATS round-trip on a fresh blocking connection;
/// fills `*out` with the server's `key value` rows. Used after the timed
/// batch, so the extra connection never perturbs the measurement.
bool FetchWalStats(const Options& opt,
                   std::vector<std::pair<std::string, double>>* out) {
  UniqueFd fd;
  if (tlp::Status s = tlp::net::ConnectTcp(opt.host, opt.port, &fd);
      !s.ok()) {
    std::fprintf(stderr, "bench_serve: wal-stats connect failed: %s\n",
                 s.message().c_str());
    return false;
  }
  if (tlp::Status s =
          tlp::net::WriteAll(fd.get(), tlp::net::EncodeFrame("WALSTATS"));
      !s.ok()) {
    std::fprintf(stderr, "bench_serve: wal-stats send failed: %s\n",
                 s.message().c_str());
    return false;
  }
  FrameDecoder decoder;
  std::string payload;
  char buf[4096];
  while (!decoder.Next(&payload)) {
    const long n = tlp::net::ReadSome(fd.get(), buf, sizeof(buf));
    if (n <= 0) {
      std::fprintf(stderr, "bench_serve: wal-stats reply truncated\n");
      return false;
    }
    decoder.Append(buf, static_cast<std::size_t>(n));
  }
  Reply reply;
  if (!ParseReply(payload, &reply) || reply.kind != Reply::Kind::kOk) {
    std::fprintf(stderr, "bench_serve: WALSTATS rejected (server not "
                         "--live?): %s\n",
                 payload.c_str());
    return false;
  }
  for (const std::string& row : reply.rows) {
    const std::size_t space = row.find(' ');
    if (space == std::string::npos) continue;
    try {
      out->emplace_back(row.substr(0, space),
                        std::stod(row.substr(space + 1)));
    } catch (const std::exception&) {
      // Non-numeric value: skip — the trajectory only takes numbers.
    }
  }
  return true;
}

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

int Run(const Options& opt) {
  std::vector<ConnState> conns(opt.connections);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (tlp::Status s =
            tlp::net::ConnectTcp(opt.host, opt.port, &conns[i].fd);
        !s.ok()) {
      std::fprintf(stderr, "bench_serve: connect %zu failed: %s\n", i,
                   s.message().c_str());
      return 1;
    }
    if (tlp::Status s = tlp::net::SetNonBlocking(conns[i].fd.get(), true);
        !s.ok()) {
      std::fprintf(stderr, "bench_serve: %s\n", s.message().c_str());
      return 1;
    }
  }

  Totals totals;
  totals.latencies_us.reserve(opt.connections *
                              (opt.queries_per_conn - opt.warmup));
  const double bench_start = NowSeconds();
  // The measured window opens once every connection is past its warmup,
  // so the qps window never includes a connection still warming up.
  std::size_t warmed = opt.warmup == 0 ? conns.size() : 0;
  double measure_start = warmed == conns.size() ? bench_start : 0;
  std::size_t measured_ops = 0;  // completions inside the measured window

  // Prime every connection with its first query.
  for (std::size_t i = 0; i < conns.size(); ++i) {
    ComposeNext(&conns[i], i, opt, /*retry=*/false);
    if (!FlushWrites(&conns[i])) {
      std::fprintf(stderr, "bench_serve: connection %zu broke on send\n", i);
      return 1;
    }
  }

  std::vector<pollfd> pfds;
  std::vector<std::size_t> pfd_conn;
  std::size_t live = conns.size();
  while (live > 0) {
    pfds.clear();
    pfd_conn.clear();
    const double now = NowSeconds();
    int timeout_ms = 30'000;  // stall guard when nothing is backing off
    for (std::size_t i = 0; i < conns.size(); ++i) {
      ConnState& c = conns[i];
      if (!c.fd.valid() || !c.awaiting) continue;
      if (c.retry_at > now) {  // still backing off; wake when it expires
        const double wait = (c.retry_at - now) * 1000;
        timeout_ms = std::min(timeout_ms, static_cast<int>(wait) + 1);
        continue;
      }
      if (c.retry_at != 0) {  // backoff elapsed: send the retry now
        c.retry_at = 0;
        if (!FlushWrites(&c)) {
          std::fprintf(stderr,
                       "bench_serve: connection %zu broke on retry\n", i);
          return 1;
        }
      }
      const bool writing = c.outpos < c.outbuf.size();
      const short events =
          static_cast<short>(POLLIN | (writing ? POLLOUT : 0));
      pfds.push_back(pollfd{c.fd.get(), events, 0});
      pfd_conn.push_back(i);
    }
    if (pfds.empty() && timeout_ms == 30'000) break;
    const int rc =
        ::poll(pfds.empty() ? nullptr : pfds.data(), pfds.size(),
               timeout_ms);
    if (rc == 0) {
      if (timeout_ms < 30'000) continue;  // a backoff expired, not a stall
      std::fprintf(stderr, "bench_serve: stalled 30s with %zu connections "
                           "outstanding\n", live);
      return 1;
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      std::perror("bench_serve: poll");
      return 1;
    }

    for (std::size_t p = 0; p < pfds.size(); ++p) {
      if (pfds[p].revents == 0) continue;
      const std::size_t i = pfd_conn[p];
      ConnState& c = conns[i];
      if ((pfds[p].revents & POLLOUT) != 0 && !FlushWrites(&c)) {
        std::fprintf(stderr, "bench_serve: connection %zu broke on send\n",
                     i);
        return 1;
      }
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

      char buf[8192];
      bool broke = false;
      for (;;) {
        const long n = tlp::net::ReadSome(c.fd.get(), buf, sizeof(buf));
        if (n > 0) {
          c.decoder.Append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == -1) break;  // would block; frames may still be buffered
        broke = true;        // EOF or error mid-benchmark
        break;
      }

      std::string payload;
      while (c.awaiting && c.decoder.Next(&payload)) {
        Reply reply;
        if (!ParseReply(payload, &reply)) {
          std::fprintf(stderr,
                       "bench_serve: connection %zu: malformed reply\n", i);
          return 1;
        }
        const double elapsed_us = (NowSeconds() - c.t_send) * 1e6;
        c.awaiting = false;
        if (reply.kind != Reply::Kind::kBusy) c.backoff_s = 0;
        if (reply.kind == Reply::Kind::kBusy) {
          ++totals.busy;  // retry the same query, untimed
          ComposeNext(&c, i, opt, /*retry=*/true);
        } else if (reply.kind == Reply::Kind::kErr) {
          ++totals.errors;
          if (totals.first_error.empty()) {
            totals.first_error = reply.error_class + " " +
                                 reply.error_message + " <- " +
                                 QueryFor(i, c.issued - 1, opt);
          }
          ++c.completed;
        } else {
          ++totals.ok;
          totals.rows += reply.rows.size();
          if (c.is_update) ++totals.updates;
          if (c.completed >= opt.warmup) {
            totals.latencies_us.push_back(elapsed_us);
          }
          if (measure_start > 0) ++measured_ops;
          ++c.completed;
        }
        if (!c.awaiting && c.completed == opt.warmup &&
            ++warmed == conns.size()) {
          measure_start = NowSeconds();
        }
        if (!c.awaiting && c.completed < opt.queries_per_conn) {
          ComposeNext(&c, i, opt, /*retry=*/false);
        }
      }
      // retry_at gate: a frame composed as a BUSY retry must sit out its
      // backoff window — flushing it here would defeat the whole backoff
      // and hammer the admission gate from inside the read path.
      if (c.awaiting && c.retry_at == 0 && c.outpos < c.outbuf.size() &&
          !FlushWrites(&c)) {
        broke = true;
      }
      if (c.decoder.overflowed()) {
        std::fprintf(stderr,
                     "bench_serve: connection %zu: oversized reply\n", i);
        return 1;
      }
      if (!c.awaiting && c.completed >= opt.queries_per_conn) {
        c.fd.reset();
        --live;
      } else if (broke) {
        std::fprintf(stderr,
                     "bench_serve: connection %zu closed mid-benchmark\n",
                     i);
        return 1;
      }
    }
  }
  const double bench_end = NowSeconds();

  if (totals.errors > 0) {
    std::fprintf(stderr, "bench_serve: %zu ERR replies; first: %s\n",
                 totals.errors, totals.first_error.c_str());
    return 1;
  }

  double mean = 0;
  for (const double v : totals.latencies_us) mean += v;
  if (!totals.latencies_us.empty()) {
    mean /= static_cast<double>(totals.latencies_us.size());
  }
  const double p50 = Percentile(&totals.latencies_us, 0.50);
  const double p99 = Percentile(&totals.latencies_us, 0.99);
  const double measured_seconds =
      measure_start > 0 ? bench_end - measure_start : 0;
  const double qps =
      measured_seconds > 0
          ? static_cast<double>(measured_ops) / measured_seconds
          : 0;

  std::printf(
      "TLP_BENCH_SERVE {\"connections\": %zu, \"queries\": %zu, "
      "\"measured\": %zu, \"busy_retries\": %zu, \"rows\": %zu, "
      "\"updates\": %zu, \"update_fraction\": %.3f, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f, \"mean_us\": %.1f, "
      "\"qps\": %.1f, \"wall_s\": %.3f}\n",
      opt.connections, totals.ok, totals.latencies_us.size(), totals.busy,
      totals.rows, totals.updates, opt.update_fraction, p50, p99, mean, qps,
      bench_end - bench_start);

  // Update runs get their own benchmark names so bench_compare.py diffs
  // read-only and mixed-write runs as distinct series. The shed count
  // rides along as its own record — a latency regression caused by the
  // server shedding harder is visible instead of silent.
  char name[64];
  if (opt.update_fraction > 0) {
    std::snprintf(name, sizeof(name), "serve/mixed-u%02d/c%zu",
                  static_cast<int>(opt.update_fraction * 100),
                  opt.connections);
  } else {
    std::snprintf(name, sizeof(name), "serve/mixed/c%zu", opt.connections);
  }
  std::vector<tlp::bench::BenchRecord> records;
  records.push_back({std::string(name) + "/p50", p50, qps});
  records.push_back({std::string(name) + "/p99", p99, 0});
  records.push_back({std::string(name) + "/busy_retries",
                     static_cast<double>(totals.busy), 0});

  if (opt.wal_stats) {
    std::vector<std::pair<std::string, double>> wal_rows;
    if (!FetchWalStats(opt, &wal_rows)) return 1;
    // Every WALSTATS row goes to stdout (tlp_wal_smoke.sh reads live_count
    // and friends there), but only the durability-cost trio rides in the
    // trajectory — the rest is liveness state, not costs, and would only
    // add noise to bench_compare.py.
    for (const auto& [key, value] : wal_rows) {
      std::printf("TLP_BENCH_SERVE_WAL {\"%s\": %.0f}\n", key.c_str(),
                  value);
      if (key == "appends" || key == "fsync_batches" ||
          key == "bytes_logged") {
        records.push_back({std::string(name) + "/wal_" + key, value, 0});
      }
    }
  }
  tlp::bench::AppendBenchTrajectory("serve", records);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  return Run(opt);
}
