// `perfbench_tool load`: drives a running tlp_serve from one thread over
// --conns TCP connections. Request i of the stream belongs to connection
// i % conns; each connection consumes its share in order across phases,
// so the updates a connection sends are a prefix of its own sequence
// (what run.py's update model checks).
//
// --mode=run runs three phases back to back:
//   W  warm-up: closed loop for --warm-seconds (recorded, not measured)
//   O  open loop: request j (over all connections) is due at
//      t0 + j / --rate and is sent at its due time whether or not earlier
//      replies have arrived; its latency runs from the due time, so a
//      stall is charged to every request it delays
//   C  closed loop: every connection keeps one request outstanding for
//      --closed-warm + --closed-seconds; completions are counted only in
//      the window after the warm-up, while every connection is still
//      sending
// --mode=prep sends the whole stream once, closed loop (phase P).
// --mode=unloaded sends --count requests on one connection, one at a time
// (phase U): the unloaded round trip.
// --start-cursor=K starts every connection at the K-th request of its
// share, so a second run continues a stream instead of repeating it.
//
// While any request is outstanding the thread spins over its sockets
// instead of sleeping, and it spins through the last stretch before a due
// time: a sleeping client on a virtual machine adds tens of microseconds
// of its own wake-up latency to every round trip, and that noise would
// swamp the server's share. One thread spins, so the client takes at most
// one core from the server.
//
// Output (--out): a header line, then one record per request:
//   phase conn idx code status due_ns sent_ns recv_ns decoded_ns bytes row
// status: 0 OK, 1 ERR, 2 BUSY, 3 timeout, 4 connection failure. `row` is
// the single result row of an update reply ("1"/"0"), "-" otherwise.
// decoded_ns is recorded only with --trace=1. Reply payloads of every
// --sample-every-th open-loop read are written to --samples for the
// correctness check. Everything is kept in memory and written at the end.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {
namespace {

enum Status : int { kOk = 0, kErr = 1, kBusy = 2, kTimeout = 3, kBroken = 4 };

struct Record {
  char phase = 'O';
  int conn = 0;
  std::size_t idx = 0;
  char code = 'w';
  int status = kOk;
  std::int64_t due = 0, sent = 0, recv = 0, decoded = 0;
  std::size_t bytes = 0;
  char row = '-';
};

struct Config {
  std::uint16_t port = 0;
  std::size_t conns = 1;
  double rate = 0;
  double warm_seconds = 0, open_seconds = 0;
  double closed_warm = 0, closed_seconds = 0;
  std::int64_t timeout_ns = 0;
  std::size_t sample_every = 0;
  bool wrap = false;
  bool trace = false;
};

/// Request-to-reply limit past which a connection is given up on.
constexpr std::int64_t kHardTimeoutNs = 10'000'000'000;
/// Sleeping ends this long before a due time; the rest is spun.
constexpr std::int64_t kSpinNs = 200'000;

/// One nonblocking client connection with its own frame reassembly (the
/// client does not use the server's wire code, so a change there is
/// measured on the server side only).
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  bool Send(const std::string& statement) {
    std::string frame(4, '\0');
    const auto len = static_cast<std::uint32_t>(statement.size());
    for (std::size_t b = 0; b < 4; ++b) {
      frame[b] = static_cast<char>((len >> (8 * b)) & 0xff);
    }
    frame += statement;
    std::size_t off = 0;
    while (off < frame.size()) {
      const long n = ::send(fd_, frame.data() + off, frame.size() - off,
                            MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
      } else {
        return false;
      }
    }
    return true;
  }

  /// Reads whatever has arrived without blocking; false when the
  /// connection failed or closed.
  bool Drain() {
    char buf[65536];
    while (true) {
      const long n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        buf_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      return n < 0 && (errno == EAGAIN || errno == EINTR);
    }
  }

  /// Pops the next complete reply payload into *payload.
  bool NextReply(std::string* payload) {
    if (buf_.size() - head_ < 4) return false;
    std::uint32_t len = 0;
    for (std::size_t b = 4; b-- > 0;) {
      len = (len << 8) | static_cast<unsigned char>(buf_[head_ + b]);
    }
    if (buf_.size() - head_ < 4 + std::size_t{len}) return false;
    payload->assign(buf_, head_ + 4, len);
    head_ += 4 + len;
    if (head_ > (1u << 16) && head_ * 2 > buf_.size()) {
      buf_.erase(0, head_);
      head_ = 0;
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t head_ = 0;
};

int Classify(const std::string& payload) {
  if (payload.rfind("OK ", 0) == 0) return kOk;
  if (payload == "BUSY") return kBusy;
  return kErr;
}

/// One connection's state.
struct Client {
  int id = 0;
  Conn conn;
  std::size_t cursor = 0;  // position in this connection's share
  bool broken = false;
  std::deque<Record> outstanding;
  std::vector<Record> records;
  std::vector<std::pair<std::size_t, std::string>> samples;
};

void SleepUntil(std::int64_t ns) {
  const std::int64_t wait = ns - NowNs();
  if (wait <= 0) return;
  timespec ts{static_cast<time_t>(wait / 1'000'000'000),
              static_cast<long>(wait % 1'000'000'000)};
  ::nanosleep(&ts, nullptr);
}

class LoadGen {
 public:
  LoadGen(const Config& cfg, const std::vector<StreamItem>& stream,
          std::vector<std::unique_ptr<Client>>* clients)
      : cfg_(cfg), stream_(stream), clients_(*clients) {}

  /// Every connection keeps one request outstanding; none is sent at or
  /// after `stop_ns` or past `max_requests` per connection.
  void ClosedLoop(char phase, std::int64_t stop_ns, std::size_t max_requests) {
    std::vector<std::size_t> sent(clients_.size(), 0);
    const auto next = [&](Client* c) {
      const auto k = static_cast<std::size_t>(c->id);
      if (sent[k] < max_requests && NowNs() < stop_ns &&
          Dispatch(c, phase, 0)) {
        ++sent[k];
      }
    };
    for (auto& c : clients_) next(c.get());
    while (AnyOutstanding()) Poll(next);
  }

  /// Request j over all connections is due at t0 + j / rate and goes to
  /// connection j % conns.
  void OpenLoop(std::int64_t t0, std::int64_t end) {
    const double gap_ns = 1e9 / cfg_.rate;
    const auto none = [](Client*) {};
    for (std::size_t j = 0;; ++j) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(static_cast<double>(j) * gap_ns);
      if (due >= end) break;
      while (NowNs() < due) {
        if (AnyOutstanding()) {
          Poll(none);
        } else {
          SleepUntil(due - kSpinNs);
          while (NowNs() < due) {
          }
        }
      }
      Dispatch(clients_[j % clients_.size()].get(), 'O', due);
    }
    const std::int64_t hard_end = end + kHardTimeoutNs;
    while (AnyOutstanding() && NowNs() < hard_end) Poll(none);
    for (auto& c : clients_) Abandon(c.get(), kTimeout);
  }

 private:
  /// Sends client c's next request; false when its share is exhausted (a
  /// non-wrapping stream) or its connection failed. Either way the
  /// connection sends nothing more, and an open-loop request that was due
  /// is recorded as failed.
  bool Dispatch(Client* c, char phase, std::int64_t due) {
    const std::size_t i =
        static_cast<std::size_t>(c->id) + c->cursor * cfg_.conns;
    Record r;
    r.phase = phase;
    r.conn = c->id;
    r.idx = i % stream_.size();
    r.code = stream_[r.idx].code;
    r.due = due;
    if (c->broken || (i >= stream_.size() && !cfg_.wrap)) {
      c->broken = true;
      if (phase == 'O') {
        r.status = kBroken;
        c->records.push_back(r);
      }
      return false;
    }
    r.sent = NowNs();
    ++c->cursor;
    c->outstanding.push_back(r);
    if (!c->conn.Send(stream_[r.idx].statement)) {
      Abandon(c, kBroken);
      return false;
    }
    return true;
  }

  /// Collects every reply that has arrived; `on_done` runs after each
  /// completion (the closed loop sends the connection's next request).
  template <typename OnDone>
  void Poll(const OnDone& on_done) {
    std::string payload;
    for (auto& cp : clients_) {
      Client* c = cp.get();
      if (c->outstanding.empty()) continue;
      if (!c->conn.Drain()) {
        Abandon(c, kBroken);
        continue;
      }
      while (!c->outstanding.empty() && c->conn.NextReply(&payload)) {
        Record r = c->outstanding.front();
        c->outstanding.pop_front();
        r.recv = NowNs();
        Finish(c, r, payload);
        on_done(c);
      }
      if (!c->outstanding.empty() &&
          NowNs() - c->outstanding.front().sent > kHardTimeoutNs) {
        Abandon(c, kTimeout);
      }
    }
  }

  bool AnyOutstanding() const {
    for (const auto& c : clients_) {
      if (!c->outstanding.empty()) return true;
    }
    return false;
  }

  void Finish(Client* c, Record r, const std::string& payload) {
    r.status = Classify(payload);
    r.bytes = payload.size();
    if (r.status == kOk && IsUpdateCode(r.code)) {
      r.row = payload == "OK 1\n1" ? '1' : payload == "OK 1\n0" ? '0' : '?';
    }
    if (r.status == kOk && r.phase == 'O' &&
        r.recv - r.due > cfg_.timeout_ns) {
      r.status = kTimeout;
    }
    if (cfg_.sample_every > 0 && r.phase == 'O' && r.status == kOk &&
        !IsUpdateCode(r.code) && r.idx % cfg_.sample_every == 0) {
      c->samples.emplace_back(r.idx, payload);
    }
    if (cfg_.trace) r.decoded = NowNs();
    c->records.push_back(r);
  }

  /// Gives up on a connection: its outstanding requests fail with
  /// `status` (a late reply would be matched to the wrong request).
  void Abandon(Client* c, int status) {
    for (Record r : c->outstanding) {
      r.status = status;
      c->records.push_back(r);
    }
    if (!c->outstanding.empty()) c->broken = true;
    c->outstanding.clear();
  }

  const Config& cfg_;
  const std::vector<StreamItem>& stream_;
  std::vector<std::unique_ptr<Client>>& clients_;
};

void WriteOutput(const std::string& out, const std::string& samples_path,
                 const std::string& header,
                 const std::vector<std::unique_ptr<Client>>& clients) {
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "%s\n", header.c_str());
  for (const auto& c : clients) {
    for (const Record& r : c->records) {
      std::fprintf(f, "%c %d %zu %c %d %lld %lld %lld %lld %zu %c\n", r.phase,
                   r.conn, r.idx, r.code, r.status,
                   static_cast<long long>(r.due),
                   static_cast<long long>(r.sent),
                   static_cast<long long>(r.recv),
                   static_cast<long long>(r.decoded), r.bytes, r.row);
    }
  }
  std::fclose(f);
  if (samples_path.empty()) return;
  std::FILE* s = std::fopen(samples_path.c_str(), "w");
  if (s == nullptr) return;
  for (const auto& c : clients) {
    for (const auto& [idx, payload] : c->samples) {
      std::fprintf(s, "%zu %zu\n", idx, payload.size());
      std::fwrite(payload.data(), 1, payload.size(), s);
    }
  }
  std::fclose(s);
}

}  // namespace

int RunLoad(const Flags& flags) {
  Config cfg;
  cfg.port = static_cast<std::uint16_t>(flags.Num("port"));
  cfg.conns = static_cast<std::size_t>(flags.Num("conns", 1));
  cfg.rate = flags.Num("rate", 0);
  cfg.warm_seconds = flags.Num("warm-seconds", 0);
  cfg.open_seconds = flags.Num("open-seconds", 0);
  cfg.closed_warm = flags.Num("closed-warm", 0);
  cfg.closed_seconds = flags.Num("closed-seconds", 0);
  cfg.timeout_ns =
      static_cast<std::int64_t>(flags.Num("timeout-ms", 1000) * 1e6);
  cfg.sample_every = static_cast<std::size_t>(flags.Num("sample-every", 0));
  cfg.wrap = flags.Num("wrap", 0) != 0;
  cfg.trace = flags.Num("trace", 0) != 0;
  const std::string mode = flags.Str("mode");
  if (mode == "unloaded") cfg.conns = 1;
  const std::vector<StreamItem> stream = ReadStream(flags.Str("stream"));
  if (stream.empty()) return 1;

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t k = 0; k < cfg.conns; ++k) {
    auto c = std::make_unique<Client>();
    c->id = static_cast<int>(k);
    c->cursor = static_cast<std::size_t>(flags.Num("start-cursor", 0));
    if (!c->conn.Connect(cfg.port)) {
      std::fprintf(stderr, "perfbench_tool: cannot connect to port %u\n",
                   cfg.port);
      return 1;
    }
    clients.push_back(std::move(c));
  }
  LoadGen gen(cfg, stream, &clients);

  char header[256];
  if (mode == "prep") {
    gen.ClosedLoop('P', INT64_MAX, SIZE_MAX);
    std::snprintf(header, sizeof header, "# mode=prep");
  } else if (mode == "unloaded") {
    gen.ClosedLoop('U', INT64_MAX,
                   static_cast<std::size_t>(flags.Num("count")));
    std::snprintf(header, sizeof header, "# mode=unloaded");
  } else if (mode == "run") {
    gen.ClosedLoop('W',
                   NowNs() + static_cast<std::int64_t>(cfg.warm_seconds * 1e9),
                   SIZE_MAX);
    const std::int64_t t0 = NowNs() + 2'000'000;
    const std::int64_t open_end =
        t0 + static_cast<std::int64_t>(cfg.open_seconds * 1e9);
    gen.OpenLoop(t0, open_end);
    const std::int64_t win0 =
        NowNs() + static_cast<std::int64_t>(cfg.closed_warm * 1e9);
    const std::int64_t win1 =
        win0 + static_cast<std::int64_t>(cfg.closed_seconds * 1e9);
    gen.ClosedLoop('C', win1, SIZE_MAX);
    std::snprintf(header, sizeof header,
                  "# mode=run open0=%lld open1=%lld win0=%lld win1=%lld "
                  "rate=%.6g conns=%zu",
                  static_cast<long long>(t0), static_cast<long long>(open_end),
                  static_cast<long long>(win0), static_cast<long long>(win1),
                  cfg.rate, cfg.conns);
  } else {
    std::fprintf(stderr, "perfbench_tool: unknown --mode=%s\n", mode.c_str());
    return 2;
  }
  WriteOutput(flags.Str("out"), flags.Str("samples", ""), header, clients);
  return 0;
}

}  // namespace perfbench
