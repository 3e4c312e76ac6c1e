#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>

#include "src/net/server.h"

namespace wirebench {

namespace {

constexpr int kConns = 4;  // 0 publishes, 1..3 subscribe
constexpr size_t kReadChunk = 256 * 1024;
/// Saturation is measured in sub-windows of this length.
constexpr double kWindowS = 0.5;
/// A wait that sees no byte for this long fails the run.
constexpr double kStallTimeoutS = 20;
constexpr int64_t kStallNs = static_cast<int64_t>(kStallTimeoutS * 1e9);
/// Churn requests kept outstanding on connection 1.
constexpr size_t kChurnWindow = 64;

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Parses the unsigned integers of `text` separated by single spaces into
/// `out`; false unless exactly `n` numbers and nothing else.
bool ParseNumbers(std::string_view text, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      if (text.empty() || text.front() != ' ') return false;
      text.remove_prefix(1);
    }
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out[i]);
    if (ec != std::errc()) return false;
    text.remove_prefix(static_cast<size_t>(ptr - text.data()));
  }
  return text.empty();
}

struct Pending {
  enum Kind : uint8_t { kSub, kUnsub, kPub, kMetrics };
  Kind kind = kSub;
  uint32_t index = 0;
  uint32_t op = UINT32_MAX;
  bool churn = false;
};

struct Conn {
  int fd = -1;
  std::vector<char> in = std::vector<char>(2 * kReadChunk);
  size_t head = 0;
  size_t tail = 0;
  std::string out;
  size_t out_off = 0;
  std::deque<Pending> pending;
  /// A PUB is awaiting its reply. One at a time per connection keeps every
  /// server job to at most one event (see README.md, "Left out").
  bool publishing = false;
};

/// One server instance and the generator's connections to it.
class Session {
 public:
  Session(Workload* w, const RunOptions& options, RunResult* result)
      : w_(w), opt_(options), res_(result), chk_(w) {
    chk_.on_complete = [this](uint32_t e, int64_t t) { OnComplete(e, t); };
    if (opt_.record_log) chk_.log = &res_->log;
  }

  ~Session() { Stop(); }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool Start();
  /// Connects and loads the population; returns the load time in seconds
  /// (connect, then pipelined SUB until the last OK), or -1 on failure.
  double Load(const std::vector<std::string>& sub_lines,
              const std::vector<std::vector<uint32_t>>& subs_by_conn);
  void Warmup();
  void OpenLoop(double seconds);
  void Saturate(double seconds);
  void Drain();
  void ReadMetrics();
  void Stop();
  /// Ends the checker and folds its verdict into the result.
  void Finish();

  bool fatal() const { return fatal_; }

 private:
  void Fatal(const std::string& message) {
    if (!fatal_) chk_.Fail(message);
    fatal_ = true;
  }
  /// Flushes output, waits up to `timeout_ns` for input, handles it.
  void Pump(int64_t timeout_ns);
  /// Pumps until `done()` or no byte arrives for the stall timeout.
  template <typename Pred>
  void WaitFor(Pred done, const char* what);
  void Flush(int c);
  void Read(int c);
  void HandleLine(int c, std::string_view line, int64_t t);
  void OnComplete(uint32_t e, int64_t t);

  uint32_t AddOp(OpRecord::Kind kind, uint32_t index);
  void SendSub(int c, uint32_t s, bool churn);
  void SendUnsub(int c, uint32_t s, bool churn);
  /// Publishes the next event on a connection with no PUB outstanding;
  /// false when every publishing connection is busy.
  bool SendPub(int64_t scheduled);
  void ChurnTopUp();
  bool Idle() const;
  /// The saturation sub-window holding time `t`.
  size_t Window(int64_t t) const {
    const size_t w = static_cast<size_t>(static_cast<double>(t - sat_start_) /
                                         (kWindowS * 1e9));
    return std::min(w, win_events_.size() - 1);
  }

  Workload* w_;
  const RunOptions& opt_;
  RunResult* res_;
  Checker chk_;
  std::unique_ptr<vfps::PubSubServer> server_;
  std::thread loop_;
  Conn conns_[kConns];
  bool fatal_ = false;
  int64_t last_progress_ = 0;

  OpRecord::Phase phase_ = OpRecord::kLoad;
  /// Scheduled send time of open-loop events (0 for the others).
  std::vector<int64_t> scheduled_;
  std::vector<uint32_t> event_op_;  // trace only
  int64_t sat_start_ = kNever;
  int64_t sat_end_ = kNever;
  std::vector<double> send_lag_us_;

  /// Per saturation sub-window: events completed, deliveries, churn acks.
  std::vector<uint64_t> win_events_, win_deliveries_, win_churn_;

  bool churning_ = false;
  std::deque<uint32_t> churn_live_;
  size_t churn_outstanding_ = 0;
  /// UNSUB+SUB pairs earned by published events and not yet sent.
  size_t churn_credit_ = 0;
  size_t next_pub_conn_ = 0;
};

bool Session::Start() {
  // The server's threads get the default timer slack; only the generator
  // thread asks for precise wakeups, after they exist.
  prctl(PR_SET_TIMERSLACK, 0);
  vfps::ServerOptions so;
  so.store_events = false;
  server_ = std::make_unique<vfps::PubSubServer>(so);
  vfps::Status st = server_->Start();
  if (!st.ok()) {
    Fatal("server start failed: " + st.ToString());
    return false;
  }
  loop_ = std::thread([this] { server_->RunUntilStopped(); });
  prctl(PR_SET_TIMERSLACK, 1000);
  return true;
}

void Session::Stop() {
  if (server_) {
    server_->Stop();
    if (loop_.joinable()) loop_.join();
  }
  for (Conn& k : conns_) {
    if (k.fd >= 0) ::close(k.fd);
    k.fd = -1;
  }
  server_.reset();
}

void Session::Finish() {
  chk_.Finish();
  res_->deliveries += chk_.deliveries();
  res_->correct = res_->correct && chk_.ok() && !fatal_;
  for (const std::string& m : chk_.messages()) {
    if (res_->messages.size() < 20) res_->messages.push_back(m);
  }
}

uint32_t Session::AddOp(OpRecord::Kind kind, uint32_t index) {
  if (!opt_.trace) return UINT32_MAX;
  OpRecord op;
  op.kind = kind;
  op.phase = phase_;
  op.index = index;
  op.sent = NowNs();
  res_->ops.push_back(op);
  return static_cast<uint32_t>(res_->ops.size() - 1);
}

void Session::SendSub(int c, uint32_t s, bool churn) {
  Conn& k = conns_[c];
  k.out += "SUB ";
  k.out += w_->SubText(s);
  k.out += '\n';
  Pending p;
  p.kind = Pending::kSub;
  p.index = s;
  p.churn = churn;
  p.op = AddOp(OpRecord::kSub, s);
  k.pending.push_back(p);
  chk_.SubSent(c, s, NowNs());
  ++res_->attempted;
}

void Session::SendUnsub(int c, uint32_t s, bool churn) {
  Conn& k = conns_[c];
  k.out += "UNSUB ";
  k.out += std::to_string(chk_.ServerId(s));
  k.out += '\n';
  Pending p;
  p.kind = Pending::kUnsub;
  p.index = s;
  p.churn = churn;
  p.op = AddOp(OpRecord::kUnsub, s);
  k.pending.push_back(p);
  chk_.UnsubSent(c, s, NowNs());
  ++res_->attempted;
}

bool Session::SendPub(int64_t scheduled) {
  const std::vector<int>& pub_conns = w_->params().pub_conns;
  int c = -1;
  for (size_t tries = 0; tries < pub_conns.size() && c < 0; ++tries) {
    const int candidate = pub_conns[next_pub_conn_++ % pub_conns.size()];
    if (!conns_[candidate].publishing) c = candidate;
  }
  if (c < 0) return false;
  Conn& k = conns_[c];
  const uint32_t e = w_->NewEvent();
  k.out += "PUB ";
  k.out += w_->EventText(e);
  k.out += '\n';
  k.publishing = true;
  Pending p;
  p.kind = Pending::kPub;
  p.index = e;
  p.op = AddOp(OpRecord::kPub, e);
  k.pending.push_back(p);
  scheduled_.resize(e + 1, 0);
  scheduled_[e] = scheduled;
  if (opt_.trace) {
    event_op_.resize(e + 1, UINT32_MAX);
    event_op_[e] = p.op;
  }
  chk_.PubSent(c, e, NowNs());
  ++res_->attempted;
  Flush(c);
  if (churning_) churn_credit_ += w_->params().churn_per_event;
  return true;
}

void Session::ChurnTopUp() {
  if (!churning_) return;
  bool sent = false;
  while (churn_credit_ > 0 && churn_outstanding_ + 2 <= kChurnWindow &&
         !churn_live_.empty() && chk_.ServerId(churn_live_.front()) != 0) {
    --churn_credit_;
    const uint32_t oldest = churn_live_.front();
    churn_live_.pop_front();
    SendUnsub(1, oldest, true);
    const uint32_t fresh = w_->NewSub(1);
    SendSub(1, fresh, true);
    churn_live_.push_back(fresh);
    churn_outstanding_ += 2;
    sent = true;
  }
  if (sent) Flush(1);
}

void Session::OnComplete(uint32_t e, int64_t t) {
  if (e < scheduled_.size() && scheduled_[e] != 0) {
    res_->latency_us.push_back(static_cast<double>(t - scheduled_[e]) / 1e3);
  }
  if (t >= sat_start_ && t < sat_end_) ++win_events_[Window(t)];
  if (opt_.trace && e < event_op_.size() && event_op_[e] != UINT32_MAX) {
    OpRecord& op = res_->ops[event_op_[e]];
    op.completed = std::max(op.completed, t);
  }
}

void Session::Flush(int c) {
  Conn& k = conns_[c];
  while (k.out_off < k.out.size()) {
    const ssize_t n = ::send(k.fd, k.out.data() + k.out_off,
                             k.out.size() - k.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      k.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    Fatal("send on connection " + std::to_string(c) + " failed: " +
          std::strerror(errno));
    return;
  }
  k.out.clear();
  k.out_off = 0;
}

void Session::Read(int c) {
  Conn& k = conns_[c];
  while (!fatal_) {
    if (k.in.size() - k.tail < kReadChunk) {
      // Compact; grow only when a single unfinished line fills the buffer.
      std::memmove(k.in.data(), k.in.data() + k.head, k.tail - k.head);
      k.tail -= k.head;
      k.head = 0;
      if (k.in.size() - k.tail < kReadChunk) k.in.resize(k.in.size() * 2);
    }
    const ssize_t n = ::recv(k.fd, k.in.data() + k.tail, kReadChunk, 0);
    if (n == 0) {
      Fatal("server closed connection " + std::to_string(c));
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      Fatal("recv on connection " + std::to_string(c) + " failed: " +
            std::strerror(errno));
      return;
    }
    const int64_t t = NowNs();
    last_progress_ = t;
    k.tail += static_cast<size_t>(n);
    while (k.head < k.tail && !fatal_) {
      const char* start = k.in.data() + k.head;
      const void* nl = std::memchr(start, '\n', k.tail - k.head);
      if (nl == nullptr) break;
      const size_t len = static_cast<const char*>(nl) - start;
      HandleLine(c, std::string_view(start, len), t);
      k.head += len + 1;
    }
    if (static_cast<size_t>(n) < kReadChunk) return;
  }
}

void Session::HandleLine(int c, std::string_view line, int64_t t) {
  Conn& k = conns_[c];
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (StartsWith(line, "EVENT ")) {
    std::string_view rest = line.substr(6);
    const size_t sp1 = rest.find(' ');
    const size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : rest.find(' ', sp1 + 1);
    uint64_t sub = 0;
    if (sp2 == std::string_view::npos ||
        !ParseNumbers(rest.substr(0, sp1), 1, &sub)) {
      Fatal("malformed EVENT line: " + std::string(line.substr(0, 80)));
      return;
    }
    chk_.Delivery(c, sub, rest.substr(sp2 + 1), t);
    if (t >= sat_start_ && t < sat_end_) ++win_deliveries_[Window(t)];
    return;
  }
  const bool ok = StartsWith(line, "OK");
  if ((!ok && !StartsWith(line, "ERR")) || k.pending.empty()) {
    Fatal("unexpected line on connection " + std::to_string(c) + ": " +
          std::string(line.substr(0, 80)));
    return;
  }
  const Pending p = k.pending.front();
  std::string_view detail = line.substr(ok ? 2 : 3);
  if (!detail.empty() && detail.front() == ' ') detail.remove_prefix(1);
  if (p.op != UINT32_MAX) res_->ops[p.op].replied = t;
  if (p.churn) {
    --churn_outstanding_;
    if (t >= sat_start_ && t < sat_end_) ++win_churn_[Window(t)];
  }
  if (!ok) {
    // A refused request is a failed operation, not a wrong output.
    res_->failed += 1;
    if (p.kind == Pending::kPub) k.publishing = false;
    chk_.Fail("request answered ERR " + std::string(detail));
    k.pending.pop_front();
    return;
  }
  uint64_t nums[2] = {0, 0};
  switch (p.kind) {
    case Pending::kSub:
      if (!ParseNumbers(detail, 1, nums)) break;
      chk_.SubAck(c, p.index, nums[0], t);
      k.pending.pop_front();
      return;
    case Pending::kUnsub:
      if (!detail.empty()) break;
      chk_.UnsubAck(c, p.index, t);
      k.pending.pop_front();
      return;
    case Pending::kPub:
      if (!ParseNumbers(detail, 2, nums)) break;
      k.pending.pop_front();
      k.publishing = false;
      chk_.PubReply(c, p.index, nums[1], t);
      // The closed loop refills as soon as a reply frees a connection,
      // before the lines still buffered are parsed.
      if (phase_ == OpRecord::kSaturation && t < sat_end_) SendPub(0);
      return;
    case Pending::kMetrics:
      res_->metrics_json.assign(detail);
      k.pending.pop_front();
      return;
  }
  Fatal("malformed reply on connection " + std::to_string(c) + ": " +
        std::string(line.substr(0, 80)));
}

void Session::Pump(int64_t timeout_ns) {
  pollfd fds[kConns];
  int n = 0;
  for (int c = 0; c < kConns; ++c) {
    if (conns_[c].fd < 0) continue;
    if (conns_[c].out_off < conns_[c].out.size()) Flush(c);
    fds[n].fd = conns_[c].fd;
    fds[n].events = POLLIN;
    if (conns_[c].out_off < conns_[c].out.size()) fds[n].events |= POLLOUT;
    fds[n].revents = 0;
    ++n;
  }
  if (fatal_) return;
  timeout_ns = std::max<int64_t>(0, timeout_ns);
  timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
              static_cast<long>(timeout_ns % 1000000000)};
  if (::ppoll(fds, n, &ts, nullptr) <= 0) return;
  for (int i = 0, c = 0; c < kConns && !fatal_; ++c) {
    if (conns_[c].fd < 0) continue;
    const short ev = fds[i++].revents;
    if (ev & (POLLIN | POLLHUP | POLLERR)) Read(c);
    if ((ev & POLLOUT) && !fatal_) Flush(c);
  }
}

template <typename Pred>
void Session::WaitFor(Pred done, const char* what) {
  last_progress_ = NowNs();
  while (!fatal_ && !done()) {
    Pump(5'000'000);
    ChurnTopUp();
    if (NowNs() - last_progress_ > kStallNs) {
      Fatal(std::string("timed out waiting for ") + what + " (no byte for " +
            std::to_string(kStallTimeoutS) + " s)");
    }
  }
}

bool Session::Idle() const {
  for (const Conn& k : conns_) {
    if (!k.pending.empty()) return false;
  }
  return chk_.outstanding_events() == 0;
}

double Session::Load(const std::vector<std::string>& sub_lines,
                     const std::vector<std::vector<uint32_t>>& subs_by_conn) {
  for (int c = 1; c < kConns; ++c) {
    for (uint32_t s : subs_by_conn[c]) {
      Pending p;
      p.index = s;
      p.op = AddOp(OpRecord::kSub, s);
      conns_[c].pending.push_back(p);
      chk_.SubSent(c, s, NowNs());
      ++res_->attempted;
    }
  }
  const int64_t t0 = NowNs();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (int c = 0; c < kConns; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      Fatal(std::string("connect failed: ") + std::strerror(errno));
      return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    conns_[c].fd = fd;
  }
  for (int c = 1; c < kConns; ++c) conns_[c].out = sub_lines[c];
  WaitFor([this] { return Idle(); }, "the load phase's SUB replies");
  const int64_t t1 = NowNs();
  if (fatal_) return -1;
  for (int c = 1; c < kConns; ++c) {
    for (uint32_t s : subs_by_conn[c]) {
      if (c == 1 && w_->params().churn_per_event > 0) churn_live_.push_back(s);
    }
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

void Session::Warmup() {
  phase_ = OpRecord::kWarmup;
  size_t left = 200;
  while (!fatal_ && left > 0) {
    while (left > 0 && SendPub(0)) --left;
    Pump(5'000'000);
  }
  WaitFor([this] { return Idle(); }, "the warm-up events");
}

void Session::OpenLoop(double seconds) {
  phase_ = OpRecord::kOpen;
  churning_ = w_->params().churn_per_event > 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const double interval = 1e9 / w_->params().open_rate;
  uint64_t k = 0;
  int64_t due = start;
  // Events that are due but wait for a free publishing connection keep
  // their scheduled time, so the wait counts in their latency.
  std::deque<int64_t> backlog;
  last_progress_ = start;
  while (!fatal_) {
    int64_t now = NowNs();
    while (due <= now && due < end) {
      backlog.push_back(due);
      ++k;
      due = start + static_cast<int64_t>(static_cast<double>(k) * interval);
    }
    while (!backlog.empty() && SendPub(backlog.front())) {
      send_lag_us_.push_back(
          static_cast<double>(NowNs() - backlog.front()) / 1e3);
      backlog.pop_front();
    }
    ChurnTopUp();
    if (now >= end && backlog.empty()) break;
    Pump(backlog.empty() ? std::min(due, end) - now : 5'000'000);
    if (NowNs() - last_progress_ > kStallNs && !Idle()) {
      Fatal("timed out in the open loop (no byte for " +
            std::to_string(kStallTimeoutS) + " s)");
    }
  }
}

void Session::Saturate(double seconds) {
  phase_ = OpRecord::kSaturation;
  sat_start_ = NowNs();
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kWindowS));
  sat_end_ = sat_start_ + static_cast<int64_t>(windows * kWindowS * 1e9);
  win_events_.assign(windows, 0);
  win_deliveries_.assign(windows, 0);
  win_churn_.assign(windows, 0);
  const int64_t cpu0 = ThreadCpuNs();
  last_progress_ = sat_start_;
  while (!fatal_) {
    const int64_t now = NowNs();
    if (now >= sat_end_) break;
    while (SendPub(0)) {
    }
    ChurnTopUp();
    Pump(std::min<int64_t>(sat_end_ - now, 5'000'000));
    if (NowNs() - last_progress_ > kStallNs) {
      Fatal("timed out in saturation (no byte for " +
            std::to_string(kStallTimeoutS) + " s)");
    }
  }
  const int64_t cpu1 = ThreadCpuNs();
  const double wall = static_cast<double>(sat_end_ - sat_start_);
  res_->busy_share = static_cast<double>(cpu1 - cpu0) / wall;
  // Rates are the median over the sub-windows, so a single stall (a
  // maintenance sweep, a preempted vCPU) moves them less than the mean.
  auto rate = [](const std::vector<uint64_t>& counts) {
    return Quantile(counts, 0.5) / kWindowS;
  };
  res_->events_per_s = rate(win_events_);
  res_->deliveries_per_s = rate(win_deliveries_);
  if (churning_) res_->sub_ops_per_s = rate(win_churn_);
  res_->send_lag_p99_us = Quantile(send_lag_us_, 0.99);
}

void Session::Drain() {
  phase_ = OpRecord::kDrain;
  churning_ = false;
  WaitFor([this] { return Idle(); }, "the last replies and deliveries");
}

void Session::ReadMetrics() {
  Pending p;
  p.kind = Pending::kMetrics;
  conns_[0].out += "METRICS\n";
  conns_[0].pending.push_back(p);
  WaitFor([this] { return Idle(); }, "the METRICS reply");
}

/// One SCHED_IDLE busy-loop thread per CPU while alive. Any other thread
/// preempts them at once, so they take no time from the server or the
/// generator; they only keep this process's CPUs from halting, which on a
/// virtual machine makes every wake-up wait for the hypervisor.
class IdleSpinners {
 public:
  IdleSpinners() {
    const int n = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
    for (int cpu = 0; cpu < n; ++cpu) {
      threads_.emplace_back([this, cpu] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof(set), &set);
        sched_param param{};
        sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

RunResult RunWire(Workload* w, const RunOptions& opt) {
  const IdleSpinners spinners;
  RunResult res;
  const WorkloadParams& p = w->params();
  // The population and its pre-rendered SUB lines, shared by every setup.
  std::vector<std::vector<uint32_t>> subs_by_conn(kConns);
  std::vector<std::string> sub_lines(kConns);
  for (int c = 1; c < kConns; ++c) {
    for (size_t i = 0; i < p.population[c - 1]; ++i) {
      const uint32_t s = w->NewSub(c);
      subs_by_conn[c].push_back(s);
      sub_lines[c] += "SUB ";
      sub_lines[c] += w->SubText(s);
      sub_lines[c] += '\n';
    }
  }
  // The first session is measured end to end; the others only load, so
  // setup_s is a median. Peak RSS is read before they run.
  const int setups = opt.trace ? 1 : p.setups;
  for (int rep = 0; rep < setups && res.correct; ++rep) {
    Session session(w, opt, &res);
    const double load_s =
        session.Start() ? session.Load(sub_lines, subs_by_conn) : -1;
    if (load_s >= 0) res.setup_s.push_back(load_s);
    if (rep == 0 && load_s >= 0) {
      session.Warmup();
      if (!session.fatal()) session.OpenLoop(opt.seconds / 2);
      if (!session.fatal()) session.Saturate(opt.seconds / 2);
      if (!session.fatal()) session.Drain();
      if (!session.fatal() && opt.trace) session.ReadMetrics();
      res.rss_mb = PeakRssMiB();
    }
    session.Stop();
    session.Finish();
  }
  if (p.churn_per_event == 0 && !res.setup_s.empty()) {
    // Without churn, subscriptions are only written while loading.
    const size_t pop = p.population[0] + p.population[1] + p.population[2];
    res.sub_ops_per_s = static_cast<double>(pop) / Quantile(res.setup_s, 0.5);
  }
  return res;
}

}  // namespace wirebench
