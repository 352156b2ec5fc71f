#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "alloc_count.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTagWindow = 32;

bool iequals_prefix(std::string_view line, std::string_view name) {
  if (line.size() < name.size() + 1 || line[name.size()] != ':') return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) != name[i]) return false;
  }
  return true;
}

std::string_view header_value(std::string_view line, std::size_t name_len) {
  std::string_view value = line.substr(name_len + 1);
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
    value.remove_suffix(1);
  }
  return value;
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

std::string tagged_body(const std::string& tag, std::uint64_t bytes) {
  if (bytes < 2 * tag.size()) {
    throw std::invalid_argument("object smaller than two tags");
  }
  std::string body = tag;
  body.resize(static_cast<std::size_t>(bytes - tag.size()), '.');
  body += tag;
  return body;
}

// --- PhaseResult -----------------------------------------------------------

std::uint64_t PhaseResult::failed() const {
  std::uint64_t failures = 0;
  for (const Sample& s : samples) failures += s.ok ? 0 : 1;
  return failures;
}

std::vector<double> PhaseResult::latencies_us(
    const std::function<bool(CacheClass)>& keep) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (s.ok && keep(s.cls)) {
      out.push_back(static_cast<double>(s.done_ns - s.due_ns) / 1000.0);
    }
  }
  return out;
}

std::vector<double> PhaseResult::p99_per_slice_us(double slice_s) const {
  const auto slice_ns = static_cast<std::int64_t>(slice_s * 1e9);
  std::vector<std::vector<double>> slices(
      static_cast<std::size_t>(std::max<std::int64_t>(1, (end_ns - start_ns) / slice_ns)));
  for (const Sample& s : samples) {
    const auto index = static_cast<std::size_t>((s.due_ns - start_ns) / slice_ns);
    if (index >= slices.size()) continue;  // a partial last slice is dropped
    slices[index].push_back(s.ok ? static_cast<double>(s.done_ns - s.due_ns) / 1000.0
                                 : std::numeric_limits<double>::infinity());
  }
  std::vector<double> out;
  for (auto& slice : slices) {
    if (!slice.empty()) out.push_back(percentile(slice, 0.99));
  }
  return out;
}

std::vector<double> PhaseResult::lag_us() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    out.push_back(static_cast<double>(s.sent_ns - s.due_ns) / 1000.0);
  }
  return out;
}

std::size_t PhaseResult::count(CacheClass cls) const {
  return static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(),
      [cls](const Sample& s) { return s.ok && s.cls == cls; }));
}

// --- LoadGen ---------------------------------------------------------------

struct LoadGen::Conn {
  enum class State { Head, Body, ChunkSize, ChunkData, ChunkEnd, Trailers };

  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  bool want_write = false;
  bool dead = false;
  std::size_t worker = 0;  ///< server worker the connection landed on
  std::deque<std::size_t> pending;  ///< sample indices, in send order

  // Response parser.
  State state = State::Head;
  std::string head;
  std::string line;  ///< chunk-size / trailer line scratch
  int status = 0;
  CacheClass cls = CacheClass::None;
  std::uint64_t body_left = 0;
  std::uint64_t body_seen = 0;
  std::array<char, kTagWindow> first{};
  std::array<char, kTagWindow> last{};
  std::size_t first_len = 0;
  std::size_t last_len = 0;
};

LoadGen::LoadGen(std::vector<Target> targets)
    : targets_(std::move(targets)), recv_buffer_(256 * 1024) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

LoadGen::~LoadGen() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

int LoadGen::open_socket(std::uint16_t port) const {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool LoadGen::probe(Conn& conn) {
  PhaseResult scratch;
  phase_ = &scratch;
  scratch.samples.push_back(Sample{});
  conn.pending.push_back(0);
  outstanding_ = 1;
  line_.clear();
  line_ += "GET " + targets_.front().target + " HTTP/1.1\r\nHost: " +
           targets_.front().host + "\r\n\r\n";
  if (send(conn.fd, line_.data(), line_.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line_.size())) {
    phase_ = nullptr;
    return false;
  }
  while (scratch.samples[0].done_ns == 0) {
    const ssize_t n = recv(conn.fd, recv_buffer_.data(), recv_buffer_.size(), 0);
    if (n <= 0) break;
    feed(conn, recv_buffer_.data(), static_cast<std::size_t>(n), now_ns());
  }
  phase_ = nullptr;
  outstanding_ = 0;
  return scratch.samples[0].ok;
}

bool LoadGen::connect(std::uint16_t port, std::size_t count,
                      const std::function<std::vector<std::uint64_t>()>& worker_counts) {
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const auto& conn) { return conn->dead; }),
               conns_.end());
  const std::size_t workers = worker_counts ? worker_counts().size() : 1;
  std::vector<std::size_t> need(workers, count / workers);
  for (std::size_t w = 0; w < count % workers; ++w) ++need[w];
  for (const auto& conn : conns_) {
    if (need[conn->worker] > 0) --need[conn->worker];
  }

  for (std::size_t attempt = 0; attempt < 64 * count && conns_.size() < count; ++attempt) {
    auto conn = std::make_unique<Conn>();
    conn->fd = open_socket(port);
    if (conn->fd < 0) continue;
    std::size_t landed = 0;
    if (workers > 1) {
      const std::vector<std::uint64_t> before = worker_counts();
      if (!probe(*conn)) {
        if (conn->fd >= 0) close(conn->fd);
        continue;
      }
      // The worker bumps its counter around the write; give it a moment.
      landed = workers;
      for (int spin = 0; spin < 200 && landed == workers; ++spin) {
        const std::vector<std::uint64_t> after = worker_counts();
        for (std::size_t w = 0; w < workers; ++w) {
          if (after[w] != before[w]) landed = w;
        }
        if (landed == workers) std::this_thread::sleep_for(std::chrono::microseconds(250));
      }
    }
    if (landed == workers || need[landed] == 0) {
      close(conn->fd);
      continue;
    }
    --need[landed];
    conn->worker = landed;
    set_nonblocking(conn->fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev);
    conns_.push_back(std::move(conn));
  }
  return conns_.size() == count;
}

PhaseResult LoadGen::run(double rate, double seconds, std::uint64_t seed,
                         const Chooser& choose, std::size_t capture,
                         std::size_t max_backlog) {
  return drive(rate, seconds, seed, choose, nullptr, capture, max_backlog, 5.0);
}

PhaseResult LoadGen::fetch_sequence(const std::vector<std::uint32_t>& objects) {
  return drive(0.0, 0.0, 0, Chooser{}, &objects, 0, 0, 30.0);
}

void LoadGen::issue(Conn& conn, std::uint32_t object, std::int64_t due_ns,
                    std::int64_t now) {
  const Target& target = targets_[object];
  const std::size_t before = conn.out.size();
  conn.out += "GET ";
  conn.out += target.target;
  conn.out += " HTTP/1.1\r\nHost: ";
  conn.out += target.host;
  conn.out += "\r\nX-Bench-Req: ";
  char id[24];
  const int id_len = std::snprintf(id, sizeof(id), "%llu",
                                   static_cast<unsigned long long>(next_request_id_++));
  conn.out.append(id, static_cast<std::size_t>(id_len));
  conn.out += "\r\n\r\n";
  if (phase_->request_heads.size() < capture_) {
    phase_->request_heads.push_back(conn.out.substr(before));
  }
  phase_->samples.push_back(Sample{object, due_ns, now, 0, CacheClass::None, false});
  conn.pending.push_back(phase_->samples.size() - 1);
  ++outstanding_;
  phase_->backlog_max = std::max(phase_->backlog_max, outstanding_);
}

void LoadGen::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                           conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    fail_conn(conn, now_ns());
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  const bool want_write = !conn.out.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.ptr = &conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }
}

void LoadGen::fail_conn(Conn& conn, std::int64_t now) {
  if (conn.dead) return;
  conn.dead = true;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  close(conn.fd);
  conn.fd = -1;
  for (const std::size_t index : conn.pending) {
    phase_->samples[index].done_ns = now;
    phase_->samples[index].ok = false;
    --outstanding_;
  }
  conn.pending.clear();
}

void LoadGen::on_readable(Conn& conn) {
  // One read per readiness event: the poll is level-triggered, and going
  // back to the send loop between reads keeps a large body from delaying
  // the requests that fall due meanwhile.
  for (;;) {
    const ssize_t n = recv(conn.fd, recv_buffer_.data(), recv_buffer_.size(), 0);
    if (n > 0) {
      feed(conn, recv_buffer_.data(), static_cast<std::size_t>(n), now_ns());
      return;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    fail_conn(conn, now_ns());  // EOF or error: the server dropped us
    return;
  }
}

void LoadGen::observe_body(Conn& conn, const char* data, std::size_t size) {
  conn.body_seen += size;
  for (std::size_t i = 0; conn.first_len < kTagWindow && i < size; ++i) {
    conn.first[conn.first_len++] = data[i];
  }
  if (size >= kTagWindow) {
    std::memcpy(conn.last.data(), data + size - kTagWindow, kTagWindow);
    conn.last_len = kTagWindow;
  } else {
    const std::size_t keep = std::min(conn.last_len, kTagWindow - size);
    std::memmove(conn.last.data(), conn.last.data() + conn.last_len - keep, keep);
    std::memcpy(conn.last.data() + keep, data, size);
    conn.last_len = keep + size;
  }
}

void LoadGen::parse_head(Conn& conn) {
  conn.status = 0;
  conn.cls = CacheClass::None;
  conn.body_left = 0;
  conn.body_seen = 0;
  conn.first_len = 0;
  conn.last_len = 0;
  bool chunked = false;
  std::string_view head = conn.head;
  std::size_t pos = head.find("\r\n");
  const std::string_view status_line = head.substr(0, pos);
  if (status_line.size() >= 12 && status_line.substr(0, 5) == "HTTP/") {
    conn.status = std::atoi(std::string(status_line.substr(9, 3)).c_str());
  }
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    const std::size_t next = head.find("\r\n", pos + 2);
    const std::string_view line = head.substr(pos + 2, next - pos - 2);
    pos = next;
    if (iequals_prefix(line, "content-length")) {
      conn.body_left = std::strtoull(
          std::string(header_value(line, 14)).c_str(), nullptr, 10);
    } else if (iequals_prefix(line, "transfer-encoding")) {
      chunked = header_value(line, 17).find("chunked") != std::string_view::npos;
    } else if (iequals_prefix(line, "x-cache")) {
      const std::string_view value = header_value(line, 7);
      conn.cls = value == "HIT"      ? CacheClass::Hit
                 : value == "MISS"   ? CacheClass::Miss
                 : value == "STREAM" ? CacheClass::Stream
                                     : CacheClass::Other;
    }
  }
  conn.state = chunked ? Conn::State::ChunkSize : Conn::State::Body;
}

void LoadGen::feed(Conn& conn, const char* data, std::size_t size, std::int64_t now) {
  while (size > 0 && !conn.dead) {
    switch (conn.state) {
      case Conn::State::Head: {
        const std::size_t old = conn.head.size();
        conn.head.append(data, size);
        const std::size_t end = conn.head.find("\r\n\r\n", old >= 3 ? old - 3 : 0);
        if (end == std::string::npos) {
          if (conn.head.size() > 256 * 1024) fail_conn(conn, now);
          return;
        }
        const std::size_t used = end + 4 - old;
        conn.head.resize(end + 4);
        data += used;
        size -= used;
        parse_head(conn);
        if (conn.state == Conn::State::Body && conn.body_left == 0) complete(conn, now);
        break;
      }
      case Conn::State::Body: {
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(size, conn.body_left));
        observe_body(conn, data, take);
        conn.body_left -= take;
        data += take;
        size -= take;
        if (conn.body_left == 0) complete(conn, now);
        break;
      }
      case Conn::State::ChunkSize:
      case Conn::State::Trailers: {
        const char* nl = static_cast<const char*>(std::memchr(data, '\n', size));
        const std::size_t take = nl ? static_cast<std::size_t>(nl - data) + 1 : size;
        conn.line.append(data, take);
        data += take;
        size -= take;
        if (!nl) break;
        if (conn.state == Conn::State::ChunkSize) {
          conn.body_left = std::strtoull(conn.line.c_str(), nullptr, 16);
          conn.state = conn.body_left == 0 ? Conn::State::Trailers
                                           : Conn::State::ChunkData;
        } else if (conn.line == "\r\n" || conn.line == "\n") {
          conn.line.clear();
          complete(conn, now);
          break;
        }
        conn.line.clear();
        break;
      }
      case Conn::State::ChunkData: {
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(size, conn.body_left));
        observe_body(conn, data, take);
        conn.body_left -= take;
        data += take;
        size -= take;
        if (conn.body_left == 0) {
          conn.state = Conn::State::ChunkEnd;
          conn.body_left = 2;  // the CRLF after the chunk data
        }
        break;
      }
      case Conn::State::ChunkEnd: {
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(size, conn.body_left));
        conn.body_left -= take;
        data += take;
        size -= take;
        if (conn.body_left == 0) conn.state = Conn::State::ChunkSize;
        break;
      }
    }
  }
}

void LoadGen::complete(Conn& conn, std::int64_t now) {
  if (conn.pending.empty()) {  // a response nobody asked for
    fail_conn(conn, now);
    return;
  }
  const std::size_t index = conn.pending.front();
  conn.pending.pop_front();
  --outstanding_;
  Sample& sample = phase_->samples[index];
  const Target& target = targets_[sample.object];
  const std::size_t tag_len = target.tag.size();
  const bool ok =
      conn.status == 200 && conn.body_seen == target.body_bytes &&
      conn.first_len >= tag_len && conn.last_len >= tag_len &&
      std::memcmp(conn.first.data(), target.tag.data(), tag_len) == 0 &&
      std::memcmp(conn.last.data() + conn.last_len - tag_len, target.tag.data(),
                  tag_len) == 0 &&
      (conn.cls == CacheClass::Hit || conn.cls == CacheClass::Miss ||
       conn.cls == CacheClass::Stream);
  sample.done_ns = now;
  sample.cls = conn.cls;
  sample.ok = ok;
  if (ok) phase_->body_bytes += conn.body_seen;
  if (phase_->response_heads.size() < capture_) {
    phase_->response_heads.push_back(conn.head);
  }
  conn.head.clear();
  conn.state = Conn::State::Head;
}

PhaseResult LoadGen::drive(double rate, double seconds, std::uint64_t seed,
                           const Chooser& choose,
                           const std::vector<std::uint32_t>* sequence,
                           std::size_t capture, std::size_t max_backlog,
                           double drain_s) {
  PhaseResult result;
  phase_ = &result;
  capture_ = capture;
  outstanding_ = 0;
  result.samples.reserve(
      sequence ? sequence->size()
               : static_cast<std::size_t>(rate * seconds * 1.1) + 1024);

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_s(rate > 0 ? rate : 1.0);
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::uint64_t allocs0 = allocations_this_thread();
  result.start_ns = now_ns();
  result.end_ns = sequence ? result.start_ns
                           : result.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_due = result.start_ns;
  if (!sequence) next_due += static_cast<std::int64_t>(gap_s(rng) * 1e9);
  std::size_t sequence_pos = 0;
  std::int64_t drain_deadline = 0;
  std::array<epoll_event, 16> events{};

  auto pick = [&]() -> Conn* {
    Conn* best = nullptr;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn* c = conns_[(rr_ + i) % conns_.size()].get();
      if (c->dead) continue;
      if (best == nullptr || c->pending.size() < best->pending.size()) best = c;
    }
    ++rr_;
    return best;
  };

  for (;;) {
    std::int64_t now = now_ns();
    bool sending;
    if (sequence) {
      if (outstanding_ == 0 && sequence_pos < sequence->size()) {
        Conn* conn = pick();
        if (conn == nullptr) break;
        issue(*conn, (*sequence)[sequence_pos++], now, now);
        flush(*conn);
      }
      sending = sequence_pos < sequence->size();
    } else {
      while (next_due <= now && next_due < result.end_ns && !result.backlog_exceeded) {
        Conn* conn = pick();
        if (conn == nullptr) break;
        issue(*conn, choose(rng), next_due, now);
        next_due += static_cast<std::int64_t>(gap_s(rng) * 1e9);
      }
      // One send per connection for everything that fell due together.
      for (auto& conn : conns_) {
        if (!conn->dead && conn->out.size() > conn->out_off && !conn->want_write) flush(*conn);
      }
      if (max_backlog > 0 && outstanding_ > max_backlog) result.backlog_exceeded = true;
      sending = next_due < result.end_ns && !result.backlog_exceeded && pick() != nullptr;
    }
    if (!sending) {
      if (outstanding_ == 0) break;
      if (drain_deadline == 0) {
        drain_deadline = now + static_cast<std::int64_t>(drain_s * 1e9);
      }
      if (now >= drain_deadline) break;
    }

    // Busy-poll: a thread that sleeps between sends wakes late on a
    // virtual CPU, and that lateness would be charged to the server. The
    // generator owns its CPU, so polling takes nothing from the servers.
    const timespec timeout{0, 0};
    const int n = epoll_pwait2(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      Conn& conn = *static_cast<Conn*>(events[static_cast<std::size_t>(i)].data.ptr);
      if (conn.dead) continue;
      if (events[static_cast<std::size_t>(i)].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        on_readable(conn);
      }
      if (!conn.dead && conn.want_write &&
          (events[static_cast<std::size_t>(i)].events & EPOLLOUT)) {
        flush(conn);
      }
    }
  }

  // Whatever is still outstanding never completed: a failure.
  for (auto& conn : conns_) {
    for (const std::size_t index : conn->pending) {
      result.samples[index].ok = false;
    }
  }
  result.drained_ns = now_ns();
  result.gen_cpu_ns = thread_cpu_ns() - cpu0;
  result.gen_allocs = allocations_this_thread() - allocs0;
  phase_ = nullptr;
  // Connections with undelivered responses are out of step: drop them.
  for (auto& conn : conns_) {
    if (!conn->pending.empty()) {
      conn->pending.clear();
      if (!conn->dead) {
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
        close(conn->fd);
        conn->fd = -1;
        conn->dead = true;
      }
    }
  }
  return result;
}

// --- TrivialResponder ------------------------------------------------------

TrivialResponder::TrivialResponder(const std::vector<Target>& targets) {
  for (const Target& target : targets) {
    const std::string body = tagged_body(target.tag, target.body_bytes);
    responses_.emplace_back(
        target.target, "HTTP/1.1 200 OK\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nX-Cache: HIT\r\n\r\n" + body);
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listen_fd_ < 0 ||
      bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0 ||
      getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("trivial responder: bind failed");
  }
  port_ = ntohs(addr.sin_port);
  stop_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  thread_ = std::thread([this] { serve(); });
}

TrivialResponder::~TrivialResponder() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(stop_fd_, &one, sizeof(one));
  thread_.join();
  close(stop_fd_);
  close(listen_fd_);
}

void TrivialResponder::serve() {
  struct Client {
    int fd = -1;
    std::string in;
    std::string out;
    std::size_t out_off = 0;
  };
  std::unordered_map<std::string_view, const std::string*> by_target;
  for (const auto& [target, wire] : responses_) by_target.emplace(target, &wire);

  const int ep = epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = stop_fd_;
  epoll_ctl(ep, EPOLL_CTL_ADD, stop_fd_, &ev);
  std::unordered_map<int, Client> clients;
  std::vector<char> buffer(64 * 1024);
  std::array<epoll_event, 16> events{};
  bool running = true;
  while (running) {
    const int n = epoll_wait(ep, events.data(), static_cast<int>(events.size()), 100);
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == stop_fd_) {
        running = false;
        continue;
      }
      if (fd == listen_fd_) {
        const int client = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (client < 0) continue;
        const int one = 1;
        setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        clients[client].fd = client;
        epoll_event cev{};
        cev.events = EPOLLIN;
        cev.data.fd = client;
        epoll_ctl(ep, EPOLL_CTL_ADD, client, &cev);
        continue;
      }
      auto it = clients.find(fd);
      if (it == clients.end()) continue;
      Client& c = it->second;
      bool closed = false;
      for (;;) {
        const ssize_t got = recv(fd, buffer.data(), buffer.size(), 0);
        if (got > 0) {
          c.in.append(buffer.data(), static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          closed = true;
        }
        break;
      }
      std::size_t end;
      while ((end = c.in.find("\r\n\r\n")) != std::string::npos) {
        const std::size_t sp1 = c.in.find(' ');
        const std::size_t sp2 = c.in.find(' ', sp1 + 1);
        const auto found = by_target.find(std::string_view(c.in).substr(sp1 + 1, sp2 - sp1 - 1));
        if (found != by_target.end()) {
          c.out += *found->second;
        } else {
          c.out += "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        }
        c.in.erase(0, end + 4);
      }
      // The generator always reads, so waiting out a full socket buffer
      // here cannot deadlock.
      while (!closed && c.out_off < c.out.size()) {
        const ssize_t sent = send(fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                                  MSG_NOSIGNAL);
        if (sent > 0) {
          c.out_off += static_cast<std::size_t>(sent);
        } else if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          pollfd pfd{fd, POLLOUT, 0};
          poll(&pfd, 1, 10);
        } else if (sent < 0 && errno != EINTR) {
          closed = true;
        }
      }
      c.out.clear();
      c.out_off = 0;
      if (closed) {
        epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
        close(fd);
        clients.erase(it);
      }
    }
  }
  for (auto& [fd, client] : clients) close(fd);
  close(ep);
}

}  // namespace perfbench
