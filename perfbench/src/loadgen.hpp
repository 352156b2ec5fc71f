// Open-loop HTTP/1.1 load generator.
//
// One thread, its own non-blocking sockets and its own response parser: the
// ruler shares no code with the server it measures. Requests are due at
// Poisson arrival times drawn from a seeded generator; each is sent on the
// keep-alive connection with the fewest outstanding requests (pipelining
// behind earlier ones when all are busy), and its latency is timed from the
// time it was *due*, so a server stall also charges every request that
// should have been sent during it. The generator reports how late it ran
// (send time minus due time) and the largest number of requests it had
// outstanding.
//
// Every response is checked: status 200, exactly the object's length, and
// the body must begin and end with the object's tag. The X-Cache header
// classifies it as HIT, MISS or STREAM.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One object the generator may request.
struct Target {
  std::string host;    ///< Host header
  std::string target;  ///< absolute-form request-target
  std::uint64_t body_bytes = 0;
  std::string tag;     ///< the body starts and ends with these bytes
};

enum class CacheClass : std::uint8_t { None, Hit, Miss, Stream, Other };

struct Sample {
  std::uint32_t object = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;  ///< 0: never completed
  CacheClass cls = CacheClass::None;
  bool ok = false;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;       ///< last send due before this
  std::int64_t drained_ns = 0;   ///< last response (or drain give-up)
  std::int64_t gen_cpu_ns = 0;   ///< generator thread CPU over the phase
  std::uint64_t gen_allocs = 0;  ///< generator-thread allocations (traced build)
  std::size_t backlog_max = 0;   ///< most requests outstanding at once
  bool backlog_exceeded = false; ///< sending stopped early (see LoadGen::run)
  std::uint64_t body_bytes = 0;  ///< validated body bytes received
  std::vector<std::string> request_heads;   ///< first few, as sent
  std::vector<std::string> response_heads;  ///< first few, as received

  [[nodiscard]] std::uint64_t failed() const;
  /// Latencies (µs, from due time) of successful responses whose class
  /// passes `keep`; failures are excluded.
  [[nodiscard]] std::vector<double> latencies_us(
      const std::function<bool(CacheClass)>& keep) const;
  /// p99 latency (µs from due time, failures counting as infinite) of each
  /// whole `slice_s` slice of the phase, by due time. The median of these
  /// is the phase's p99 with stalls of the host confined to the slices they
  /// hit.
  [[nodiscard]] std::vector<double> p99_per_slice_us(double slice_s) const;
  /// Send lag (µs) of every request.
  [[nodiscard]] std::vector<double> lag_us() const;
  [[nodiscard]] std::size_t count(CacheClass cls) const;
};

using Chooser = std::function<std::uint32_t(std::mt19937_64&)>;

class LoadGen {
 public:
  explicit LoadGen(std::vector<Target> targets);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Hold `count` keep-alive connections to 127.0.0.1:`port`, replacing
  /// any that died. With `worker_counts` (per-worker requests served, read
  /// from the server), each new connection is probed and kept only while
  /// its worker still needs one, re-connecting until the connections are
  /// spread evenly over the workers. False when that fails within the
  /// attempt budget.
  bool connect(std::uint16_t port, std::size_t count,
               const std::function<std::vector<std::uint64_t>()>& worker_counts);

  /// Open-loop phase: Poisson arrivals at `rate` per second for `seconds`,
  /// objects from `choose`, then up to 5 s for the outstanding responses.
  /// Captures the first `capture` request and response heads. With
  /// `max_backlog`, sending stops early (PhaseResult::backlog_exceeded)
  /// once more requests than that are outstanding.
  PhaseResult run(double rate, double seconds, std::uint64_t seed,
                  const Chooser& choose, std::size_t capture = 0,
                  std::size_t max_backlog = 0);

  /// Closed-loop pass: request each of `objects` in order, one at a time.
  PhaseResult fetch_sequence(const std::vector<std::uint32_t>& objects);

 private:
  struct Conn;

  PhaseResult drive(double rate, double seconds, std::uint64_t seed,
                    const Chooser& choose,
                    const std::vector<std::uint32_t>* sequence,
                    std::size_t capture, std::size_t max_backlog, double drain_s);
  void issue(Conn& conn, std::uint32_t object, std::int64_t due_ns,
             std::int64_t now);
  void flush(Conn& conn);
  void on_readable(Conn& conn);
  void feed(Conn& conn, const char* data, std::size_t size, std::int64_t now);
  void parse_head(Conn& conn);
  void complete(Conn& conn, std::int64_t now);
  void fail_conn(Conn& conn, std::int64_t now);
  void observe_body(Conn& conn, const char* data, std::size_t size);
  [[nodiscard]] int open_socket(std::uint16_t port) const;
  bool probe(Conn& conn);

  std::vector<Target> targets_;
  std::vector<std::unique_ptr<Conn>> conns_;
  int epoll_fd_ = -1;
  std::vector<char> recv_buffer_;
  std::string line_;  ///< request head scratch

  // Per-phase state.
  PhaseResult* phase_ = nullptr;
  std::size_t outstanding_ = 0;
  std::size_t capture_ = 0;
  std::uint64_t next_request_id_ = 1;  ///< 0 means "no id" in spans
  std::size_t rr_ = 0;
};

/// A minimal HTTP/1.1 responder on its own thread: answers each request for
/// one of `targets` with a 200 carrying that object's tagged body and
/// `X-Cache: HIT`, doing nothing else. Measuring the generator against it
/// shows how much of a latency the generator itself contributes.
class TrivialResponder {
 public:
  explicit TrivialResponder(const std::vector<Target>& targets);
  ~TrivialResponder();
  TrivialResponder(const TrivialResponder&) = delete;
  TrivialResponder& operator=(const TrivialResponder&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve();

  std::vector<std::pair<std::string, std::string>> responses_;  ///< target → wire bytes
  int listen_fd_ = -1;
  int stop_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Body bytes for an object: `tag`, filler, `tag`, exactly `bytes` long.
[[nodiscard]] std::string tagged_body(const std::string& tag, std::uint64_t bytes);

}  // namespace perfbench
