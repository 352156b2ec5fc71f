// CPU placement for the runtime workloads.
//
// The generator busy-polls on a CPU of its own. Each proxy worker gets a
// CPU, and the NRS, origin and reverse proxy share one more. On a virtual
// machine a CPU that goes idle halts, and the thread woken on it next runs
// only once the host schedules that virtual CPU again, often milliseconds
// later; that delay would be charged to whatever request woke the thread.
// IdleKeepers therefore run a SCHED_IDLE busy loop on every server CPU: it
// yields at once to any other thread, so a server thread's wake-up costs a
// context switch instead of a halt. Its CPU time is subtracted from the
// server's.
#pragma once

#include <pthread.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct CpuPlan {
  std::vector<int> allowed;
  int generator = -1;
  std::vector<int> proxy;    ///< one per proxy worker (may repeat)
  int aux = -1;              ///< NRS, origin and reverse proxy threads
  std::vector<int> servers;  ///< every distinct non-generator CPU in use

  /// Throws when fewer than two CPUs are allowed: the busy-polling
  /// generator needs one to itself.
  static CpuPlan make(std::size_t proxy_workers);
  /// Pin the calling thread (threads it creates later inherit the mask).
  static void pin(int cpu);
  [[nodiscard]] static std::string mask(const std::vector<int>& cpus);
};

/// Kernel ids of the process's threads, ascending.
[[nodiscard]] std::vector<pid_t> thread_ids();
/// Pin thread `tid` of this process to `cpu`.
void pin_thread(pid_t tid, int cpu);
/// Voluntary plus involuntary context switches of thread `tid`.
[[nodiscard]] std::int64_t thread_ctx_switches(pid_t tid);

class IdleKeepers {
 public:
  explicit IdleKeepers(const std::vector<int>& cpus);
  ~IdleKeepers();
  IdleKeepers(const IdleKeepers&) = delete;
  IdleKeepers& operator=(const IdleKeepers&) = delete;

  /// CPU time of all keepers so far.
  [[nodiscard]] std::int64_t cpu_ns() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<pthread_t> handles_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
