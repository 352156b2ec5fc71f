#include "cpu.hpp"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

CpuPlan CpuPlan::make(std::size_t proxy_workers) {
  CpuPlan plan;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) plan.allowed.push_back(cpu);
    }
  }
  if (plan.allowed.size() < 2) {
    throw std::runtime_error("perfbench needs at least two CPUs");
  }
  plan.generator = plan.allowed.back();
  const std::vector<int> rest(plan.allowed.begin(), plan.allowed.end() - 1);
  for (std::size_t w = 0; w < proxy_workers; ++w) plan.proxy.push_back(rest[w % rest.size()]);
  plan.aux = rest[std::min(proxy_workers, rest.size() - 1)];
  plan.servers = plan.proxy;
  plan.servers.push_back(plan.aux);
  std::sort(plan.servers.begin(), plan.servers.end());
  plan.servers.erase(std::unique(plan.servers.begin(), plan.servers.end()), plan.servers.end());
  return plan;
}

void CpuPlan::pin(int cpu) { pin_thread(0, cpu); }

std::string CpuPlan::mask(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

void pin_thread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

std::int64_t thread_ctx_switches(pid_t tid) {
  std::ifstream status("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  std::int64_t total = 0;
  while (std::getline(status, line)) {
    if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
        line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
      total += std::atoll(line.c_str() + line.find(':') + 1);
    }
  }
  return total;
}

IdleKeepers::IdleKeepers(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      CpuPlan::pin(cpu);
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  for (auto& thread : threads_) handles_.push_back(thread.native_handle());
}

IdleKeepers::~IdleKeepers() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& thread : threads_) thread.join();
}

std::int64_t IdleKeepers::cpu_ns() const {
  std::int64_t total = 0;
  for (const pthread_t handle : handles_) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(handle, &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    }
  }
  return total;
}

}  // namespace perfbench
