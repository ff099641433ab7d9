#include "host_env.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "common/strings.h"

#ifndef ENFORCEBENCH_BUILD_TYPE
#define ENFORCEBENCH_BUILD_TYPE "unknown"
#endif

namespace enforcebench {

namespace {

volatile uint64_t spin_sink;

// A dependent integer recurrence the compiler cannot fold or vectorize:
// tens of milliseconds on one core of a current x86 host.
void Spin() {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ull + 1;
  spin_sink = x;
}

double TimeSpinMs(int threads) {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(Spin);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string ReadCpuMax() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (!in || !std::getline(in, line)) return "unavailable";
  return line;
}

}  // namespace

HostEnv ProbeHostEnv() {
  HostEnv env;
  env.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    env.affinity_cpus = CPU_COUNT(&set);
  }
  env.cpu_max = ReadCpuMax();
  env.build_type = ENFORCEBENCH_BUILD_TYPE;
#ifdef NDEBUG
  env.release = env.build_type == "Release";
#endif
  env.probe_threads = env.affinity_cpus > 0 ? env.affinity_cpus : 1;
  env.probe_1_ms = TimeSpinMs(1);
  env.probe_n_ms = TimeSpinMs(env.probe_threads);
  env.probe_slowdown = env.probe_n_ms / env.probe_1_ms;
  env.effective_parallelism = env.probe_threads / env.probe_slowdown;
  return env;
}

std::string HostEnvJson(const HostEnv& env) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%ld,\"affinity_cpus\":%d,\"cpu_max\":\"%s\","
                "\"build_type\":\"%s\",\"release\":%s,\"probe_threads\":%d,"
                "\"probe_1_ms\":%.3f,\"probe_n_ms\":%.3f,"
                "\"probe_slowdown\":%.3f,\"effective_parallelism\":%.3f}",
                env.nproc, env.affinity_cpus,
                datalawyer::JsonEscape(env.cpu_max).c_str(),
                datalawyer::JsonEscape(env.build_type).c_str(),
                env.release ? "true" : "false", env.probe_threads,
                env.probe_1_ms, env.probe_n_ms, env.probe_slowdown,
                env.effective_parallelism);
  return buf;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace enforcebench
