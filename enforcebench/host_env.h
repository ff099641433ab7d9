#ifndef ENFORCEBENCH_HOST_ENV_H_
#define ENFORCEBENCH_HOST_ENV_H_

#include <string>

namespace enforcebench {

/// What the host could actually do while a result was measured. A bench
/// number is only meaningful next to the parallelism the host gave it and
/// the build that produced it.
struct HostEnv {
  long nproc = 0;          ///< online CPUs (sysconf)
  int affinity_cpus = 0;   ///< CPUs in this process's sched_getaffinity mask
  std::string cpu_max;     ///< cgroup v2 cpu.max ("max 100000", "unavailable")
  std::string build_type;  ///< CMAKE_BUILD_TYPE the benchmark was built with
  bool release = false;    ///< Release build with assertions off
  /// Spin-loop probe: the same per-thread loop timed on 1 thread and on
  /// `probe_threads` threads at once. `probe_slowdown` = t(N) / t(1) is 1.0
  /// on a host that runs N threads in parallel; the effective parallelism
  /// is N / slowdown.
  int probe_threads = 0;
  double probe_1_ms = 0;
  double probe_n_ms = 0;
  double probe_slowdown = 0;
  double effective_parallelism = 0;
};

HostEnv ProbeHostEnv();

/// JSON object for the report line.
std::string HostEnvJson(const HostEnv& env);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace enforcebench

#endif  // ENFORCEBENCH_HOST_ENV_H_
