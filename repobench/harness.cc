#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace repobench {

namespace {

constexpr int64_t kSpinWindowNs = 2000000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {
std::vector<int>& ReservedCpus() {
  static std::vector<int> cpus;
  return cpus;
}
}  // namespace

void ReserveCpus(size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < count + 1) return;
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (size_t i = 0; i < cpus.size(); ++i) {
    if (i + count < cpus.size()) {
      CPU_SET(cpus[i], &rest);
    } else {
      ReservedCpus().push_back(cpus[i]);
    }
  }
  sched_setaffinity(0, sizeof(rest), &rest);
}

void PinToCpu(size_t index) {
  const std::vector<int>& reserved = ReservedCpus();
  if (reserved.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(reserved[reserved.size() - 1 - index % reserved.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

Pacer::Pacer() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void Pacer::WaitUntil(int64_t due_ns) {
  int64_t now = NowNs();
  if (due_ns - now > kSpinWindowNs) {
    const int64_t wake = due_ns - kSpinWindowNs;
    timespec ts;
    ts.tv_sec = wake / 1000000000;
    ts.tv_nsec = wake % 1000000000;
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    now = NowNs();
  }
  while (now < due_ns) {
    CpuRelax();
    now = NowNs();
  }
}

ProcessSample ProcessSample::Take() {
  ProcessSample s;
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  s.cpu_s = ts.tv_sec + ts.tv_nsec * 1e-9;
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  s.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  s.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  s.invol_ctx = static_cast<double>(ru.ru_nivcsw);
  s.minor_faults = static_cast<double>(ru.ru_minflt);
  s.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu == "cpu") {
    // user nice system idle iowait irq softirq steal
    double field[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (double& f : field) stat >> f;
    for (double f : field) s.total_jiffies += f;
    s.steal_jiffies = field[7];
  }
  return s;
}

double TrimmedRssMb() {
  malloc_trim(0);
  // statm: size, resident, shared (file-backed and shmem resident), ...
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0, resident_pages = 0.0, shared_pages = 0.0;
  statm >> size_pages >> resident_pages >> shared_pages;
  return (resident_pages - shared_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

ProcessWindow ProcessWindow::Between(const ProcessSample& a,
                                     const ProcessSample& b) {
  ProcessWindow w;
  w.cpu_s = b.cpu_s - a.cpu_s;
  w.user_s = b.user_s - a.user_s;
  w.sys_s = b.sys_s - a.sys_s;
  w.invol_ctx = b.invol_ctx - a.invol_ctx;
  w.minor_faults = b.minor_faults - a.minor_faults;
  const double total = b.total_jiffies - a.total_jiffies;
  w.steal_share = total > 0.0 ? (b.steal_jiffies - a.steal_jiffies) / total : 0.0;
  return w;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = Value{value, unit};
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::Fail(const std::string& why) { failures_.push_back(why); }

bool Report::Print(const std::string& workload,
                   const std::vector<MetricSpec>& specs, bool zero_fill,
                   uint64_t attempted, uint64_t failed) const {
  bool complete = true;
  std::vector<std::string> unexercised;
  for (const MetricSpec& spec : specs) {
    if (values_.count(spec.name) != 0) continue;
    if (zero_fill) {
      unexercised.push_back(spec.name);
    } else {
      std::fprintf(stderr, "metric %s was not measured\n", spec.name.c_str());
      complete = false;
    }
  }
  std::printf("== %s ==\n", workload.c_str());
  for (const std::string& note : notes_) std::printf("  # %s\n", note.c_str());
  for (const std::string& name : order_) {
    const Value& v = values_.at(name);
    std::printf("  %-44s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  if (!unexercised.empty()) {
    std::printf("  # not exercised by this workload (reported as 0):");
    for (const std::string& name : unexercised) std::printf(" %s", name.c_str());
    std::printf("\n");
  }
  for (const std::string& why : failures_) {
    std::printf("  CHECK FAILED: %s\n", why.c_str());
  }
  if (!complete) return false;
  std::ostringstream json;
  json.precision(17);
  std::ostringstream body;
  body.precision(17);
  bool finite = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = values_.find(specs[i].name);
    double value = it == values_.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) {
      // Failed requests read as infinitely late; keep the JSON valid.
      std::printf("  CHECK FAILED: %s is not finite\n", specs[i].name.c_str());
      finite = false;
      value = 0.0;
    }
    body << (i == 0 ? "" : ", ") << "\"" << specs[i].name
         << "\": {\"value\": " << value << ", \"unit\": \"" << specs[i].unit
         << "\"}";
  }
  const bool correct = ok() && finite;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {" << body.str() << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace repobench
