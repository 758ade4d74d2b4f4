#include "calib.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <unordered_map>

namespace perfbench {

std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Keeps the kernel's result observable so the work cannot be elided.
volatile std::uint64_t g_kernel_sink = 0;

constexpr int kWarmRounds = 400;
constexpr int kKernelRounds = 2600;

}  // namespace

std::uint64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t RunReferenceKernel() {
  std::map<std::string, std::uint64_t> tree;
  std::unordered_map<std::string, std::uint64_t> table;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  char buf[64];
  auto round = [&](int i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int n = std::snprintf(buf, sizeof(buf), "%08llx.%04d::obj/%u",
                                static_cast<unsigned long long>(x >> 32),
                                i & 511, static_cast<unsigned>(x & 0xfff));
    std::string key(buf, static_cast<std::size_t>(n));
    // Node churn: the tree stays bounded, so inserts and erases pair up.
    tree.emplace(key, x);
    if (tree.size() > 384) tree.erase(tree.begin());
    table[key.substr(0, 13)] += x & 0xff;
    auto hit = table.find(key.substr(0, 13));
    acc += hit == table.end() ? 0 : hit->second;
  };
  // Untimed warm-up on the same containers: faults in heap pages (a large
  // free just before may have handed them back to the OS) and warms the
  // caches, so the timed rounds measure the host's speed rather than the
  // cache state the caller's work left behind.
  for (int i = 0; i < kWarmRounds; ++i) round(i);
  const std::uint64_t start = WallNs();
  for (int i = kWarmRounds; i < kWarmRounds + kKernelRounds; ++i) round(i);
  const std::uint64_t elapsed = WallNs() - start;
  g_kernel_sink = acc + tree.size() + table.size();
  return elapsed;
}

Stopwatch::Stopwatch(int classes)
    : cal_(static_cast<std::size_t>(classes)),
      raw_(static_cast<std::size_t>(classes)) {}

void Stopwatch::Start() {
  kernel_before_ = RunReferenceKernel();
  speeds_.push_back(kNominalKernelNs / static_cast<double>(kernel_before_));
  running_ = true;
  cpu_start_ = ThreadCpuNs();
  window_start_ = WallNs();
}

void Stopwatch::Roll() {
  const std::uint64_t end = WallNs();
  const std::uint64_t cpu = ThreadCpuNs();
  CloseWindow(end, cpu);
  cpu_start_ = ThreadCpuNs();
  window_start_ = WallNs();
}

void Stopwatch::Stop() {
  if (!running_) return;
  const std::uint64_t end = WallNs();
  const std::uint64_t cpu = ThreadCpuNs();
  CloseWindow(end, cpu);
  running_ = false;
}

void Stopwatch::CloseWindow(std::uint64_t end_ns, std::uint64_t end_cpu) {
  const std::uint64_t kernel_after = RunReferenceKernel();
  speeds_.push_back(kNominalKernelNs / static_cast<double>(kernel_after));
  const double kernel =
      0.5 * static_cast<double>(kernel_before_ + kernel_after);
  const double scale = kNominalKernelNs / kernel;
  kernel_before_ = kernel_after;

  const double raw = static_cast<double>(end_ns - window_start_);
  const double cpu = static_cast<double>(end_cpu - cpu_start_);
  busy_raw_ns_ += raw;
  busy_cal_ns_ += raw * scale;
  cpu_raw_ns_ += cpu;
  for (const Pending& p : pending_) {
    const auto cls = static_cast<std::size_t>(p.cls);
    raw_[cls].push_back(static_cast<double>(p.raw_ns));
    cal_[cls].push_back(static_cast<double>(p.raw_ns) * scale);
  }
  pending_.clear();
}

}  // namespace perfbench
