// Calibrated time: timings that repeat on a host whose speed drifts.
//
// The host this benchmark was tuned on is a shared 4-vCPU guest whose
// speed wanders by tens of percent between runs, so raw wall time of a
// fixed op stream does not repeat.  Every timed phase is therefore cut
// into windows of at least kWindowNs; the calling thread runs a reference
// kernel at each window boundary, and the window's raw times are rescaled
// by kNominalKernelNs / (mean of the kernel times just before and after).  A host that is
// 20% slow for a while runs the kernel 20% slower too, so the rescaled
// ("calibrated") time stays put.  Raw values are kept beside the
// calibrated ones so drift stays visible in every log.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Monotonic wall clock (steady_clock), in ns.
std::uint64_t WallNs();
/// CPU time consumed so far by the calling thread, in ns.
std::uint64_t ThreadCpuNs();
/// CPU time consumed so far by the whole process (all threads), in ns.
std::uint64_t ProcessCpuNs();

/// Runs the reference kernel once and returns its raw wall time in ns.
/// Fixed standard-library work -- string formatting, std::map node churn
/// and unordered_map lookups -- that calls nothing from src/, so a change
/// to the program under test can never change the yardstick.
std::uint64_t RunReferenceKernel();

/// Kernel time that calibrated time is expressed against: calibrated
/// times read as "ns on a host that runs the kernel in exactly 1 ms" (a
/// quiet 4-vCPU KVM guest runs it in about 0.94 ms).
inline constexpr double kNominalKernelNs = 1.0e6;

/// Shortest window one kernel run calibrates.
inline constexpr std::uint64_t kWindowNs = 25'000'000;

/// Per-thread calibrated stopwatch.  Start() runs the opening kernel;
/// the caller then times its own work, hands latency samples to
/// AddSample() and calls Tick() after each unit of work; Stop() closes the
/// last window.  Only time inside windows counts as busy time -- kernel
/// runs are excluded.
class Stopwatch {
 public:
  /// `classes`: number of latency-sample classes AddSample accepts.
  explicit Stopwatch(int classes = 0);

  void Start();
  void AddSample(int cls, std::uint64_t raw_ns) {
    pending_.push_back({cls, raw_ns});
  }
  /// Closes the window (kernel run + rescale) once it is kWindowNs long.
  void Tick(std::uint64_t now_ns) {
    if (now_ns - window_start_ >= kWindowNs) Roll();
  }
  void Stop();
  /// Closes the current window so the caller's next work (input
  /// generation, say) is not counted; Resume() opens the next window.
  void Pause() { Stop(); }
  void Resume() {
    running_ = true;
    cpu_start_ = ThreadCpuNs();
    window_start_ = WallNs();
  }

  /// Busy (in-window) time, raw and calibrated.
  double busy_raw_ns() const { return busy_raw_ns_; }
  double busy_cal_ns() const { return busy_cal_ns_; }
  /// The calling thread's CPU time inside windows (raw): everything else
  /// it spent -- kernel runs, paused input generation -- is not the
  /// program's.
  double cpu_raw_ns() const { return cpu_raw_ns_; }
  /// Latency samples of class `cls` (calibrated / raw ns), window order.
  const std::vector<double>& cal_samples(int cls) const { return cal_[cls]; }
  const std::vector<double>& raw_samples(int cls) const { return raw_[cls]; }
  /// nominal / kernel time, one entry per kernel run (>1 = host faster
  /// than nominal).
  const std::vector<double>& kernel_speeds() const { return speeds_; }

 private:
  struct Pending {
    int cls;
    std::uint64_t raw_ns;
  };
  void Roll();
  void CloseWindow(std::uint64_t end_ns, std::uint64_t end_cpu);

  std::uint64_t window_start_ = 0;
  std::uint64_t cpu_start_ = 0;
  std::uint64_t kernel_before_ = 0;
  std::vector<Pending> pending_;
  std::vector<std::vector<double>> cal_;
  std::vector<std::vector<double>> raw_;
  std::vector<double> speeds_;
  double busy_raw_ns_ = 0;
  double busy_cal_ns_ = 0;
  double cpu_raw_ns_ = 0;
  bool running_ = false;
};

}  // namespace perfbench
