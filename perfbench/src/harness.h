// Shared machinery of the three workloads: options, spans, the timed
// closed-loop client, inline maintenance, and the workload interface that
// RunBenchmark (harness.cc) runs end to end.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc.h"
#include "calib.h"
#include "h2/h2cloud.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// > 0: every client runs exactly this many ops per measured phase,
  /// one set-up, and the run prints its exact counters (the guard tests'
  /// mode).
  std::uint64_t fixed_ops = 0;
  /// Where the traced run writes its spans ("" = do not write).
  std::string spans_out;
};

/// Latency classes of the end-to-end metrics.  Mutate covers MKDIR,
/// RMDIR, MOVE, RENAME, COPY and REMOVE; upload is one WriteFiles call.
enum OpClass : int { kStat, kRead, kList, kWrite, kMutate, kUpload, kOpClasses };
const char* OpClassName(int cls);

// --- spans -------------------------------------------------------------------

/// Every span the benchmark records: around FileSystem calls, around the
/// maintenance sub-calls, around phases, and around direct layer probes.
enum class SpanId : std::uint16_t {
  kFsStat, kFsRead, kFsList, kFsWrite, kFsMkdir, kFsRmdir, kFsMove,
  kFsRename, kFsCopy, kFsRemove, kFsUpload,
  kMaintStep, kMergePending, kLazyCleanup, kCompactHistory, kGossipStep,
  kRepairStep, kRebalanceStep, kAddStorageNode,
  kProbeResolve, kProbeRingParse, kProbeRingSerialize, kProbeRingCopy,
  kProbeDirRecordParse, kProbeCloudHead, kProbeCloudGet, kProbeCloudPut,
  kProbeCloudDelete, kProbeBatch, kProbeReplicasOfHash, kProbeMd5,
  kProbeNodeHead, kProbeNodeGet, kProbeNodePut, kProbeBackendPut,
  kProbeWrite, kProbeRmdir,
  kCount
};
const char* SpanName(SpanId id);
/// The layer (module) a span's self time is charged to.
const char* SpanLayer(SpanId id);

struct Span {
  SpanId name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op_id = 0;   // client << 40 | op sequence; 0 = none
};

/// One thread's span buffer; spans stay in memory until the run ends.
class SpanSink {
 public:
  explicit SpanSink(std::uint64_t thread) : next_id_((thread << 40) | 1) {}
  std::uint64_t NewId() { return next_id_++; }
  void Add(SpanId name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t start, std::uint64_t end, std::uint64_t op_id) {
    spans_.push_back(Span{name, id, parent, start, end, op_id});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

// --- maintenance -------------------------------------------------------------

/// Which part of H2Cloud::RunMaintenanceStep a caller performs: the
/// per-middleware sub-calls for middlewares [mw_begin, mw_end), then the
/// gossip round, then (if `substrate`) the repair and rebalance steps.
struct MaintScope {
  std::size_t mw_begin = 0;
  std::size_t mw_end = 0;
  bool gossip = false;
  bool substrate = false;
  bool empty() const { return mw_begin == mw_end && !gossip && !substrate; }
};

/// Performs one maintenance step over `scope`.  Untraced, a scope covering
/// the whole cloud is exactly H2Cloud::RunMaintenanceStep(); traced (or
/// partial), the step goes through the public sub-calls that function
/// documents, with one span each under a kMaintStep parent.  Returns the
/// work count RunMaintenanceStep would.
std::size_t MaintenanceStep(h2::H2Cloud& cloud, const MaintScope& scope,
                            SpanSink* spans, std::uint64_t op_id);
MaintScope WholeCloud(h2::H2Cloud& cloud);
bool Quiescent(h2::H2Cloud& cloud);

/// Step cap of Quiesce, as H2Cloud::RunMaintenanceToQuiescence's default.
inline constexpr std::size_t kMaxQuiesceSteps = 10'000;
/// Whole-cloud maintenance steps until quiescence, ticking `watch`; at
/// most kMaxQuiesceSteps.  Returns whether quiescence was reached.
bool Quiesce(h2::H2Cloud& cloud, Stopwatch& watch, SpanSink* spans);
/// Quiesce for a set-up: exits with a message when it is not reached.
void MustQuiesce(h2::H2Cloud& cloud, Stopwatch& watch);

/// Inline maintenance cadence of every workload: one step after every
/// kMaintEvery ops of the client that owns maintenance.
inline constexpr std::uint64_t kMaintEvery = 64;

// --- the closed-loop client ----------------------------------------------------

struct ClientRun {
  explicit ClientRun(int client) : client(client), watch(kOpClasses) {}

  int client;
  Stopwatch watch;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  h2::OpCost cost;            // summed foreground virtual cost
  AllocCounts allocs;         // during timed ops (traced binary only)
  double maint_raw_ns = 0;    // inline maintenance, inside windows
  SpanSink* spans = nullptr;  // non-null in the traced phase
  /// A phase runs a fixed number of ops, so the work it measures -- and
  /// with it memory and virtual time -- does not depend on how fast the
  /// host or the program is; the raw deadline only keeps a run on a very
  /// slow host from running on.
  std::uint64_t op_budget = 0;
  std::uint64_t deadline_ns = 0;

  bool Done() const { return ops >= op_budget || WallNs() >= deadline_ns; }
  std::uint64_t OpId() const {
    return (static_cast<std::uint64_t>(client) << 40) | (ops + 1);
  }
};

/// Times one FileSystem call: latency sample, virtual cost, failure,
/// allocation count and (traced) span.
template <class Call>
void TimedOp(ClientRun& run, h2::FileSystem& fs, int cls, SpanId span,
             Call&& call) {
  const AllocCounts a0 = ThreadAllocCounts();
  const std::uint64_t t0 = WallNs();
  const h2::Status status = call();
  const std::uint64_t t1 = WallNs();
  const AllocCounts a1 = ThreadAllocCounts();
  run.allocs.allocs += a1.allocs - a0.allocs;
  run.allocs.bytes += a1.bytes - a0.bytes;
  run.watch.AddSample(cls, t1 - t0);
  run.cost += fs.last_op();
  if (run.spans != nullptr) {
    run.spans->Add(span, run.spans->NewId(), 0, t0, t1, run.OpId());
  }
  ++run.ops;
  if (!status.ok() && run.failed++ == 0) {
    run.first_failure = std::string(SpanName(span)) + ": " + status.ToString();
  }
  run.watch.Tick(t1);
}

// --- workloads -----------------------------------------------------------------

/// Exits with a message when a set-up step fails: a workload whose set-up
/// fails has nothing to measure.
void MustOk(const h2::Status& status, const char* what);

/// A synthetic file: a small sample payload keyed to the path, declaring
/// `size` logical bytes (cluster/object.h).
h2::FileBlob SampleBlob(const std::string& path, std::uint64_t size);

/// A client's private virtual clock domain and jitter stream, bound to its
/// session as the sharded engine binds its shards, so the client's virtual
/// time depends on its own op order only.
struct ClientContext {
  std::unique_ptr<h2::SimClock> clock;
  std::unique_ptr<h2::Rng> jitter;
  void Bind(h2::H2AccountFs& fs, h2::VirtualNanos epoch, int client,
            std::uint64_t seed);
};

/// A file the workload wrote and the logical size it wrote it with.
struct ExpectedFile {
  h2::H2AccountFs* fs = nullptr;
  std::string path;
  std::uint64_t size = 0;
  const std::string* content = nullptr;  // exact bytes, when known
};

/// What the direct layer probes run on: the workload's own sessions,
/// directories and files.
struct ProbeTargets {
  std::vector<std::pair<h2::H2AccountFs*, std::string>> dirs;
  std::vector<std::pair<h2::H2AccountFs*, std::string>> files;
  h2::BackendConfig backend;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Closed-loop clients (one thread each) in the measured phase.
  virtual int clients() const = 0;
  /// Ops each client runs in the measured phase (see OpBudget).
  virtual std::uint64_t op_budget() const = 0;
  /// Setups per run; setup_s is their median.
  virtual int default_setups() const = 0;
  /// One-line description for the log: sizes, backend, mix.
  virtual std::string Describe() const = 0;
  /// Builds a fresh deployment, populates it and quiesces, ticking
  /// `watch` after each unit of work.  Replaces any earlier deployment.
  virtual void Setup(Stopwatch& watch) = 0;
  /// Called once after the last setup, before the measured phase.
  virtual void PrepareClients() {}
  /// Executes client `run.client`'s next op; false when its input is
  /// exhausted.
  virtual bool Step(ClientRun& run) = 0;
  /// The part of the maintenance step client `c` performs inline.
  virtual MaintScope MaintenanceScope(int c) = 0;
  virtual h2::H2Cloud& cloud() = 0;
  /// Every file whose final size the workload knows, in a fixed order.
  virtual std::vector<ExpectedFile> ExpectedFiles() = 0;
  virtual ProbeTargets Targets() = 0;
};

/// A client's op budget: --ops when given, else the ops a client of the
/// unchanged program runs in --seconds of calibrated time on the host the
/// benchmark was tuned on (`nominal_ops_per_s`, measured there).
std::uint64_t OpBudget(const Options& opts, double nominal_ops_per_s);

std::unique_ptr<Workload> MakeHotRead(const Options& opts);
std::unique_ptr<Workload> MakeHeavyTree(const Options& opts);
std::unique_ptr<Workload> MakeIngest(const Options& opts);

/// A cloud shaped like the paper's rack (8 nodes, 3 replicas) with the
/// RackLan latency profile, as the figure benches use.
h2::CloudConfig RackCloudConfig();

// --- results -------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Runs `workload` end to end under `opts` (see harness.cc).
RunResult RunBenchmark(Workload& workload, const Options& opts);

/// Direct per-layer probes after the measured phase (probes.cc).
void RunProbes(Workload& workload, SpanSink& spans, MetricMap& out);

/// Nearest-rank percentile of `values` (sorted in place).
double Percentile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

/// Deterministic 64-bit mix of a seed and a salt.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
