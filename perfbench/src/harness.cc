// The runner: set-ups, measured phases, convergence, correctness checks
// and metric assembly, shared by the three workloads.
#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "common/rng.h"

namespace perfbench {

const char* OpClassName(int cls) {
  static const char* const kNames[kOpClasses] = {"stat",  "read",   "list",
                                                 "write", "mutate", "upload"};
  return kNames[cls];
}

const char* SpanName(SpanId id) {
  static const char* const kNames[] = {
      "fs.stat", "fs.read", "fs.list", "fs.write", "fs.mkdir", "fs.rmdir",
      "fs.move", "fs.rename", "fs.copy", "fs.remove", "fs.upload",
      "maint.step", "maint.merge_pending", "maint.lazy_cleanup",
      "maint.compact_history", "maint.gossip_step", "maint.repair_step",
      "maint.rebalance_step", "cluster.add_storage_node",
      "probe.h2.resolve_path", "probe.codec.ring_parse",
      "probe.codec.ring_serialize", "probe.h2.ring_copy",
      "probe.codec.dir_record_parse", "probe.cloud.head", "probe.cloud.get",
      "probe.cloud.put", "probe.cloud.delete", "probe.cloud.execute_batch",
      "probe.ring.replicas_of_hash", "probe.hash.md5_hash64",
      "probe.node.head", "probe.node.get", "probe.node.put",
      "probe.backend.apply_put", "probe.fs.write", "probe.fs.rmdir"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(SpanId::kCount));
  return kNames[static_cast<std::size_t>(id)];
}

const char* SpanLayer(SpanId id) {
  switch (id) {
    case SpanId::kFsStat: case SpanId::kFsRead: case SpanId::kFsList:
    case SpanId::kFsWrite: case SpanId::kFsMkdir: case SpanId::kFsRmdir:
    case SpanId::kFsMove: case SpanId::kFsRename: case SpanId::kFsCopy:
    case SpanId::kFsRemove: case SpanId::kFsUpload: case SpanId::kProbeWrite:
    case SpanId::kProbeRmdir:
      return "H2AccountFs";
    case SpanId::kMaintStep: case SpanId::kMergePending:
    case SpanId::kLazyCleanup: case SpanId::kCompactHistory:
      return "h2.maintenance";
    case SpanId::kProbeResolve:
      return "h2.resolution";
    case SpanId::kProbeRingParse: case SpanId::kProbeRingSerialize:
    case SpanId::kProbeRingCopy: case SpanId::kProbeDirRecordParse:
      return "codec";
    case SpanId::kGossipStep:
      return "gossip";
    case SpanId::kRepairStep: case SpanId::kRebalanceStep:
    case SpanId::kAddStorageNode: case SpanId::kProbeCloudHead:
    case SpanId::kProbeCloudGet: case SpanId::kProbeCloudPut:
    case SpanId::kProbeCloudDelete: case SpanId::kProbeBatch:
      return "ObjectCloud";
    case SpanId::kProbeReplicasOfHash: case SpanId::kProbeMd5:
      return "ring+hash";
    case SpanId::kProbeNodeHead: case SpanId::kProbeNodeGet:
    case SpanId::kProbeNodePut:
      return "StorageNode";
    case SpanId::kProbeBackendPut:
      return "StorageBackend";
    case SpanId::kCount:
      break;
  }
  return "?";
}

// --- maintenance ---------------------------------------------------------------

MaintScope WholeCloud(h2::H2Cloud& cloud) {
  return MaintScope{0, cloud.middleware_count(), true, true};
}

bool Quiescent(h2::H2Cloud& cloud) {
  bool idle = cloud.gossip().Idle();
  for (std::size_t i = 0; i < cloud.middleware_count(); ++i) {
    idle = idle && cloud.middleware(i).MaintenanceIdle();
  }
  return idle;
}

namespace {

template <class Call>
std::size_t SubCall(SpanSink* spans, SpanId name, std::uint64_t parent,
                    std::uint64_t op_id, Call&& call) {
  if (spans == nullptr) return call();
  const std::uint64_t t0 = WallNs();
  const std::size_t work = call();
  spans->Add(name, spans->NewId(), parent, t0, WallNs(), op_id);
  return work;
}

}  // namespace

std::size_t MaintenanceStep(h2::H2Cloud& cloud, const MaintScope& scope,
                            SpanSink* spans, std::uint64_t op_id) {
  const bool whole = scope.mw_begin == 0 &&
                     scope.mw_end == cloud.middleware_count() &&
                     scope.gossip && scope.substrate;
  if (spans == nullptr && whole) return cloud.RunMaintenanceStep();

  // The sub-call sequence of H2Cloud::RunMaintenanceStep, in its order and
  // with its arguments.
  const std::uint64_t t0 = WallNs();
  const std::uint64_t parent = spans != nullptr ? spans->NewId() : 0;
  std::size_t work = 0;
  for (std::size_t i = scope.mw_begin; i < scope.mw_end; ++i) {
    h2::H2Middleware& mw = cloud.middleware(i);
    work += SubCall(spans, SpanId::kMergePending, parent, op_id,
                    [&] { return mw.MergePending(); });
    work += SubCall(spans, SpanId::kLazyCleanup, parent, op_id,
                    [&] { return mw.RunLazyCleanup(256); });
    work += SubCall(spans, SpanId::kCompactHistory, parent, op_id,
                    [&] { return mw.CompactRingHistory(64); });
  }
  if (scope.gossip) {
    work += SubCall(spans, SpanId::kGossipStep, parent, op_id,
                    [&] { return cloud.gossip().Step(); });
  }
  if (scope.substrate) {
    work += SubCall(spans, SpanId::kRepairStep, parent, op_id,
                    [&] { return cloud.cloud().RunRepairStep(); });
    work += SubCall(spans, SpanId::kRebalanceStep, parent, op_id,
                    [&] { return cloud.cloud().RunRebalanceStep(); });
  }
  if (spans != nullptr) {
    spans->Add(SpanId::kMaintStep, parent, 0, t0, WallNs(), op_id);
  }
  return work;
}

bool Quiesce(h2::H2Cloud& cloud, Stopwatch& watch, SpanSink* spans) {
  for (std::size_t step = 0; step < kMaxQuiesceSteps; ++step) {
    const std::size_t work =
        MaintenanceStep(cloud, WholeCloud(cloud), spans, 0);
    watch.Tick(WallNs());
    if (work == 0 && Quiescent(cloud)) return true;
  }
  return false;
}

void MustOk(const h2::Status& status, const char* what) {
  if (status.ok()) return;
  std::printf("# set-up failed (%s): %s\n", what, status.ToString().c_str());
  std::exit(1);
}

void MustQuiesce(h2::H2Cloud& cloud, Stopwatch& watch) {
  if (Quiesce(cloud, watch, nullptr)) return;
  std::printf("# set-up failed: maintenance not quiescent after %zu steps\n",
              kMaxQuiesceSteps);
  std::exit(1);
}

std::uint64_t OpBudget(const Options& opts, double nominal_ops_per_s) {
  if (opts.fixed_ops > 0) return opts.fixed_ops;
  return static_cast<std::uint64_t>(
      std::llround(nominal_ops_per_s * opts.seconds));
}

h2::FileBlob SampleBlob(const std::string& path, std::uint64_t size) {
  return h2::FileBlob::Synthetic("sample:" + path, size);
}

void ClientContext::Bind(h2::H2AccountFs& fs, h2::VirtualNanos epoch,
                         int client, std::uint64_t seed) {
  // One virtual day apart, like EngineOptions::clock_stride.
  clock = std::make_unique<h2::SimClock>(
      epoch + static_cast<h2::VirtualNanos>(client + 1) * 86'400LL *
                  h2::kSecond);
  jitter = std::make_unique<h2::Rng>(
      MixSeed(seed, 0x200 + static_cast<std::uint64_t>(client)));
  fs.BindExecutionContext(clock.get(), jitter.get());
}

h2::CloudConfig RackCloudConfig() {
  h2::CloudConfig cfg;
  cfg.node_count = 8;  // the paper's rack (§5.1)
  cfg.replica_count = 3;
  cfg.part_power = 10;
  cfg.latency = h2::LatencyProfile::RackLan();
  return cfg;
}

// --- statistics ------------------------------------------------------------------

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  return h2::SplitMix64(seed * 0x9e3779b97f4a7c15ull ^ salt).Next();
}

namespace {

/// Raw wall-time cap of a phase, as a multiple of --seconds: a client of
/// the unchanged program needs about 1x on a quiet host.
constexpr double kRawCapFactor = 6;

// --- counters the program already keeps ----------------------------------------

enum Counter : int {
  kPatchesSubmitted, kPatchesMerged, kMergePasses, kCleanupDeleted,
  kCacheHits, kCacheMisses, kBatches, kBatchedOps, kReadRepairs,
  kHintsReplayed, kKeysMoved, kObjectsCopied, kObjectsDropped,
  kAppendedBytes, kRecordsLogged, kFsyncs, kDelivered, kSuppressed,
  kCounters
};
using Counters = std::array<std::uint64_t, kCounters>;

Counters ReadCounters(h2::H2Cloud& cloud) {
  Counters c{};
  for (std::size_t i = 0; i < cloud.middleware_count(); ++i) {
    const h2::H2Counters h = cloud.middleware(i).counters();
    c[kPatchesSubmitted] += h.patches_submitted;
    c[kPatchesMerged] += h.patches_merged;
    c[kMergePasses] += h.merge_passes;
    c[kCleanupDeleted] += h.cleanup_objects_deleted;
    c[kCacheHits] += h.resolve_cache_hits;
    c[kCacheMisses] += h.resolve_cache_misses;
  }
  h2::ObjectCloud& oc = cloud.cloud();
  const h2::ObjectCloud::BatchStats batch = oc.batch_stats();
  c[kBatches] = batch.batches;
  c[kBatchedOps] = batch.batched_ops;
  const h2::ObjectCloud::RepairStats repair = oc.repair_stats();
  c[kReadRepairs] = repair.read_repairs_pushed;
  c[kHintsReplayed] = repair.hints_replayed;
  const h2::ObjectCloud::RebalanceStats rebalance = oc.rebalance_stats();
  c[kKeysMoved] = rebalance.keys_moved;
  c[kObjectsCopied] = rebalance.objects_copied;
  c[kObjectsDropped] = rebalance.objects_dropped;
  h2::BackendStats backend;
  for (std::size_t i = 0; i < oc.node_count(); ++i) {
    backend += oc.node(i).backend_stats();
  }
  c[kAppendedBytes] = backend.appended_bytes;
  c[kRecordsLogged] = backend.records_logged;
  c[kFsyncs] = backend.fsyncs;
  const h2::GossipStats gossip = cloud.gossip().stats();
  c[kDelivered] = gossip.delivered;
  c[kSuppressed] = gossip.suppressed;
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d{};
  for (int i = 0; i < kCounters; ++i) d[i] = after[i] - before[i];
  return d;
}

void Accumulate(Counters& into, const Counters& delta) {
  for (int i = 0; i < kCounters; ++i) into[i] += delta[i];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- measured phases --------------------------------------------------------------

/// The runs of one or more measured slices; a client that ran in several
/// slices has one ClientRun per slice.
struct Phase {
  std::vector<std::unique_ptr<ClientRun>> runs;
  /// Process CPU time of the slices, less what the client threads spent
  /// outside their windows (kernel runs, input generation): the program's
  /// CPU on every thread, raw ns.
  double program_cpu_ns = 0;
  bool exhausted = false;  // a client ran out of generated input
  bool cut = false;        // a client hit the raw deadline

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& r : runs) n += r->ops;
    return n;
  }
  /// Sum over clients of (their ops / their calibrated or raw busy time).
  double ops_per_s(bool calibrated) const {
    std::map<int, std::pair<double, double>> per_client;  // ops, busy ns
    for (const auto& r : runs) {
      auto& [ops, busy] = per_client[r->client];
      ops += static_cast<double>(r->ops);
      busy += calibrated ? r->watch.busy_cal_ns() : r->watch.busy_raw_ns();
    }
    double total = 0;
    for (const auto& [client, totals] : per_client) {
      total += Ratio(totals.first, totals.second * 1e-9);
    }
    return total;
  }
  /// Raw -> calibrated factor of the slices: busy-time-weighted mean of
  /// their windows' scales.
  double scale() const {
    double raw = 0, cal = 0;
    for (const auto& r : runs) {
      raw += r->watch.busy_raw_ns();
      cal += r->watch.busy_cal_ns();
    }
    return raw > 0 ? cal / raw : 1.0;
  }
  void Absorb(Phase&& other) {
    for (auto& r : other.runs) runs.push_back(std::move(r));
    program_cpu_ns += other.program_cpu_ns;
    exhausted = exhausted || other.exhausted;
    cut = cut || other.cut;
  }
};

class Runner {
 public:
  Runner(Workload& w, const Options& opts)
      : w_(w), opts_(opts), maint_count_(static_cast<std::size_t>(w.clients())) {}

  RunResult Run();

 private:
  Phase RunPhase(int clients, std::uint64_t op_budget, double raw_cap_s,
                 bool traced);
  void Converge(SpanSink* spans);
  void CheckFinalState(RunResult& result);
  void CheckSample(RunResult& result);
  void EndToEnd(const Phase& phase, RunResult& result);
  /// `untraced`, `single`, `traced`: the interleaved slices of the traced
  /// run; `in_traced`: counter deltas over the traced slices; `post`:
  /// over the probes and the convergence; `converge`: over the latter.
  void PerLayer(const Phase& untraced, const Phase& single,
                const Phase& traced, const Counters& in_traced,
                const Counters& post, const Counters& converge,
                RunResult& result);
  void PrintSpans();
  SpanSink& Sink(int thread) {
    return *sinks_[static_cast<std::size_t>(thread)];
  }

  Workload& w_;
  const Options& opts_;
  std::vector<std::uint64_t> maint_count_;
  std::vector<std::unique_ptr<SpanSink>> sinks_;
  std::vector<double> setup_cal_s_, setup_raw_s_;
  double converge_cal_s_ = 0, converge_raw_s_ = 0;
  bool converged_ = false;
  std::vector<double> converge_speeds_;
  MetricMap probe_metrics_;
};

Phase Runner::RunPhase(int clients, std::uint64_t op_budget, double raw_cap_s,
                       bool traced) {
  Phase phase;
  for (int c = 0; c < clients; ++c) {
    phase.runs.push_back(std::make_unique<ClientRun>(c));
    if (traced) phase.runs.back()->spans = &Sink(c);
  }
  std::uint64_t deadline = 0;
  std::barrier start(clients, [&]() noexcept {
    deadline = WallNs() + static_cast<std::uint64_t>(raw_cap_s * 1e9);
  });
  std::vector<char> exhausted(static_cast<std::size_t>(clients), 0);
  std::vector<double> outside_ns(static_cast<std::size_t>(clients), 0);
  auto client = [&](int c) {
    const std::uint64_t cpu0 = ThreadCpuNs();
    ClientRun& run = *phase.runs[static_cast<std::size_t>(c)];
    const MaintScope scope = w_.MaintenanceScope(c);
    std::uint64_t& since_maint = maint_count_[static_cast<std::size_t>(c)];
    start.arrive_and_wait();
    run.deadline_ns = deadline;
    run.op_budget = op_budget;
    run.watch.Start();
    while (!run.Done()) {
      if (!w_.Step(run)) {
        exhausted[static_cast<std::size_t>(c)] = 1;
        break;
      }
      if (!scope.empty() && ++since_maint % kMaintEvery == 0) {
        const std::uint64_t t0 = WallNs();
        MaintenanceStep(w_.cloud(), scope, run.spans, run.OpId());
        const std::uint64_t t1 = WallNs();
        run.maint_raw_ns += static_cast<double>(t1 - t0);
        run.watch.Tick(t1);
      }
    }
    run.watch.Stop();
    outside_ns[static_cast<std::size_t>(c)] =
        static_cast<double>(ThreadCpuNs() - cpu0) - run.watch.cpu_raw_ns();
  };
  const std::uint64_t process0 = ProcessCpuNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  phase.program_cpu_ns = static_cast<double>(ProcessCpuNs() - process0);
  for (double ns : outside_ns) phase.program_cpu_ns -= ns;
  for (std::size_t c = 0; c < exhausted.size(); ++c) {
    phase.exhausted = phase.exhausted || exhausted[c] != 0;
    phase.cut = phase.cut || (exhausted[c] == 0 &&
                              phase.runs[c]->ops < op_budget);
  }
  if (phase.cut) {
    std::printf("# note: a client hit the %.0f s raw deadline before its "
                "%" PRIu64 " ops; this run measured less work\n",
                raw_cap_s, op_budget);
  }
  return phase;
}

void Runner::Converge(SpanSink* spans) {
  h2::H2Cloud& cloud = w_.cloud();
  Stopwatch watch;
  watch.Start();
  const std::uint64_t t0 = WallNs();
  const h2::Result<h2::DeviceId> added = cloud.AddStorageNode();
  if (spans != nullptr) {
    spans->Add(SpanId::kAddStorageNode, spans->NewId(), 0, t0, WallNs(), 0);
  }
  if (!added.ok()) {
    std::printf("# AddStorageNode failed: %s\n",
                added.status().ToString().c_str());
  }
  converged_ = Quiesce(cloud, watch, spans);
  watch.Stop();
  converge_cal_s_ = watch.busy_cal_ns() * 1e-9;
  converge_raw_s_ = watch.busy_raw_ns() * 1e-9;
  converge_speeds_ = watch.kernel_speeds();
}

void Runner::CheckFinalState(RunResult& result) {
  h2::H2Cloud& cloud = w_.cloud();
  if (!converged_) {
    result.Fail("maintenance not quiescent after " +
                std::to_string(kMaxQuiesceSteps) + " steps");
  }
  if (cloud.cloud().RebalancePending() != 0) {
    result.Fail("rebalance queue not empty after converge");
  }
  const std::uint64_t divergent = cloud.cloud().DivergentKeyCount();
  if (divergent != 0) {
    result.Fail("DivergentKeyCount = " + std::to_string(divergent));
  }
  std::printf("# final state: quiescent=%d rebalance_pending=%zu divergent=%" PRIu64
              "\n",
              Quiescent(cloud) ? 1 : 0, cloud.cloud().RebalancePending(),
              divergent);
}

void Runner::CheckSample(RunResult& result) {
  std::vector<ExpectedFile> files = w_.ExpectedFiles();
  h2::Rng rng(MixSeed(opts_.seed, 0x5a4d));
  const std::size_t sample = std::min<std::size_t>(256, files.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < sample; ++i) {
    const ExpectedFile& f = files[rng.Below(files.size())];
    h2::Result<h2::FileBlob> blob = f.fs->ReadFile(f.path);
    const bool ok = blob.ok() && blob->logical_size == f.size &&
                    (f.content == nullptr || blob->data == *f.content);
    if (!ok) {
      if (bad++ < 3) {
        std::printf("# read-back mismatch %s: %s\n", f.path.c_str(),
                    blob.ok() ? ("size " + std::to_string(blob->logical_size) +
                                 " want " + std::to_string(f.size))
                                    .c_str()
                              : blob.status().ToString().c_str());
      }
    }
  }
  std::printf("# read-back sample: %zu of %zu written files, %zu mismatched\n",
              sample, files.size(), bad);
  if (bad > 0 || sample == 0) result.Fail("read-back sample mismatched");
}

void PrintSpeeds(const char* what, const std::vector<double>& speeds) {
  if (speeds.empty()) return;
  std::vector<double> s = speeds;
  std::sort(s.begin(), s.end());
  std::printf("# calibration %s: kernel speed vs nominal median %.3f "
              "(min %.3f, max %.3f, %zu kernel runs)\n",
              what, Median(s), s.front(), s.back(), s.size());
}

void Put(MetricMap& m, const std::string& name, double value,
         const char* unit) {
  m[name] = Metric{value, unit};
}

void Runner::EndToEnd(const Phase& phase, RunResult& result) {
  MetricMap& m = result.metrics;
  const double ops = static_cast<double>(phase.ops());
  const double cpu_raw = phase.program_cpu_ns;
  const double cpu_cal = cpu_raw * phase.scale();
  std::vector<double> speeds;
  h2::OpCost cost;
  for (const auto& r : phase.runs) {
    speeds.insert(speeds.end(), r->watch.kernel_speeds().begin(),
                  r->watch.kernel_speeds().end());
    cost += r->cost;
  }
  PrintSpeeds("measured phase", speeds);

  auto report = [&](const std::string& name, double cal, double raw,
                    const char* unit, std::size_t n) {
    Put(m, name, cal, unit);
    if (n > 0) {
      std::printf("# %-18s %14.4f %-5s (raw %.4f, n=%zu)\n", name.c_str(),
                  cal, unit, raw, n);
    } else {
      std::printf("# %-18s %14.4f %-5s (raw %.4f)\n", name.c_str(), cal, unit,
                  raw);
    }
  };
  report("ops_per_s", phase.ops_per_s(true), phase.ops_per_s(false), "ops/s",
         phase.ops());
  report("cpu_us_per_op", Ratio(cpu_cal, ops) * 1e-3,
         Ratio(cpu_raw, ops) * 1e-3, "us", phase.ops());
  for (int cls = 0; cls < kOpClasses; ++cls) {
    std::vector<double> cal, raw;
    for (const auto& r : phase.runs) {
      cal.insert(cal.end(), r->watch.cal_samples(cls).begin(),
                 r->watch.cal_samples(cls).end());
      raw.insert(raw.end(), r->watch.raw_samples(cls).begin(),
                 r->watch.raw_samples(cls).end());
    }
    if (cal.empty()) continue;
    const std::string base = OpClassName(cls);
    const std::size_t n = cal.size();
    report(base + "_p50_us", Percentile(cal, 0.5) * 1e-3,
           Percentile(raw, 0.5) * 1e-3, "us", n);
    // The highest percentile with at least ten samples beyond it.
    if (n >= 1000) {
      report(base + "_p99_us", Percentile(cal, 0.99) * 1e-3,
             Percentile(raw, 0.99) * 1e-3, "us", n);
    }
  }
  report("setup_s", Median(setup_cal_s_), Median(setup_raw_s_), "s",
         setup_cal_s_.size());
  report("converge_s", converge_cal_s_, converge_raw_s_, "s", 0);
  Put(m, "virtual_ms_per_op",
      Ratio(static_cast<double>(cost.elapsed), ops) * 1e-6, "ms");
  std::printf("# %-18s %14.6f ms    (virtual, not calibrated)\n",
              "virtual_ms_per_op", m["virtual_ms_per_op"].value);
  Put(m, "peak_rss_mb", PeakRssMb(), "MB");
  std::printf("# %-18s %14.1f MB\n", "peak_rss_mb", m["peak_rss_mb"].value);
}

void Runner::PerLayer(const Phase& untraced, const Phase& single,
                      const Phase& traced, const Counters& in_traced,
                      const Counters& post, const Counters& converge,
                      RunResult& result) {
  MetricMap& m = result.metrics;
  const double ops = static_cast<double>(traced.ops());
  auto per_op = [&](Counter c) {
    return Ratio(static_cast<double>(in_traced[c]), ops);
  };
  auto ratio = [](const Counters& c, Counter num, Counter den) {
    return Ratio(static_cast<double>(c[num]), static_cast<double>(c[den]));
  };
  // Work done by the traced slices plus the probes and the convergence:
  // the span-timed maintenance sub-calls ran over exactly these.
  auto spanned = [&](Counter c) {
    return static_cast<double>(in_traced[c] + post[c]);
  };

  std::vector<double> total(static_cast<std::size_t>(SpanId::kCount), 0);
  std::vector<double> count(static_cast<std::size_t>(SpanId::kCount), 0);
  for (const auto& sink : sinks_) {
    for (const Span& s : sink->spans()) {
      const auto i = static_cast<std::size_t>(s.name);
      total[i] += static_cast<double>(s.end_ns - s.start_ns);
      count[i] += 1;
    }
  }
  auto span_ns = [&](SpanId id) { return total[static_cast<std::size_t>(id)]; };
  auto span_n = [&](SpanId id) { return count[static_cast<std::size_t>(id)]; };

  h2::OpCost cost;
  double busy_raw = 0, maint_raw = 0;
  AllocCounts allocs;
  for (const auto& r : traced.runs) {
    cost += r->cost;
    busy_raw += r->watch.busy_raw_ns();
    maint_raw += r->maint_raw_ns;
    allocs.allocs += r->allocs.allocs;
    allocs.bytes += r->allocs.bytes;
  }

  // h2: resolution and maintenance.
  Put(m, "h2.resolve_cache.hit_ratio",
      Ratio(static_cast<double>(in_traced[kCacheHits]),
            static_cast<double>(in_traced[kCacheHits] +
                                in_traced[kCacheMisses])),
      "ratio");
  Put(m, "h2.patches_per_op", per_op(kPatchesSubmitted), "count");
  Put(m, "h2.merge.patches_per_pass",
      ratio(in_traced, kPatchesMerged, kMergePasses), "count");
  Put(m, "h2.merge.ns_per_patch",
      Ratio(span_ns(SpanId::kMergePending), spanned(kPatchesMerged)), "ns");
  Put(m, "h2.cleanup.ns_per_object",
      Ratio(span_ns(SpanId::kLazyCleanup), spanned(kCleanupDeleted)), "ns");
  Put(m, "maint.share_of_busy", Ratio(maint_raw, busy_raw), "ratio");

  // ObjectCloud: the per-op primitive mix of the traced slices.
  Put(m, "cloud.primitives_per_op",
      Ratio(static_cast<double>(cost.object_primitives()), ops), "count");
  Put(m, "cloud.heads_per_op", Ratio(static_cast<double>(cost.heads), ops),
      "count");
  Put(m, "cloud.gets_per_op", Ratio(static_cast<double>(cost.gets), ops),
      "count");
  Put(m, "cloud.puts_per_op", Ratio(static_cast<double>(cost.puts), ops),
      "count");
  Put(m, "cloud.failed_ops_per_op",
      Ratio(static_cast<double>(cost.failed_ops), ops), "count");
  Put(m, "cloud.batch.lanes_per_batch", ratio(in_traced, kBatchedOps, kBatches),
      "count");
  Put(m, "cloud.read_repairs_per_op", per_op(kReadRepairs), "count");
  Put(m, "cloud.hints_replayed", spanned(kHintsReplayed), "count");
  const double moved = static_cast<double>(converge[kKeysMoved]);
  Put(m, "cloud.rebalance.keys_moved", moved, "count");
  Put(m, "cloud.rebalance.ns_per_key",
      Ratio(span_ns(SpanId::kRebalanceStep), moved), "ns");

  // StorageBackend counters of the traced slices.
  Put(m, "backend.appended_bytes_per_op", per_op(kAppendedBytes), "B");
  Put(m, "backend.records_per_op", per_op(kRecordsLogged), "count");
  Put(m, "backend.fsyncs_per_op", per_op(kFsyncs), "count");

  // GossipBus.
  Put(m, "gossip.deliveries_per_op", per_op(kDelivered), "count");
  Put(m, "gossip.stale_ratio", ratio(in_traced, kSuppressed, kDelivered),
      "ratio");
  Put(m, "gossip.step.ns_per_round",
      Ratio(span_ns(SpanId::kGossipStep), span_n(SpanId::kGossipStep)), "ns");

  // Client threads: T clients against client 0 alone, both untraced.
  const double clients = static_cast<double>(w_.clients());
  Put(m, "engine.scaling_efficiency",
      single.runs.empty()
          ? 1.0
          : Ratio(untraced.ops_per_s(true), clients * single.ops_per_s(true)),
      "ratio");
  Put(m, "engine.busy_over_cpu", Ratio(busy_raw, traced.program_cpu_ns),
      "ratio");

  // Memory.
  Put(m, "alloc.per_op", Ratio(static_cast<double>(allocs.allocs), ops),
      "count");
  Put(m, "alloc.bytes_per_op", Ratio(static_cast<double>(allocs.bytes), ops),
      "B");

  // Tracing overhead: traced against untraced slices, interleaved so
  // that drift in the host or in the workload's state hits both alike.
  const double plain = untraced.ops_per_s(true);
  const double spanned_rate = traced.ops_per_s(true);
  Put(m, "trace.overhead_ratio", Ratio(plain - spanned_rate, plain), "ratio");
  std::printf("# tracing overhead: untraced %.1f ops/s, traced %.1f ops/s "
              "(calibrated), difference %.1f ops/s\n",
              plain, spanned_rate, plain - spanned_rate);

  for (const auto& [name, metric] : probe_metrics_) m[name] = metric;
  for (const auto& [name, metric] : m) {
    std::printf("# %-36s %16.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void Runner::PrintSpans() {
  // Self time: a span's duration minus the part its direct children cover.
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const auto& sink : sinks_) {
    for (const Span& s : sink->spans()) {
      if (s.parent != 0) {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  const auto kinds = static_cast<std::size_t>(SpanId::kCount);
  std::vector<double> total(kinds, 0), self(kinds, 0), n(kinds, 0);
  std::map<std::string, double> layer_self;
  double all_self = 0;
  for (const auto& sink : sinks_) {
    for (const Span& s : sink->spans()) {
      const auto i = static_cast<std::size_t>(s.name);
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      auto it = child_ns.find(s.id);
      const double own = dur - (it == child_ns.end() ? 0 : it->second);
      total[i] += dur;
      self[i] += own;
      n[i] += 1;
      layer_self[SpanLayer(s.name)] += own;
      all_self += own;
    }
  }
  std::printf("# spans (raw ns): name, layer, count, total ms, self ms\n");
  for (std::size_t i = 0; i < kinds; ++i) {
    if (n[i] == 0) continue;
    const auto id = static_cast<SpanId>(i);
    std::printf("#   %-30s %-15s %9.0f %10.2f %10.2f\n", SpanName(id),
                SpanLayer(id), n[i], total[i] * 1e-6, self[i] * 1e-6);
  }
  std::printf("# self time by layer:\n");
  for (const auto& [layer, ns] : layer_self) {
    std::printf("#   %-15s %10.2f ms  %5.1f%%\n", layer.c_str(), ns * 1e-6,
                100.0 * Ratio(ns, all_self));
  }
  if (opts_.spans_out.empty()) return;
  std::FILE* f = std::fopen(opts_.spans_out.c_str(), "w");
  if (f == nullptr) {
    std::printf("# cannot write spans to %s\n", opts_.spans_out.c_str());
    return;
  }
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\top_id\n");
  for (const auto& sink : sinks_) {
    for (const Span& s : sink->spans()) {
      std::fprintf(f, "%s\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
                      "\t%" PRIu64 "\n",
                   SpanName(s.name), s.start_ns, s.end_ns, s.id, s.parent,
                   s.op_id);
    }
  }
  std::fclose(f);
}

RunResult Runner::Run() {
  RunResult result;
  h2::H2Cloud* cloud = nullptr;
  const int clients = w_.clients();
  const bool fixed = opts_.fixed_ops > 0;
  std::printf("# workload %s seed %" PRIu64 " trace %d: %s\n", w_.name(),
              opts_.seed, opts_.trace ? 1 : 0, w_.Describe().c_str());
  for (int t = 0; t <= clients; ++t) {
    sinks_.push_back(std::make_unique<SpanSink>(static_cast<std::uint64_t>(t)));
  }

  // Set-up, several times: setup_s is the median.
  const int setups = fixed || opts_.trace ? 1 : w_.default_setups();
  std::vector<double> setup_speeds;
  for (int i = 0; i < setups; ++i) {
    Stopwatch watch;
    watch.Start();
    w_.Setup(watch);
    watch.Stop();
    setup_cal_s_.push_back(watch.busy_cal_ns() * 1e-9);
    setup_raw_s_.push_back(watch.busy_raw_ns() * 1e-9);
    setup_speeds.insert(setup_speeds.end(), watch.kernel_speeds().begin(),
                        watch.kernel_speeds().end());
    std::printf("# setup %d: %.4f s calibrated (raw %.4f s)\n", i + 1,
                setup_cal_s_.back(), setup_raw_s_.back());
  }
  PrintSpeeds("set-up", setup_speeds);
  cloud = &w_.cloud();
  w_.PrepareClients();

  // Measured phase: every client runs the workload's op budget.
  // Untraced, in one phase.  Traced, in four slices of a quarter each,
  // untraced (A) and traced (B) alternating A B B A, so drift in the host
  // or in the workload's state hits both alike; then client 0 runs a
  // tenth alone for the scaling efficiency.
  Phase main_phase, single_phase, traced_phase;
  Counters in_traced{};
  const std::uint64_t budget = w_.op_budget();
  const double cap_s = kRawCapFactor * opts_.seconds;
  if (!opts_.trace) {
    main_phase = RunPhase(clients, budget, cap_s, false);
  } else {
    for (const bool traced : {false, true, true, false}) {
      if (!traced) {
        main_phase.Absorb(RunPhase(clients, budget / 4, cap_s / 4, false));
        continue;
      }
      const Counters before = ReadCounters(*cloud);
      traced_phase.Absorb(RunPhase(clients, budget / 4, cap_s / 4, true));
      Accumulate(in_traced, Delta(ReadCounters(*cloud), before));
    }
    if (clients > 1 && !fixed) {
      single_phase = RunPhase(1, budget / 10, cap_s / 10, false);
    }
  }
  const std::vector<const Phase*> phases = {&main_phase, &single_phase,
                                            &traced_phase};
  for (const Phase* p : phases) {
    if (p->exhausted) result.Fail("a client ran out of generated input");
    for (const auto& r : p->runs) {
      result.attempted += r->ops;
      result.failed += r->failed;
      if (r->failed > 0) {
        std::printf("# client %d: %" PRIu64 " failed ops, first: %s\n",
                    r->client, r->failed, r->first_failure.c_str());
      }
    }
  }
  if (result.failed > 0) result.Fail("operations failed");
  if (fixed) {
    std::printf("# guard dump_fnv1a %016" PRIx64 "\n",
                Fnv1a(cloud->cloud().DebugDump()));
  }

  const Counters post_start = ReadCounters(*cloud);
  if (opts_.trace) RunProbes(w_, Sink(clients), probe_metrics_);
  const Counters converge_start = ReadCounters(*cloud);
  Converge(opts_.trace ? &Sink(clients) : nullptr);
  const Counters end = ReadCounters(*cloud);
  PrintSpeeds("converge", converge_speeds_);
  CheckFinalState(result);
  CheckSample(result);

  if (!opts_.trace) {
    EndToEnd(main_phase, result);
  } else {
    PerLayer(main_phase, single_phase, traced_phase, in_traced,
             Delta(end, post_start), Delta(end, converge_start), result);
    PrintSpans();
  }
  if (fixed) {
    // Exact counters the guard tests compare between same-seed runs.
    h2::OpCost cost;
    AllocCounts allocs;
    for (const Phase* ph : phases) {
      for (const auto& r : ph->runs) {
        cost += r->cost;
        allocs.allocs += r->allocs.allocs;
        allocs.bytes += r->allocs.bytes;
      }
    }
    std::printf("# guard ops %" PRIu64 " virtual_ns %" PRId64
                " primitives %" PRIu64 "\n",
                result.attempted, cost.elapsed, cost.object_primitives());
    std::printf("# guard allocs %" PRIu64 " alloc_bytes %" PRIu64 "\n",
                allocs.allocs, allocs.bytes);
    std::printf("# guard backend.appended_bytes %" PRIu64
                " backend.records %" PRIu64 " backend.fsyncs %" PRIu64 "\n",
                end[kAppendedBytes], end[kRecordsLogged], end[kFsyncs]);
    std::printf("# guard rebalance.keys_moved %" PRIu64
                " rebalance.objects_copied %" PRIu64
                " rebalance.objects_dropped %" PRIu64 "\n",
                end[kKeysMoved], end[kObjectsCopied], end[kObjectsDropped]);
  }
  for (const std::string& p : result.problems) {
    std::printf("# INCORRECT: %s\n", p.c_str());
  }
  return result;
}

}  // namespace

RunResult RunBenchmark(Workload& workload, const Options& opts) {
  Runner runner(workload, opts);
  return runner.Run();
}

}  // namespace perfbench
