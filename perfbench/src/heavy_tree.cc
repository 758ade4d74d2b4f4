// heavy-tree: one client on the paper's heavy user (TreeSpec::Heavy: 50k
// files, depth <= 20, Zipf-sized directories) with the directory count
// raised above the ring cache's 4,096 entries, replaying GenerateTrace's
// personal-cloud mix (all ten op kinds).  One maintenance step runs inline
// after every kMaintEvery ops.  Time goes to deep resolution, ring-cache
// misses, big detailed LISTs and re-merging big NameRings.
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>

#include "common/rng.h"
#include "fs/path.h"
#include "harness.h"
#include "workload/trace.h"
#include "workload/tree_gen.h"

namespace perfbench {
namespace {

constexpr std::size_t kDirCount = 6'000;
constexpr std::uint64_t kTreeSeed = 1;
// Ops per calibrated second of the unchanged program, inline maintenance
// included, on the host the benchmark was tuned on: sizes the op budget,
// and the trace is generated exactly that long.
constexpr double kNominalOpsPerS = 3'800;

std::pair<int, SpanId> Classify(h2::TraceOpKind kind) {
  switch (kind) {
    case h2::TraceOpKind::kStat: return {kStat, SpanId::kFsStat};
    case h2::TraceOpKind::kRead: return {kRead, SpanId::kFsRead};
    case h2::TraceOpKind::kWrite: return {kWrite, SpanId::kFsWrite};
    case h2::TraceOpKind::kList:
    case h2::TraceOpKind::kListAt: return {kList, SpanId::kFsList};
    case h2::TraceOpKind::kMkdir: return {kMutate, SpanId::kFsMkdir};
    case h2::TraceOpKind::kRmdir: return {kMutate, SpanId::kFsRmdir};
    case h2::TraceOpKind::kMove: return {kMutate, SpanId::kFsMove};
    case h2::TraceOpKind::kRename: return {kMutate, SpanId::kFsRename};
    case h2::TraceOpKind::kCopy:
    case h2::TraceOpKind::kSnapshotClone: return {kMutate, SpanId::kFsCopy};
    case h2::TraceOpKind::kRemove: return {kMutate, SpanId::kFsRemove};
  }
  return {kMutate, SpanId::kFsCopy};
}

class HeavyTree final : public Workload {
 public:
  explicit HeavyTree(const Options& opts)
      : seed_(opts.seed), budget_(OpBudget(opts, kNominalOpsPerS)) {
    // The tree is the paper's one heavy user, the same for every seed;
    // the seed draws the trace replayed on it.  (Trees drawn per seed
    // differ in where the giant directories sit, which alone moved
    // ops_per_s by 15% between seeds.)
    h2::TreeSpec spec = h2::TreeSpec::Heavy(kTreeSeed);
    spec.dir_count = kDirCount;
    tree_ = h2::GenerateTree(spec);
    trace_ = h2::GenerateTrace(tree_, budget_, h2::TraceMix{},
                               MixSeed(seed_, 0x12));
  }

  const char* name() const override { return "heavy-tree"; }
  int clients() const override { return 1; }
  std::uint64_t op_budget() const override { return budget_; }
  int default_setups() const override { return 3; }

  std::string Describe() const override {
    std::size_t root_children = 0;
    for (const auto& f : tree_.files) {
      if (h2::ParentPath(f.path) == "/") ++root_children;
    }
    for (const auto& d : tree_.dirs) {
      if (h2::ParentPath(d) == "/") ++root_children;
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "1 closed-loop client, 1 middleware, memory backend; TreeSpec::Heavy "
        "with %zu files, %zu dirs (ring cache holds 4096), depth %zu, root "
        "holds %zu children; GenerateTrace default personal-cloud mix, "
        "%zu ops; one maintenance step per %" PRIu64 " ops",
        tree_.files.size(), tree_.dirs.size(), tree_.max_depth(),
        root_children, trace_.size(), kMaintEvery);
    return buf;
  }

  void Setup(Stopwatch& watch) override {
    fs_.reset();
    cloud_.reset();
    h2::H2CloudConfig cfg;
    cfg.cloud = RackCloudConfig();
    cfg.middleware_count = 1;
    cloud_ = std::make_unique<h2::H2Cloud>(cfg);
    MustOk(cloud_->CreateAccount("heavy"), "create account");
    auto fs = cloud_->OpenFilesystem("heavy", 0);
    MustOk(fs.status(), "open filesystem");
    fs_ = std::move(fs).value();
    pos_ = 0;
    for (const std::string& dir : tree_.dirs) {
      MustOk(fs_->Mkdir(dir), "mkdir");
      watch.Tick(WallNs());
    }
    for (const h2::FileSpec& file : tree_.files) {
      MustOk(fs_->WriteFile(file.path, SampleBlob(file.path, file.size)),
           "write");
      watch.Tick(WallNs());
    }
    MustQuiesce(*cloud_, watch);
  }

  bool Step(ClientRun& run) override {
    if (pos_ >= trace_.size()) return false;
    const h2::TraceOp& op = trace_[pos_++];
    const auto [cls, span] = Classify(op.kind);
    TimedOp(run, *fs_, cls, span, [&] { return h2::ApplyTraceOp(*fs_, op); });
    return true;
  }

  MaintScope MaintenanceScope(int) override { return WholeCloud(*cloud_); }

  h2::H2Cloud& cloud() override { return *cloud_; }

  std::vector<ExpectedFile> ExpectedFiles() override {
    Replay();
    std::vector<ExpectedFile> out;
    for (const auto& [path, size] : files_) {
      out.push_back(ExpectedFile{fs_.get(), path, size, nullptr});
    }
    return out;
  }

  ProbeTargets Targets() override {
    Replay();
    ProbeTargets t;
    h2::Rng rng(MixSeed(seed_, 0x13));
    const std::vector<std::string> dirs(dirs_.begin(), dirs_.end());
    t.dirs.emplace_back(fs_.get(), "/");
    for (int i = 0; i < 255 && !dirs.empty(); ++i) {
      t.dirs.emplace_back(fs_.get(), dirs[rng.Below(dirs.size())]);
    }
    std::vector<const std::string*> files;
    for (const auto& [path, size] : files_) files.push_back(&path);
    for (int i = 0; i < 1024 && !files.empty(); ++i) {
      t.files.emplace_back(fs_.get(), *files[rng.Below(files.size())]);
    }
    return t;
  }

 private:
  /// The namespace after the executed prefix of the trace: the tree plus
  /// every op replayed so far (file sizes as written).
  void Replay() {
    files_.clear();
    dirs_.clear();
    for (const auto& f : tree_.files) files_[f.path] = f.size;
    for (const auto& d : tree_.dirs) dirs_.insert(d);
    for (std::size_t i = 0; i < pos_; ++i) {
      const h2::TraceOp& op = trace_[i];
      switch (op.kind) {
        case h2::TraceOpKind::kWrite:
          files_[op.path] = op.size;
          break;
        case h2::TraceOpKind::kMkdir:
          dirs_.insert(op.path);
          break;
        case h2::TraceOpKind::kRemove:
          files_.erase(op.path);
          break;
        case h2::TraceOpKind::kMove:
        case h2::TraceOpKind::kRename: {
          const std::string to =
              op.kind == h2::TraceOpKind::kMove
                  ? op.path2
                  : h2::JoinPath(h2::ParentPath(op.path), op.path2);
          auto it = files_.find(op.path);
          if (it != files_.end()) {
            const std::uint64_t size = it->second;
            files_.erase(it);
            files_[to] = size;
          }
          break;
        }
        case h2::TraceOpKind::kCopy: {
          auto it = files_.find(op.path);
          if (it != files_.end()) files_[op.path2] = it->second;
          break;
        }
        case h2::TraceOpKind::kRmdir: {
          // Everything under "dir/" sorts before "dir0" ('/' + 1 == '0').
          const std::string lo = op.path + "/";
          const std::string hi = op.path + "0";
          files_.erase(files_.lower_bound(lo), files_.lower_bound(hi));
          dirs_.erase(op.path);
          dirs_.erase(dirs_.lower_bound(lo), dirs_.lower_bound(hi));
          break;
        }
        default:
          break;
      }
    }
  }

  const std::uint64_t seed_;
  const std::uint64_t budget_;
  h2::GeneratedTree tree_;
  std::vector<h2::TraceOp> trace_;
  std::size_t pos_ = 0;
  std::unique_ptr<h2::H2Cloud> cloud_;
  std::unique_ptr<h2::H2AccountFs> fs_;
  std::map<std::string, std::uint64_t> files_;
  std::set<std::string> dirs_;
};

}  // namespace

std::unique_ptr<Workload> MakeHeavyTree(const Options& opts) {
  return std::make_unique<HeavyTree>(opts);
}

}  // namespace perfbench
