// ingest: four closed-loop clients, each with its own account AND its own
// middleware (gossip runs between the four), on the segment-log backend
// with a fixed group-commit window.  Each account starts from a populated
// drive, then uploads: new-file WRITE, folder uploads through
// H2AccountFs::WriteFiles (as examples/sync_client.cpp does), MKDIR, STAT
// of recent uploads, REMOVE and RENAME.  This is the write and convergence
// side of the layers hot-read reads: quorum PUT, durable patch commit,
// backend appends, small-ring merges and gossip.
#include <array>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <unordered_map>

#include "common/rng.h"
#include "fs/path.h"
#include "harness.h"
#include "workload/trace.h"
#include "workload/tree_gen.h"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr std::size_t kDriveFiles = 2'000;
constexpr std::size_t kDriveDirs = 120;
constexpr std::size_t kMaxDepth = 6;
constexpr std::uint32_t kGroupCommit = 16;
constexpr std::size_t kChunk = 1024;  // ops generated at a time
constexpr std::size_t kRecent = 512;  // uploads STAT picks from
// Ops per calibrated second of one client of the unchanged program, on
// the host the benchmark was tuned on: sizes the op budget.
constexpr double kNominalOpsPerS = 2'600;

// Op mix.  The kinds ingest shares with the personal-cloud trace mix keep
// TraceMix's weights (workload/trace.h: stat 30, write 20, mkdir 4, remove
// 2, rename 2).  A folder upload is pushed as examples/sync_client.cpp
// pushes one: MKDIR of a new folder, then one WriteFiles of its files.
// The upload weight and size have no source.
constexpr double kUploadWeight = 5;
constexpr std::uint64_t kMinUpload = 4;  // files per folder upload
constexpr std::uint64_t kMaxUpload = 8;

enum class Kind { kWrite, kUpload, kMkdir, kStat, kRemove, kRename };

/// Weights in Kind order.
std::array<double, 6> MixWeights() {
  const h2::TraceMix mix;
  return {mix.write, kUploadWeight, mix.mkdir, mix.stat, mix.remove,
          mix.rename};
}

struct Op {
  Kind kind = Kind::kStat;
  std::string path;
  std::string path2;  // RENAME: the new name
  std::uint64_t size = 0;
  std::vector<std::pair<std::string, h2::FileBlob>> files;  // UPLOAD
};

/// One client's namespace model and op generator.  Every op it emits is
/// valid when the client's ops replay in order, whatever the timing.
class Generator {
 public:
  Generator(std::uint64_t seed, const h2::GeneratedTree& drive)
      : rng_(seed), weights_(MixWeights()) {
    for (double w : weights_) total_weight_ += w;
    dirs_.push_back("/");
    depth_.push_back(0);
    for (const std::string& d : drive.dirs) {
      dirs_.push_back(d);
      depth_.push_back(h2::PathDepth(d));
    }
    for (const h2::FileSpec& f : drive.files) Add(f.path, f.size);
  }

  void Fill(std::vector<Op>& out) {
    out.clear();
    while (out.size() < kChunk) Next(out);
  }

  const std::vector<std::pair<std::string, std::uint64_t>>& files() const {
    return files_;
  }

 private:
  void Add(const std::string& path, std::uint64_t size) {
    index_[path] = files_.size();
    files_.emplace_back(path, size);
  }
  void Drop(const std::string& path) {
    auto it = index_.find(path);
    const std::size_t i = it->second;
    index_.erase(it);
    if (i + 1 != files_.size()) {
      files_[i] = std::move(files_.back());
      index_[files_[i].first] = i;
    }
    files_.pop_back();
  }
  std::string Fresh(const std::string& dir, const char* prefix) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%07" PRIu64, prefix, counter_++);
    return h2::JoinPath(dir, buf);
  }
  std::size_t RandomDir() { return rng_.Below(dirs_.size()); }
  void NoteRecent(const std::string& path) {
    recent_.push_back(path);
    if (recent_.size() > kRecent) recent_.pop_front();
  }
  std::string NewDir(std::vector<Op>& out) {
    std::size_t parent = RandomDir();
    while (depth_[parent] >= kMaxDepth) parent = RandomDir();
    Op op;
    op.kind = Kind::kMkdir;
    op.path = Fresh(dirs_[parent], "up");
    dirs_.push_back(op.path);
    depth_.push_back(depth_[parent] + 1);
    out.push_back(op);
    return op.path;
  }

  Kind PickKind() {
    double pick = rng_.NextDouble() * total_weight_;
    std::size_t k = 0;
    while (k + 1 < weights_.size() && pick >= weights_[k]) {
      pick -= weights_[k];
      ++k;
    }
    return static_cast<Kind>(k);
  }

  void Next(std::vector<Op>& out) {
    const Kind kind = PickKind();
    if (kind == Kind::kWrite) {
      Op op;
      op.kind = Kind::kWrite;
      op.path = Fresh(dirs_[RandomDir()], "w");
      op.size = h2::SampleFileSize(rng_);
      Add(op.path, op.size);
      NoteRecent(op.path);
      out.push_back(std::move(op));
    } else if (kind == Kind::kUpload) {
      const std::string dir = NewDir(out);
      Op op;
      op.kind = Kind::kUpload;
      const std::uint64_t n =
          kMinUpload + rng_.Below(kMaxUpload - kMinUpload + 1);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::string path = Fresh(dir, "u");
        const std::uint64_t size = h2::SampleFileSize(rng_);
        Add(path, size);
        NoteRecent(path);
        op.files.emplace_back(path, SampleBlob(path, size));
      }
      out.push_back(std::move(op));
    } else if (kind == Kind::kMkdir) {
      NewDir(out);
    } else if (kind == Kind::kStat) {
      Op op;
      op.kind = Kind::kStat;
      for (int tries = 0; tries < 8 && op.path.empty(); ++tries) {
        if (recent_.empty()) break;
        const std::string& p = recent_[rng_.Below(recent_.size())];
        if (index_.count(p) > 0) op.path = p;
      }
      if (op.path.empty()) op.path = files_[rng_.Below(files_.size())].first;
      out.push_back(std::move(op));
    } else if (kind == Kind::kRemove) {
      Op op;
      op.kind = Kind::kRemove;
      op.path = files_[rng_.Below(files_.size())].first;
      Drop(op.path);
      out.push_back(std::move(op));
    } else {
      Op op;
      op.kind = Kind::kRename;
      const auto [path, size] = files_[rng_.Below(files_.size())];
      const std::string renamed = Fresh(h2::ParentPath(path), "rn");
      op.path = path;
      op.path2 = std::string(h2::BaseName(renamed));
      Drop(path);
      Add(renamed, size);
      out.push_back(std::move(op));
    }
  }

  h2::Rng rng_;
  const std::array<double, 6> weights_;
  double total_weight_ = 0;
  std::vector<std::string> dirs_;
  std::vector<std::size_t> depth_;
  std::vector<std::pair<std::string, std::uint64_t>> files_;
  std::unordered_map<std::string, std::size_t> index_;
  std::deque<std::string> recent_;
  std::uint64_t counter_ = 0;
};

struct Client {
  std::string account;
  h2::GeneratedTree drive;
  std::unique_ptr<Generator> gen;
  std::vector<Op> chunk;
  std::size_t cursor = 0;
  std::unique_ptr<h2::H2AccountFs> fs;
  ClientContext context;
};

class Ingest final : public Workload {
 public:
  explicit Ingest(const Options& opts)
      : seed_(opts.seed), budget_(OpBudget(opts, kNominalOpsPerS)) {
    for (int c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl.account = "ing" + std::to_string(c);
      h2::TreeSpec spec;
      spec.file_count = kDriveFiles;
      spec.dir_count = kDriveDirs;
      spec.max_depth = kMaxDepth;
      spec.dir_zipf_s = 1.0;
      spec.seed = MixSeed(seed_, 0x300 + static_cast<std::uint64_t>(c));
      cl.drive = h2::GenerateTree(spec);
    }
  }

  const char* name() const override { return "ingest"; }
  int clients() const override { return kClients; }
  std::uint64_t op_budget() const override { return budget_; }
  int default_setups() const override { return 3; }

  std::string Describe() const override {
    const std::array<double, 6> w = MixWeights();
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%d closed-loop clients, each with its own account and middleware "
        "(gossip between them); segment-log backend, group commit %u "
        "records per fsync; per account a drive of %zu files in %zu dirs "
        "(caches hold 65536 child records / 4096 rings per middleware); "
        "weights write %g / upload %g (MKDIR of a new folder, then "
        "WriteFiles of %" PRIu64 "-%" PRIu64 " files) / mkdir %g / stat of "
        "recent uploads %g / remove %g / rename %g; %" PRIu64
        " ops per client; each client merges its own middleware and steps "
        "gossip every %" PRIu64 " ops",
        kClients, kGroupCommit, kDriveFiles, kDriveDirs, w[0], w[1],
        kMinUpload, kMaxUpload, w[2], w[3], w[4], w[5], budget_, kMaintEvery);
    return buf;
  }

  void Setup(Stopwatch& watch) override {
    for (Client& cl : clients_) cl.fs.reset();
    cloud_.reset();
    h2::H2CloudConfig cfg;
    cfg.cloud = RackCloudConfig();
    cfg.cloud.backend.kind = h2::BackendKind::kSegmentLog;
    cfg.cloud.backend.group_commit_window = kGroupCommit;
    cfg.middleware_count = kClients;
    cloud_ = std::make_unique<h2::H2Cloud>(cfg);
    for (int c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      MustOk(cloud_->CreateAccount(cl.account), "create account");
      auto fs = cloud_->OpenFilesystem(cl.account, static_cast<std::size_t>(c));
      MustOk(fs.status(), "open filesystem");
      cl.fs = std::move(fs).value();
      cl.gen = std::make_unique<Generator>(
          MixSeed(seed_, 0x400 + static_cast<std::uint64_t>(c)), cl.drive);
      cl.chunk.clear();
      cl.cursor = 0;
      for (const std::string& dir : cl.drive.dirs) {
        MustOk(cl.fs->Mkdir(dir), "mkdir");
        watch.Tick(WallNs());
      }
      for (const h2::FileSpec& f : cl.drive.files) {
        MustOk(cl.fs->WriteFile(f.path, SampleBlob(f.path, f.size)), "write");
        watch.Tick(WallNs());
      }
    }
    MustQuiesce(*cloud_, watch);
  }

  void PrepareClients() override {
    const h2::VirtualNanos epoch = cloud_->cloud().clock().Now();
    for (int c = 0; c < kClients; ++c) {
      clients_[c].context.Bind(*clients_[c].fs, epoch, c, seed_);
    }
  }

  bool Step(ClientRun& run) override {
    Client& cl = clients_[run.client];
    if (cl.cursor == cl.chunk.size()) {
      // Input generation is the benchmark's work, not the program's.
      run.watch.Pause();
      cl.gen->Fill(cl.chunk);
      cl.cursor = 0;
      run.watch.Resume();
    }
    Op& op = cl.chunk[cl.cursor++];
    h2::H2AccountFs& fs = *cl.fs;
    switch (op.kind) {
      case Kind::kWrite: {
        h2::FileBlob blob = SampleBlob(op.path, op.size);
        TimedOp(run, fs, kWrite, SpanId::kFsWrite,
                [&] { return fs.WriteFile(op.path, std::move(blob)); });
        break;
      }
      case Kind::kUpload:
        TimedOp(run, fs, kUpload, SpanId::kFsUpload,
                [&] { return fs.WriteFiles(std::move(op.files)); });
        break;
      case Kind::kMkdir:
        TimedOp(run, fs, kMutate, SpanId::kFsMkdir,
                [&] { return fs.Mkdir(op.path); });
        break;
      case Kind::kStat:
        TimedOp(run, fs, kStat, SpanId::kFsStat,
                [&] { return fs.Stat(op.path).status(); });
        break;
      case Kind::kRemove:
        TimedOp(run, fs, kMutate, SpanId::kFsRemove,
                [&] { return fs.RemoveFile(op.path); });
        break;
      case Kind::kRename:
        TimedOp(run, fs, kMutate, SpanId::kFsRename,
                [&] { return fs.Rename(op.path, op.path2); });
        break;
    }
    return true;
  }

  MaintScope MaintenanceScope(int c) override {
    // Each client merges its own middleware and delivers a gossip round;
    // client 0 also runs the substrate's repair and rebalance steps.
    // Together the four cover H2Cloud::RunMaintenanceStep.
    const auto i = static_cast<std::size_t>(c);
    return MaintScope{i, i + 1, true, c == 0};
  }

  h2::H2Cloud& cloud() override { return *cloud_; }

  std::vector<ExpectedFile> ExpectedFiles() override {
    // The generators run ahead of the replay by up to one chunk; files
    // from ops not yet executed are not expected.
    std::vector<ExpectedFile> out;
    for (Client& cl : clients_) {
      std::unordered_map<std::string, bool> pending;
      for (std::size_t i = cl.cursor; i < cl.chunk.size(); ++i) {
        const Op& op = cl.chunk[i];
        if (op.kind == Kind::kWrite) pending[op.path] = true;
        if (op.kind == Kind::kRename) {
          pending[h2::JoinPath(h2::ParentPath(op.path), op.path2)] = true;
        }
        for (const auto& [path, blob] : op.files) pending[path] = true;
        if (op.kind == Kind::kRemove || op.kind == Kind::kRename) {
          pending[op.path] = true;  // may still exist; skip either way
        }
      }
      for (const auto& [path, size] : cl.gen->files()) {
        if (pending.count(path) > 0) continue;
        out.push_back(ExpectedFile{cl.fs.get(), path, size, nullptr});
      }
    }
    return out;
  }

  ProbeTargets Targets() override {
    ProbeTargets t;
    t.backend.kind = h2::BackendKind::kSegmentLog;
    t.backend.group_commit_window = kGroupCommit;
    h2::Rng rng(MixSeed(seed_, 0x600));
    for (Client& cl : clients_) {
      t.dirs.emplace_back(cl.fs.get(), "/");
      for (int i = 0; i < 63; ++i) {
        t.dirs.emplace_back(cl.fs.get(),
                            cl.drive.dirs[rng.Below(cl.drive.dirs.size())]);
      }
    }
    for (const ExpectedFile& f : ExpectedFiles()) {
      if (rng.Below(8) == 0) t.files.emplace_back(f.fs, f.path);
    }
    return t;
  }

 private:
  const std::uint64_t seed_;
  const std::uint64_t budget_;
  std::unique_ptr<h2::H2Cloud> cloud_;
  Client clients_[kClients];
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(const Options& opts) {
  return std::make_unique<Ingest>(opts);
}

}  // namespace perfbench
