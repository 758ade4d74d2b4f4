// hot-read: four closed-loop clients, each with its own account, all
// sharing ONE H2Middleware on the memory backend.  Each account holds a
// small tree (kDirs dirs x 64 files of 4 KiB) that fits every cache, so
// time goes to the per-primitive read path (replica probing, MD5
// placement, StorageNode shared-lock reads) and to contention on the
// shared middleware.  Overwrites replace existing files and submit no
// patches, so codec, merge and backend work stays near zero.
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr std::uint32_t kDirs = 32;  // per account
constexpr std::uint32_t kFilesPerDir = 64;
constexpr std::uint64_t kFileBytes = 4096;
constexpr std::size_t kPayloadVariants = 16;
constexpr std::size_t kStreamLen = 1 << 20;  // ops per client, cycled
constexpr double kZipfS = 1.1;
// Ops per calibrated second of one client of the unchanged program, on
// the host the benchmark was tuned on: sizes the op budget.
constexpr double kNominalOpsPerS = 34'000;

// Op mix in percent: stat 40 / read 30 / detailed list 15 / overwrite 15.
enum Kind : std::uint32_t { kOpStat, kOpRead, kOpList, kOpOverwrite };

std::uint32_t Encode(Kind kind, std::uint32_t dir, std::uint32_t file) {
  return (static_cast<std::uint32_t>(kind) << 30) | (dir << 16) | file;
}

struct Client {
  std::string account;
  std::vector<std::string> dirs;   // "/d000"
  std::vector<std::string> files;  // index dir * kFilesPerDir + file
  std::vector<std::uint32_t> stream;
  std::vector<std::uint8_t> variant;  // payload variant each file holds
  std::size_t pos = 0;
  std::unique_ptr<h2::H2AccountFs> fs;
  ClientContext context;
};

class HotRead final : public Workload {
 public:
  explicit HotRead(const Options& opts)
      : seed_(opts.seed), budget_(OpBudget(opts, kNominalOpsPerS)) {
    h2::Rng payload_rng(MixSeed(seed_, 0x70));
    for (std::size_t v = 0; v < kPayloadVariants; ++v) {
      std::string bytes(kFileBytes, '\0');
      for (char& ch : bytes) {
        ch = static_cast<char>('a' + payload_rng.Below(26));
      }
      payloads_.push_back(std::move(bytes));
    }
    const h2::ZipfSampler dir_zipf(kDirs, kZipfS);
    const h2::ZipfSampler file_zipf(kFilesPerDir, kZipfS);
    char buf[48];
    for (int c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl.account = "hot" + std::to_string(c);
      for (std::uint32_t d = 0; d < kDirs; ++d) {
        std::snprintf(buf, sizeof(buf), "/d%03u", d);
        cl.dirs.push_back(buf);
        for (std::uint32_t f = 0; f < kFilesPerDir; ++f) {
          std::snprintf(buf, sizeof(buf), "/d%03u/f%04u", d, f);
          cl.files.push_back(buf);
        }
      }
      h2::Rng rng(MixSeed(seed_, 0x100 + static_cast<std::uint64_t>(c)));
      // Which dirs and files are hot depends on the seed.
      std::vector<std::uint32_t> dir_rank(kDirs), file_rank(kFilesPerDir);
      for (std::uint32_t i = 0; i < kDirs; ++i) dir_rank[i] = i;
      for (std::uint32_t i = 0; i < kFilesPerDir; ++i) file_rank[i] = i;
      std::shuffle(dir_rank.begin(), dir_rank.end(), rng);
      std::shuffle(file_rank.begin(), file_rank.end(), rng);
      cl.variant.resize(cl.files.size());
      for (auto& v : cl.variant) {
        v = static_cast<std::uint8_t>(rng.Below(kPayloadVariants));
      }
      initial_variant_[c] = cl.variant;
      cl.stream.reserve(kStreamLen);
      for (std::size_t i = 0; i < kStreamLen; ++i) {
        const std::uint64_t pick = rng.Below(100);
        const Kind kind = pick < 40   ? kOpStat
                          : pick < 70 ? kOpRead
                          : pick < 85 ? kOpList
                                      : kOpOverwrite;
        const std::uint32_t dir = dir_rank[dir_zipf.Sample(rng)];
        const std::uint32_t file = file_rank[file_zipf.Sample(rng)];
        cl.stream.push_back(Encode(kind, dir, file));
      }
    }
  }

  const char* name() const override { return "hot-read"; }
  int clients() const override { return kClients; }
  std::uint64_t op_budget() const override { return budget_; }
  int default_setups() const override { return 5; }

  std::string Describe() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%d closed-loop clients (own accounts) sharing 1 middleware, memory "
        "backend; per account %u dirs x %u files of %" PRIu64
        " B (%u files, %u rings; caches hold 65536 child records / 4096 "
        "rings); Zipf(%.1f) dirs+files; stat 40 / read 30 / detailed list "
        "15 / overwrite 15; %" PRIu64 " ops per client; one maintenance "
        "step per %" PRIu64 " ops of client 0",
        kClients, kDirs, kFilesPerDir, kFileBytes,
        kClients * kDirs * kFilesPerDir, kClients * (kDirs + 1), kZipfS,
        budget_, kMaintEvery);
    return buf;
  }

  void Setup(Stopwatch& watch) override {
    for (Client& cl : clients_) cl.fs.reset();
    cloud_.reset();
    h2::H2CloudConfig cfg;
    cfg.cloud = RackCloudConfig();
    cfg.middleware_count = 1;
    cloud_ = std::make_unique<h2::H2Cloud>(cfg);
    for (int c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl.variant = initial_variant_[c];
      cl.pos = 0;
      MustOk(cloud_->CreateAccount(cl.account), "create account");
      auto fs = cloud_->OpenFilesystem(cl.account, 0);
      MustOk(fs.status(), "open filesystem");
      cl.fs = std::move(fs).value();
      watch.Tick(WallNs());
    }
    for (Client& cl : clients_) {
      for (const std::string& dir : cl.dirs) {
        MustOk(cl.fs->Mkdir(dir), "mkdir");
        watch.Tick(WallNs());
      }
      for (std::size_t i = 0; i < cl.files.size(); ++i) {
        MustOk(cl.fs->WriteFile(cl.files[i],
                              h2::FileBlob{payloads_[cl.variant[i]],
                                           kFileBytes}),
             "write");
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
    const std::uint32_t op = cl.stream[cl.pos++ % kStreamLen];
    const auto kind = static_cast<Kind>(op >> 30);
    const std::uint32_t dir = (op >> 16) & 0x3fff;
    const std::size_t file = dir * kFilesPerDir + (op & 0xffff);
    h2::H2AccountFs& fs = *cl.fs;
    switch (kind) {
      case kOpStat:
        TimedOp(run, fs, kStat, SpanId::kFsStat,
                [&] { return fs.Stat(cl.files[file]).status(); });
        break;
      case kOpRead:
        TimedOp(run, fs, kRead, SpanId::kFsRead,
                [&] { return fs.ReadFile(cl.files[file]).status(); });
        break;
      case kOpList:
        TimedOp(run, fs, kList, SpanId::kFsList, [&] {
          return fs.List(cl.dirs[dir], h2::ListDetail::kDetailed).status();
        });
        break;
      case kOpOverwrite: {
        const auto next = static_cast<std::uint8_t>(
            (cl.variant[file] + 1) % kPayloadVariants);
        h2::FileBlob blob{payloads_[next], kFileBytes};
        const std::uint64_t failed_before = run.failed;
        TimedOp(run, fs, kWrite, SpanId::kFsWrite, [&] {
          return fs.WriteFile(cl.files[file], std::move(blob));
        });
        if (run.failed == failed_before) cl.variant[file] = next;
        break;
      }
    }
    return true;
  }

  MaintScope MaintenanceScope(int c) override {
    return c == 0 ? WholeCloud(*cloud_) : MaintScope{};
  }

  h2::H2Cloud& cloud() override { return *cloud_; }

  std::vector<ExpectedFile> ExpectedFiles() override {
    std::vector<ExpectedFile> out;
    for (Client& cl : clients_) {
      for (std::size_t i = 0; i < cl.files.size(); ++i) {
        out.push_back(ExpectedFile{cl.fs.get(), cl.files[i], kFileBytes,
                                   &payloads_[cl.variant[i]]});
      }
    }
    return out;
  }

  ProbeTargets Targets() override {
    ProbeTargets t;
    for (Client& cl : clients_) {
      for (const std::string& d : cl.dirs) t.dirs.emplace_back(cl.fs.get(), d);
      for (const std::string& f : cl.files) {
        t.files.emplace_back(cl.fs.get(), f);
      }
    }
    return t;
  }

 private:
  const std::uint64_t seed_;
  const std::uint64_t budget_;
  std::vector<std::string> payloads_;
  // Declared before the sessions, which refer into it.
  std::unique_ptr<h2::H2Cloud> cloud_;
  Client clients_[kClients];
  std::vector<std::uint8_t> initial_variant_[kClients];
};

}  // namespace

std::unique_ptr<Workload> MakeHotRead(const Options& opts) {
  return std::make_unique<HotRead>(opts);
}

}  // namespace perfbench
