// Direct per-layer probes of the traced run.  After the measured phase,
// each layer's public functions are called on the workload's own
// directories, stored rings and files, one span per call, and timed from
// outside.  Each probe's figure is net of the cost of reading the clock
// twice and rescaled by the reference kernel run around the probes, like
// the end-to-end timings.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "cluster/backend/storage_backend.h"
#include "fs/path.h"
#include "h2/keys.h"
#include "h2/name_ring.h"
#include "h2/records.h"
#include "harness.h"
#include "hash/md5.h"

namespace perfbench {
namespace {

/// Time, calls, allocations and work units (tuples, lanes) of one probe.
struct Accum {
  double ns = 0;
  double calls = 0;
  double allocs = 0;
  double units = 0;
};

class Prober {
 public:
  explicit Prober(SpanSink& spans) : spans_(spans) {
    std::vector<double> empty;
    for (int i = 0; i < 4001; ++i) {
      const std::uint64_t t0 = WallNs();
      const std::uint64_t t1 = WallNs();
      empty.push_back(static_cast<double>(t1 - t0));
    }
    clock_ns_ = Median(empty);
  }

  /// Times one call of `fn` (which returns its work units).
  template <class Fn>
  void Call(SpanId name, Accum& acc, Fn&& fn) {
    const AllocCounts a0 = ThreadAllocCounts();
    const std::uint64_t t0 = WallNs();
    const double units = fn();
    const std::uint64_t t1 = WallNs();
    const AllocCounts a1 = ThreadAllocCounts();
    spans_.Add(name, spans_.NewId(), 0, t0, t1, 0);
    acc.ns += std::max(0.0, static_cast<double>(t1 - t0) - clock_ns_);
    acc.calls += 1;
    acc.allocs += static_cast<double>(a1.allocs - a0.allocs);
    acc.units += units;
  }

  double clock_ns() const { return clock_ns_; }

 private:
  SpanSink& spans_;
  double clock_ns_ = 0;
};

double Per(double num, double den) { return den > 0 ? num / den : 0.0; }

double KernelSpeed() {
  std::uint64_t best = ~std::uint64_t{0};
  for (int i = 0; i < 3; ++i) best = std::min(best, RunReferenceKernel());
  return kNominalKernelNs / static_cast<double>(best);
}

struct DirTarget {
  h2::H2AccountFs* fs;
  std::string path;
  h2::NamespaceId ns;
};

}  // namespace

void RunProbes(Workload& workload, SpanSink& spans, MetricMap& out) {
  h2::H2Cloud& cloud = workload.cloud();
  h2::ObjectCloud& oc = cloud.cloud();
  const ProbeTargets targets = workload.Targets();
  const double speed_before = KernelSpeed();
  Prober p(spans);

  // --- h2 resolution: ResolvePath on the workload's dirs -------------------
  Accum resolve;
  std::vector<DirTarget> dirs;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& [fs, path] : targets.dirs) {
      h2::OpMeter meter;
      h2::Result<h2::NamespaceId> ns = h2::NamespaceId{};
      p.Call(SpanId::kProbeResolve, resolve, [&] {
        ns = fs->middleware().ResolvePath(fs->root(), path, meter);
        return 1.0;
      });
      if (rep == 0 && ns.ok()) dirs.push_back(DirTarget{fs, path, *ns});
    }
  }

  // --- NameRing codec on the stored rings ------------------------------------
  Accum parse, serialize, copy, record;
  const DirTarget* widest = nullptr;
  std::size_t widest_children = 0;
  for (const DirTarget& d : dirs) {
    h2::OpMeter meter;
    h2::Result<h2::ObjectValue> obj = oc.Get(h2::NameRingKey(d.ns), meter);
    if (!obj.ok()) continue;
    h2::Result<h2::NameRing> ring = h2::NameRing();
    p.Call(SpanId::kProbeRingParse, parse, [&] {
      ring = h2::NameRing::Parse(obj->payload);
      return ring.ok() ? static_cast<double>(ring->tuple_count()) : 0.0;
    });
    if (!ring.ok()) continue;
    const double tuples = static_cast<double>(ring->tuple_count());
    std::string bytes;
    p.Call(SpanId::kProbeRingSerialize, serialize, [&] {
      bytes = ring->Serialize();
      return tuples;
    });
    {
      std::optional<h2::NameRing> copied;
      p.Call(SpanId::kProbeRingCopy, copy, [&] {
        copied.emplace(*ring);  // what every ring-cache hit hands out
        return tuples;
      });
    }
    const std::size_t live = ring->live_count();
    if (live > widest_children) {
      widest_children = live;
      widest = &d;
    }
    if (d.path == "/") continue;
    h2::Result<h2::NamespaceId> parent = d.fs->middleware().ResolvePath(
        d.fs->root(), h2::ParentPath(d.path), meter);
    if (!parent.ok()) continue;
    h2::Result<h2::ObjectValue> rec =
        oc.Get(h2::ChildKey(*parent, h2::BaseName(d.path)), meter);
    if (!rec.ok()) continue;
    p.Call(SpanId::kProbeDirRecordParse, record, [&] {
      return h2::DirRecord::Parse(rec->payload).ok() ? 1.0 : 0.0;
    });
  }

  // --- ObjectCloud, ring + MD5, StorageNode, StorageBackend on file keys -----
  struct FileKey {
    std::string key;
    h2::ObjectValue value;
  };
  std::vector<FileKey> keys;
  for (const auto& [fs, path] : targets.files) {
    h2::OpMeter meter;
    h2::Result<h2::NamespaceId> parent = fs->middleware().ResolvePath(
        fs->root(), h2::ParentPath(path), meter);
    if (!parent.ok()) continue;
    std::string key = h2::ChildKey(*parent, h2::BaseName(path));
    h2::Result<h2::ObjectValue> value = oc.Get(key, meter);
    if (value.ok()) keys.push_back(FileKey{std::move(key), *std::move(value)});
  }
  // One pass per probed function over all the keys, so each function sees
  // the same cache state: the keys' data, not warmed by another probe.
  Accum head, get, put, del, md5, replicas, nhead, nget, nput, apply;
  std::vector<std::uint64_t> hashes(keys.size());
  std::vector<h2::StorageNode*> primaries(keys.size(), nullptr);
  auto probe_key = [](std::size_t i) {
    return "perfbench-probe::" + std::to_string(i);
  };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    p.Call(SpanId::kProbeMd5, md5, [&] {
      hashes[i] = h2::Md5::Hash64(keys[i].key);
      return 1.0;
    });
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::vector<h2::DeviceId> devs;
    p.Call(SpanId::kProbeReplicasOfHash, replicas, [&] {
      devs = oc.ring().ReplicasOfHash(hashes[i]);
      return 1.0;
    });
    if (!devs.empty()) primaries[i] = &oc.node(devs.front());
  }
  h2::OpMeter meter;
  for (const FileKey& k : keys) {
    p.Call(SpanId::kProbeCloudHead, head,
           [&] { return oc.Head(k.key, meter).ok() ? 1.0 : 0.0; });
  }
  for (const FileKey& k : keys) {
    p.Call(SpanId::kProbeCloudGet, get,
           [&] { return oc.Get(k.key, meter).ok() ? 1.0 : 0.0; });
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    h2::ObjectValue value = keys[i].value;
    p.Call(SpanId::kProbeCloudPut, put, [&] {
      return oc.Put(probe_key(i), std::move(value), meter).ok() ? 1.0 : 0.0;
    });
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    p.Call(SpanId::kProbeCloudDelete, del,
           [&] { return oc.Delete(probe_key(i), meter).ok() ? 1.0 : 0.0; });
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (primaries[i] == nullptr) continue;
    p.Call(SpanId::kProbeNodeHead, nhead,
           [&] { return primaries[i]->Head(keys[i].key).ok() ? 1.0 : 0.0; });
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (primaries[i] == nullptr) continue;
    p.Call(SpanId::kProbeNodeGet, nget,
           [&] { return primaries[i]->Get(keys[i].key).ok() ? 1.0 : 0.0; });
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (primaries[i] == nullptr) continue;
    h2::ObjectValue value = keys[i].value;
    const std::string key = probe_key(i) + "n";
    p.Call(SpanId::kProbeNodePut, nput, [&] {
      return primaries[i]->Put(key, std::move(value)).ok() ? 1.0 : 0.0;
    });
    (void)primaries[i]->Delete(key);  // administrative erase: leaves no trace
  }
  std::unique_ptr<h2::StorageBackend> backend =
      h2::MakeStorageBackend(targets.backend);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    h2::ObjectValue value = keys[i].value;
    const std::string key = probe_key(i);
    p.Call(SpanId::kProbeBackendPut, apply, [&] {
      backend->ApplyPut(key, std::move(value));
      return 1.0;
    });
  }

  // --- ExecuteBatch: the HEADs of a real detailed LIST -----------------------
  Accum batch;
  if (widest != nullptr) {
    h2::Result<h2::ObjectValue> obj =
        oc.Get(h2::NameRingKey(widest->ns), meter);
    h2::Result<h2::NameRing> ring =
        obj.ok() ? h2::NameRing::Parse(obj->payload)
                 : h2::Result<h2::NameRing>(obj.status());
    if (ring.ok()) {
      const std::vector<h2::RingTuple> children = ring->LiveChildren();
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<h2::BatchOp> ops;
        for (std::size_t i = 0; i < children.size() && i < 4096; ++i) {
          ops.push_back(h2::BatchOp::Head(h2::ChildKey(widest->ns,
                                                       children[i].name)));
        }
        const double lanes = static_cast<double>(ops.size());
        p.Call(SpanId::kProbeBatch, batch, [&] {
          (void)oc.ExecuteBatch(std::move(ops), meter);
          return lanes;
        });
      }
    }
  }

  // --- maintenance: one patch on each of up to 32 dirs, then merge ------------
  // (the spans land in the merge metric next to the measured phase's)
  Accum probe_write, merge, cleanup, rmdir;
  std::vector<bool> touched(cloud.middleware_count(), false);
  for (std::size_t i = 0; i < dirs.size() && i < 32; ++i) {
    const DirTarget& d = dirs[i];
    const std::string path =
        h2::JoinPath(d.path, "perfbench-probe-" + std::to_string(i));
    p.Call(SpanId::kProbeWrite, probe_write, [&] {
      return d.fs->WriteFile(path, h2::FileBlob::FromString("probe")).ok()
                 ? 1.0
                 : 0.0;
    });
    touched[d.fs->middleware().node_id() - 1] = true;
  }
  for (std::size_t m = 0; m < cloud.middleware_count(); ++m) {
    if (!touched[m]) continue;
    p.Call(SpanId::kMergePending, merge, [&] {
      return static_cast<double>(cloud.middleware(m).MergePending());
    });
  }
  // A small directory removed, then torn down by lazy cleanup.
  if (!dirs.empty()) {
    h2::H2AccountFs& fs = *dirs.front().fs;
    const std::string victim = "/perfbench-probe-rmdir";
    bool made = fs.Mkdir(victim).ok();
    for (int i = 0; made && i < 16; ++i) {
      made = fs.WriteFile(h2::JoinPath(victim, "f" + std::to_string(i)),
                          h2::FileBlob::FromString("probe"))
                 .ok();
    }
    h2::H2Middleware& mw = fs.middleware();
    p.Call(SpanId::kMergePending, merge,
           [&] { return static_cast<double>(mw.MergePending()); });
    p.Call(SpanId::kProbeRmdir, rmdir,
           [&] { return fs.Rmdir(victim).ok() ? 1.0 : 0.0; });
    for (int guard = 0; guard < 1000; ++guard) {
      std::size_t work = 0;
      p.Call(SpanId::kLazyCleanup, cleanup, [&] {
        work = mw.RunLazyCleanup(256);
        return static_cast<double>(work);
      });
      if (work == 0) break;
    }
  }

  const double speed_after = KernelSpeed();
  // The faster bracketing kernel run reads as the host's speed (a
  // preempted kernel only ever reads slow), as in Stopwatch.
  const double speed = std::max(speed_before, speed_after);
  std::printf("# probes: %zu dirs, %zu files, clock read %.1f ns, kernel "
              "speed vs nominal %.3f before / %.3f after\n",
              dirs.size(), keys.size(), p.clock_ns(), speed_before,
              speed_after);
  auto ns = [&](const Accum& a, double den) { return Per(a.ns, den) * speed; };
  auto put_ns = [&](const char* name, double value) {
    out[name] = Metric{value, "ns"};
  };
  auto put_count = [&](const char* name, double value) {
    out[name] = Metric{value, "count"};
  };
  put_ns("h2.resolve.ns_per_call", ns(resolve, resolve.calls));
  put_count("h2.resolve.allocs_per_call", Per(resolve.allocs, resolve.calls));
  put_ns("codec.ring_parse.ns_per_tuple", ns(parse, parse.units));
  put_count("codec.ring_parse.allocs_per_tuple",
            Per(parse.allocs, parse.units));
  put_ns("codec.ring_serialize.ns_per_tuple", ns(serialize, serialize.units));
  put_ns("h2.ring_copy.ns_per_tuple", ns(copy, copy.units));
  put_ns("codec.dir_record_parse.ns_per_call", ns(record, record.calls));
  put_ns("cloud.head.ns_per_call", ns(head, head.calls));
  put_ns("cloud.get.ns_per_call", ns(get, get.calls));
  put_ns("cloud.put.ns_per_call", ns(put, put.calls));
  put_ns("cloud.delete.ns_per_call", ns(del, del.calls));
  put_count("cloud.head.allocs_per_call", Per(head.allocs, head.calls));
  put_count("cloud.get.allocs_per_call", Per(get.allocs, get.calls));
  put_count("cloud.put.allocs_per_call", Per(put.allocs, put.calls));
  put_ns("cloud.batch.ns_per_lane", ns(batch, batch.units));
  put_ns("ring.replicas_of_hash.ns_per_call", ns(replicas, replicas.calls));
  put_ns("hash.md5_hash64.ns_per_call", ns(md5, md5.calls));
  put_ns("node.head.ns_per_call", ns(nhead, nhead.calls));
  put_ns("node.get.ns_per_call", ns(nget, nget.calls));
  put_ns("node.put.ns_per_call", ns(nput, nput.calls));
  put_ns("backend.apply_put.ns_per_call", ns(apply, apply.calls));
}

}  // namespace perfbench
