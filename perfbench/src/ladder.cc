// The ladder benchmark: one named workload per process.
//
//   ladder --workload=NAME --seed=N --seconds=S --trace=0|1
//          --run-dir=DIR --span-file=PATH [--commit=ID]
//
// With --trace=0 it measures the end-to-end metrics; with --trace=1 it
// replays the same seeded op stream down the layer ladder (net ->
// executor -> store -> table) and reports per-layer metrics from spans
// timed around each layer's public calls. Either way it prints one JSON
// row (context stamp + metrics) as its last stdout line and exits
// nonzero on any wrong value, a failed set-up, or a file left behind in
// --run-dir. perfbench/run.py builds and drives it.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/kv_index.h"
#include "api/sharded_store.h"
#include "epoch/epoch_manager.h"
#include "harness.h"
#include "net/kv_client.h"
#include "net/kv_server.h"
#include "pmem/pool.h"
#include "pmem/stats.h"
#include "util/amac.h"
#include "util/rand.h"
#include "util/zipf.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace api = dash::api;

// Load shape shared by every workload: one process, 2 connections or 2
// load threads, 2 shards, so the load stays within a 4-core host.
constexpr size_t kShards = 2;
constexpr size_t kLoadThreads = 2;
constexpr size_t kBatch = 16;
constexpr size_t kWindow = 4;
constexpr int kReopenReps = 15;
constexpr int kMeasureReps = 9;
constexpr size_t kReadbackKeys = 4096;
constexpr size_t kPreloadChunk = 1024;
constexpr size_t kShardQueueDepth = 16384;

// Workload constants, recorded in every row. `ops_per_second` sizes the
// closed-loop (or embedded) leg: the leg runs seconds * ops_per_second
// ops in kMeasureReps equal reps, so op counts compare across commits.
// `open_rate_mops` is the serve workloads' open-loop offered rate, set
// once to about half the seed commit's closed-loop throughput.
struct Spec {
  std::string name;
  bool serve = true;
  api::IndexKind kind = api::IndexKind::kDashEH;
  uint64_t keys = 0;
  double zipf_theta = 0.0;  // 0 = uniform
  int read_pct = 100;       // serve: searches; the rest are updates
  uint32_t emu_read_ns = 0;
  uint32_t emu_flush_ns = 0;
  double ops_per_second = 0;
  double open_rate_mops = 0;
  double open_share = 0.0;  // share of --seconds spent in the open loop
  int setup_reps = 5;       // set-ups per run; setup_s is their median
  double compaction_trigger = 0.0;
  uint32_t checkpoint_interval_ms = 0;
  uint32_t compaction_interval_ms = 0;
  uint64_t shard_pool_bytes = 0;  // set by SizePools
  uint64_t table_pool_bytes = 0;
};

bool FindSpec(const std::string& name, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "serve-read") {
    // YCSB-C, zipf 0.99, 1M keys: the table fits in L3, so the network
    // layer and the executor hop do most of the work per op.
    s.kind = api::IndexKind::kDashEH;
    s.keys = 1'000'000;
    s.zipf_theta = 0.99;
    s.read_pct = 100;
    s.ops_per_second = 500'000;
    s.open_rate_mops = 0.6;
    s.open_share = 0.4;
  } else if (name == "serve-update-hybrid") {
    // YCSB-A on the hybrid tier with PM emulation on: log appends,
    // hot-key bucket locks, and checkpoint refresh plus compaction on
    // the workers' idle path, beside the foreground traffic.
    s.kind = api::IndexKind::kHybrid;
    s.keys = 1'000'000;
    s.zipf_theta = 0.99;
    s.read_pct = 50;
    s.emu_read_ns = 300;
    s.emu_flush_ns = 100;
    s.ops_per_second = 400'000;
    s.open_rate_mops = 0.45;
    s.open_share = 0.4;
    s.compaction_trigger = 0.05;
    s.checkpoint_interval_ms = 2000;
    s.compaction_interval_ms = 1000;
  } else if (name == "embedded-table") {
    // No server, no store: 2 threads on one dash-eh table larger than
    // L3, 60% positive / 20% negative search / 20% fresh insert (paper
    // section 6.4), so only the table, pmem and amac layers work.
    s.serve = false;
    s.kind = api::IndexKind::kDashEH;
    s.keys = 8'000'000;
    s.emu_read_ns = 300;
    s.emu_flush_ns = 100;
    s.ops_per_second = 800'000;
    s.setup_reps = 3;  // an 8M-key preload takes seconds
  } else {
    return false;
  }
  *out = s;
  return true;
}

// Pool files are sized from the records a run can write, capped at the
// library's defaults. Each is a sparse file mapped whole, so a host that
// caps file size or address space fails a run only if it truly needs the
// room. 128 B a record is about 3x what dash-eh and the hybrid log use;
// the bound assumes no slot is ever reused.
uint64_t PoolBytes(double records, uint64_t cap) {
  constexpr uint64_t kFloor = 64ULL << 20;
  constexpr uint64_t kAlign = 2ULL << 20;
  const uint64_t b = kFloor + static_cast<uint64_t>(records * 128.0);
  return std::min(cap, (b + kAlign - 1) & ~(kAlign - 1));
}

void SizePools(int seconds, Spec* spec) {
  const double write_share =
      spec->serve ? (100 - spec->read_pct) / 100.0 : 0.2;  // fresh inserts
  const double writes =
      write_share * seconds *
      (spec->ops_per_second * (1.0 + 1.0 / kMeasureReps) +
       spec->open_rate_mops * 1e6 * spec->open_share);
  const double keys = static_cast<double>(spec->keys);
  spec->shard_pool_bytes = PoolBytes(keys / kShards + writes, 1ULL << 30);
  spec->table_pool_bytes = PoolBytes(keys + writes, 4ULL << 30);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string run_dir;
  std::string span_file;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string v = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      a->workload = v;
    } else if (key == "seed") {
      errno = 0;
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (errno != 0 || *end != '\0' || v.empty()) return false;
    } else if (key == "seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (key == "trace") {
      a->trace = std::atoi(v.c_str());
    } else if (key == "run-dir") {
      a->run_dir = v;
    } else if (key == "span-file") {
      a->span_file = v;
    } else if (key == "commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 1 && a->seconds <= 600 &&
         (a->trace == 0 || a->trace == 1) && !a->run_dir.empty() &&
         !a->span_file.empty();
}

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "ladder: %s\n", what);
  std::fflush(stderr);
  std::_Exit(1);
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB -> MB
}

// ---- the seeded op stream ----------------------------------------------

// Frame k of stream s is a pure function of (seed, s, k), so a sender and
// a receiver, or a replay on another rung, regenerate identical frames.
class FrameGen {
 public:
  FrameGen(const Spec& spec, const ValueModel& model, uint64_t seed)
      : spec_(spec),
        model_(model),
        seed_(seed),
        zipf_(spec.zipf_theta > 0
                  ? std::make_unique<dash::util::ZipfGenerator>(
                        spec.keys, spec.zipf_theta, seed)
                  : nullptr) {}

  void Make(uint64_t stream, uint64_t k, Op* ops) const {
    const uint64_t frame_seed = Mix64(seed_ ^ Mix64((stream << 40) ^ k));
    dash::util::Xoshiro256 rng(frame_seed);
    if (spec_.serve) {
      dash::util::ZipfGenerator zipf(*zipf_, frame_seed ^ 0x5a5a);
      for (size_t i = 0; i < kBatch; ++i) {
        const uint64_t key = model_.Key(zipf.Next());
        if (rng.NextBounded(100) < static_cast<uint64_t>(spec_.read_pct)) {
          ops[i] = Op::Search(key);
        } else {
          const uint32_t gen =
              1 + static_cast<uint32_t>((k * kBatch + i) & 0x7fffffffu);
          ops[i] = Op::Update(key, model_.Value(key, gen));
        }
      }
      return;
    }
    for (size_t i = 0; i < kBatch; ++i) {
      const uint64_t r = rng.NextBounded(100);
      if (r < 60) {
        ops[i] = Op::Search(model_.Key(rng.NextBounded(spec_.keys)));
      } else if (r < 80) {
        ops[i] = Op::Search(model_.Key(ValueModel::kNegativeBase +
                                       (rng.Next() & ((1ULL << 39) - 1))));
      } else {
        const uint64_t key =
            model_.Key(spec_.keys + (stream << 36) + k * kBatch + i);
        ops[i] = Op::Insert(key, model_.Value(key, 0));
      }
    }
  }

 private:
  const Spec& spec_;
  const ValueModel& model_;
  uint64_t seed_;
  std::unique_ptr<dash::util::ZipfGenerator> zipf_;
};

// Op-type counts of the frames a leg ran (for per-op normalisation).
struct Mix {
  uint64_t searches = 0;
  uint64_t writes = 0;
  void Add(const Op* ops, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (ops[i].type == OpType::kSearch) {
        ++searches;
      } else {
        ++writes;
      }
    }
  }
  Mix& operator+=(const Mix& o) {
    searches += o.searches;
    writes += o.writes;
    return *this;
  }
};

// ---- result row ----------------------------------------------------------

class Row {
 public:
  void Context(const std::string& key, const std::string& json_value) {
    if (!context_.empty()) context_ += ',';
    context_ += Quote(key);
    context_ += ':';
    context_ += json_value;
  }
  void Metric(const std::string& name, double value, const char* unit) {
    if (!metrics_.empty()) metrics_ += ',';
    metrics_ += Quote(name);
    metrics_ += ":{\"value\":";
    metrics_ += Num(value);
    metrics_ += ",\"unit\":";
    metrics_ += Quote(unit);
    metrics_ += '}';
  }
  void Print(const Tally& t) const {
    std::printf(
        "{\"context\":{%s},\"correct\":%s,\"attempted\":%" PRIu64
        ",\"failed\":%" PRIu64 ",\"wrong\":%" PRIu64
        ",\"unavailable\":%" PRIu64 ",\"metrics\":{%s}}\n",
        context_.c_str(), t.wrong == 0 ? "true" : "false", t.attempted,
        t.failed, t.wrong, t.unavailable, metrics_.c_str());
    std::fflush(stdout);
  }
  static std::string Quote(const std::string& s) { return "\"" + s + "\""; }
  static std::string List(const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += Num(v[i]);
    }
    return out + "]";
  }
  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  std::string context_;
  std::string metrics_;
};

// ---- files -----------------------------------------------------------------

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = readdir(d)) {
    const std::string n = e->d_name;
    if (n != "." && n != "..") names.push_back(n);
  }
  closedir(d);
  return names;
}

// Removes one store's files: shard pools, their checkpoints (and any
// temp checkpoint), the manifest.
void RemoveStoreFiles(const std::string& prefix) {
  for (size_t i = 0; i < kShards; ++i) {
    const std::string shard = prefix + ".shard" + std::to_string(i);
    std::remove(shard.c_str());
    std::remove((shard + ".ckpt").c_str());
    std::remove((shard + ".ckpt.tmp").c_str());
  }
  std::remove((prefix + ".manifest").c_str());
  std::remove((prefix + ".manifest.tmp").c_str());
}

// ---- single tables (table rung, embedded workload) -------------------------

struct Table {
  std::string path;
  std::unique_ptr<dash::pmem::PmPool> pool;
  std::unique_ptr<dash::epoch::EpochManager> epochs;
  std::unique_ptr<api::KvIndex> index;

  void Close() {
    if (index != nullptr) index->CloseClean();
    index.reset();
    epochs.reset();
    if (pool != nullptr) pool->CloseClean();
    pool.reset();
  }
  ~Table() { Close(); }
};

void OpenTable(const Spec& spec, const std::string& path, bool create,
               Table* t) {
  t->path = path;
  if (create) {
    dash::pmem::PmPool::Options o;
    o.pool_size = spec.table_pool_bytes;
    t->pool = dash::pmem::PmPool::Create(path, o);
  } else {
    t->pool = dash::pmem::PmPool::Open(path);
  }
  if (t->pool == nullptr) Die("cannot open table pool");
  t->epochs = std::make_unique<dash::epoch::EpochManager>();
  dash::DashOptions options;
  options.compaction_trigger = spec.compaction_trigger;
  t->index = api::CreateKvIndex(spec.kind, t->pool.get(), t->epochs.get(),
                                options);
  if (t->index == nullptr) Die("cannot create index");
}

// Loads key indices [0, model.preload()) from `threads` threads in
// kPreloadChunk batches; returns the summed batch-call time (the preload
// spans). Any status but kOk is a failed set-up.
template <typename InsertFn>
uint64_t Preload(const ValueModel& model, size_t threads, InsertFn insert) {
  std::atomic<uint64_t> span_ns{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> workers;
  const uint64_t n = model.preload();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint64_t> keys(kPreloadChunk), values(kPreloadChunk);
      std::vector<Status> st(kPreloadChunk);
      uint64_t local = 0;
      const uint64_t begin = n * t / threads, end = n * (t + 1) / threads;
      for (uint64_t at = begin; at < end; at += kPreloadChunk) {
        const size_t c = static_cast<size_t>(
            std::min<uint64_t>(kPreloadChunk, end - at));
        for (size_t i = 0; i < c; ++i) {
          keys[i] = model.Key(at + i);
          values[i] = model.Value(keys[i], 0);
        }
        const uint64_t t0 = NowNs();
        insert(keys.data(), values.data(), c, st.data());
        local += NowNs() - t0;
        for (size_t i = 0; i < c; ++i) {
          if (st[i] != Status::kOk) bad = true;
        }
      }
      span_ns += local;
    });
  }
  for (auto& w : workers) w.join();
  if (bad) Die("preload: an insert did not return kOk");
  return span_ns.load();
}

// Searches a seeded sample of preloaded keys plus `extra` known-inserted
// keys and checks every result against the model.
template <typename SearchFn>
void Readback(const ValueModel& model, const Checker& checker,
              uint64_t sample_seed, const std::vector<uint64_t>& extra,
              SearchFn search, Tally* tally) {
  dash::util::Xoshiro256 rng(sample_seed);
  std::vector<Op> ops;
  for (size_t i = 0; i < kReadbackKeys; ++i) {
    ops.push_back(Op::Search(model.Key(rng.NextBounded(model.preload()))));
  }
  for (size_t i = 0; i < 64; ++i) {  // never-inserted keys stay absent
    ops.push_back(Op::Search(
        model.Key(ValueModel::kNegativeBase + rng.NextBounded(1ULL << 39))));
  }
  std::vector<Op> fresh;
  for (uint64_t key : extra) fresh.push_back(Op::Search(key));
  std::vector<uint64_t> keys, values;
  std::vector<Status> st;
  for (const auto* set : {&ops, &fresh}) {
    keys.clear();
    for (const Op& op : *set) keys.push_back(op.key);
    values.assign(keys.size(), 0);
    st.assign(keys.size(), Status::kInternal);
    search(keys.data(), keys.size(), values.data(), st.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (set == &fresh && st[i] != Status::kOk) {
        // An acknowledged insert must survive the reopen.
        ++tally->attempted;
        ++tally->failed;
        ++tally->wrong;
        continue;
      }
      checker.Slot((*set)[i], st[i], values[i], tally);
    }
  }
}

// ---- serving: store + server -----------------------------------------------

api::ShardedStoreOptions StoreOptions(const Spec& spec,
                                      const std::string& prefix,
                                      bool workers) {
  api::ShardedStoreOptions o;
  o.kind = spec.kind;
  o.shards = kShards;
  o.path_prefix = prefix;
  o.shard_pool_size = spec.shard_pool_bytes;
  o.table.compaction_trigger = spec.compaction_trigger;
  o.async.workers = workers;
  o.async.inline_single_shard = false;
  // Bounded submit retries: a full shard queue answers kUnavailable
  // instead of blocking the server's event loop. The queue holds about
  // 0.4 s (serve-read) to 0.6 s (hybrid) of the open loop's offered
  // frames, so a maintenance pause on the idle path, such as a
  // checkpoint's fsync on a busy disk, shows as latency, not as shed
  // load.
  o.async.submit_retries = 8;
  o.async.queue_depth = kShardQueueDepth;
  o.recovery_threads = kShards;
  o.checkpoint_interval_ms = workers ? spec.checkpoint_interval_ms : 0;
  o.compaction_interval_ms = workers ? spec.compaction_interval_ms : 0;
  return o;
}

struct Served {
  std::string prefix;
  std::string socket;
  std::unique_ptr<api::ShardedStore> store;
  std::unique_ptr<dash::net::KvServer> server;
  uint64_t preload_span_ns = 0;
};

// Preloads through the single-op path, on kLoadThreads loader threads: the
// records land in the loaders' log lanes (hybrid), which take no appends
// afterwards, so the workload's updates leave dead slots there for the
// idle-path compaction to reclaim.
uint64_t PreloadStore(const ValueModel& model, api::ShardedStore* store) {
  return Preload(model, kLoadThreads,
                 [store](const uint64_t* k, const uint64_t* v, size_t n,
                         Status* st) {
                   for (size_t i = 0; i < n; ++i) {
                     st[i] = store->Insert(k[i], v[i]);
                   }
                 });
}

// Store creation plus preload: the set-up that setup_s times.
void SetUpServed(const Spec& spec, const ValueModel& model,
                 const std::string& prefix, Served* s) {
  s->prefix = prefix;
  s->socket = prefix + ".sock";
  s->store = api::ShardedStore::Open(StoreOptions(spec, prefix, true));
  if (s->store == nullptr) Die("store open failed");
  dash::net::ServerOptions so;
  so.uds_path = s->socket;
  so.max_pipeline = kShards * kShardQueueDepth;  // as deep as the queues
  s->server = std::make_unique<dash::net::KvServer>(s->store.get(), so);
  std::string error;
  if (!s->server->Start(&error)) Die(("server start: " + error).c_str());
  s->preload_span_ns = PreloadStore(model, s->store.get());
}

// Per-shard index stats summed. ShardedStore::Stats() totals carry only
// the structural fields; the lock and log telemetry are read per shard.
api::IndexStats ShardTotals(api::ShardedStore* store) {
  api::IndexStats t;
  for (size_t i = 0; i < store->shard_count(); ++i) {
    const api::IndexStats s = store->shard(i)->Stats();
    t.records += s.records;
    t.capacity_slots += s.capacity_slots;
    t.bytes_used += s.bytes_used;
    t.opt_retries += s.opt_retries;
    t.bucket_lock_contended_spins += s.bucket_lock_contended_spins;
    t.compactions += s.compactions;
    t.compaction_bytes_rewritten += s.compaction_bytes_rewritten;
    t.log_dead_slots += s.log_dead_slots;
    t.log_chunk_bytes += s.log_chunk_bytes;
    t.compaction_dead_ratio =
        std::max(t.compaction_dead_ratio, s.compaction_dead_ratio);
  }
  t.load_factor = t.capacity_slots == 0
                      ? 0.0
                      : static_cast<double>(t.records) /
                            static_cast<double>(t.capacity_slots);
  return t;
}

void TearDownServed(Served* s) {
  if (s->server != nullptr) s->server->Stop();
  s->server.reset();
  if (s->store != nullptr) s->store->CloseClean();
  s->store.reset();
  RemoveStoreFiles(s->prefix);
  std::remove(s->socket.c_str());
}

void Connect(const std::string& socket, dash::net::KvClient* c,
             uint64_t tenant) {
  std::string error;
  if (!c->ConnectUds(socket, tenant, 1, &error)) {
    Die(("connect: " + error).c_str());
  }
}

// One closed-loop client: keeps kWindow frames in flight on its own
// connection, checks every response. With `spans`, times Send and
// Receive and the whole request.
void ClosedClient(dash::net::KvClient* client, const FrameGen& gen,
                  const Checker& checker, uint64_t stream, uint64_t k_begin,
                  uint64_t k_end, SpanLog* spans, Tally* tally, Mix* mix) {
  struct Slot {
    uint64_t id = 0;
    uint64_t span = 0;
    uint64_t start_ns = 0;
    Op ops[kBatch];
  };
  Slot slots[kWindow];
  size_t in_flight = 0;
  uint64_t next = k_begin;
  dash::net::ClientResponse resp;
  while (next < k_end || in_flight > 0) {
    while (next < k_end && in_flight < kWindow) {
      Slot& s = slots[in_flight];
      gen.Make(stream, next++, s.ops);
      mix->Add(s.ops, kBatch);
      s.start_ns = NowNs();
      if (!client->Send(s.ops, kBatch, 0, &s.id)) {
        Checker::Lost(kBatch * (in_flight + 1 + (k_end - next)), tally);
        return;
      }
      if (spans != nullptr) {
        s.span = spans->NewId();
        spans->Add("net.send", s.span, s.id, s.start_ns, NowNs());
      }
      ++in_flight;
    }
    const uint64_t r0 = NowNs();
    if (!client->Receive(&resp)) {
      Checker::Lost(kBatch * (in_flight + (k_end - next)), tally);
      return;
    }
    const uint64_t r1 = NowNs();
    size_t at = 0;
    while (at < in_flight && slots[at].id != resp.request_id) ++at;
    if (at == in_flight || resp.statuses.size() != kBatch) {
      Checker::Lost(kBatch * (in_flight + (k_end - next)), tally);
      return;
    }
    Slot& s = slots[at];
    for (size_t i = 0; i < kBatch; ++i) {
      checker.Slot(s.ops[i], resp.statuses[i], resp.values[i], tally);
    }
    if (spans != nullptr) {
      spans->Add("net.receive", s.span, s.id, r0, r1);
      spans->AddWithId(s.span, "net.request", 0, s.id, s.start_ns, r1);
    }
    slots[at] = slots[--in_flight];
  }
}

// Runs frames [k_begin, k_end) of streams 0..kLoadThreads-1, one closed-loop
// client per stream. Returns wall time.
uint64_t ClosedLeg(dash::net::KvClient* clients, const FrameGen& gen,
                   const Checker& checker, uint64_t k_begin, uint64_t k_end,
                   std::vector<SpanLog>* spans, Tally* tally, Mix* mix) {
  std::vector<Tally> t(kLoadThreads);
  std::vector<Mix> m(kLoadThreads);
  std::vector<std::thread> threads;
  const uint64_t t0 = NowNs();
  for (size_t c = 0; c < kLoadThreads; ++c) {
    threads.emplace_back([&, c] {
      ClosedClient(&clients[c], gen, checker, c, k_begin, k_end,
                   spans != nullptr ? &(*spans)[c] : nullptr, &t[c], &m[c]);
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t wall = NowNs() - t0;
  for (size_t c = 0; c < kLoadThreads; ++c) {
    *tally += t[c];
    *mix += m[c];
  }
  return wall;
}


// Latency percentiles are reported as the median, over the open loop's
// windows of this length (or over the measured reps), of each window's
// percentile. Windows this short keep a maintenance pause inside a few
// of them, so the median reads the typical window.
constexpr double kLatencyWindowSeconds = 0.2;

struct OpenResult {
  // From due time to response, per time window of the schedule.
  std::vector<std::vector<uint64_t>> latency_ns;
  std::vector<uint64_t> late_ns;  // how late each send went out
};

// Open loop at a fixed offered rate on one connection, from the
// workload's stream kLoadThreads. A sender thread issues frame j at its due
// time whether or not earlier frames were answered, so sends never wait
// on receives; a receiver thread times each response from when its
// request was due. Two load threads in all: more would oversubscribe
// a 4-core host beside the server loop and the shard workers. A dead
// connection makes Receive return false, which ends the receiver.
void OpenLeg(const Spec& spec, const std::string& socket,
             const FrameGen& gen, const Checker& checker, double seconds,
             OpenResult* out, Tally* tally, Mix* mix) {
  dash::net::KvClient client;
  Connect(socket, &client, kLoadThreads);
  const double frames_per_s = spec.open_rate_mops * 1e6 / kBatch;
  const uint64_t total = static_cast<uint64_t>(frames_per_s * seconds);
  const double interval_ns = 1e9 / frames_per_s;
  std::atomic<uint64_t> base_id{0};
  const uint64_t start = NowNs() + 2'000'000;
  auto due = [&](uint64_t j) {
    return start + static_cast<uint64_t>(static_cast<double>(j) *
                                         interval_ns);
  };
  out->late_ns.reserve(total);
  const uint64_t windows = std::max<uint64_t>(
      1, static_cast<uint64_t>(seconds / kLatencyWindowSeconds));
  out->latency_ns.assign(windows, {});
  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    Op ops[kBatch];
    for (uint64_t j = 0; j < total; ++j) {
      const uint64_t d = due(j);
      uint64_t now = NowNs();
      if (now < d) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(d - now));
        now = NowNs();
      }
      gen.Make(kLoadThreads, j, ops);
      mix->Add(ops, kBatch);
      uint64_t id = 0;
      if (!client.Send(ops, kBatch, 0, &id)) break;
      if (j == 0) base_id = id;
      out->late_ns.push_back(now > d ? now - d : 0);
    }
  });
  uint64_t got = 0;
  std::thread receiver([&] {
    dash::net::ClientResponse resp;
    Op ops[kBatch];
    for (; got < total; ++got) {
      if (!client.Receive(&resp)) break;
      const uint64_t now = NowNs();
      while (base_id.load() == 0) std::this_thread::yield();
      const uint64_t k = resp.request_id - base_id.load();
      if (k >= total || resp.statuses.size() != kBatch) break;
      const uint64_t d = due(k);
      out->latency_ns[k * windows / total].push_back(now > d ? now - d : 0);
      gen.Make(kLoadThreads, k, ops);
      for (size_t i = 0; i < kBatch; ++i) {
        checker.Slot(ops[i], resp.statuses[i], resp.values[i], tally);
      }
    }
  });
  // The sender ends on its own: its schedule is finite, and a dead
  // socket fails its Send.
  sender.join();
  receiver.join();
  if (got < total) Checker::Lost(kBatch * (total - got), tally);
}

// Frames [0, frames) of streams 0..kLoadThreads-1, depth 1 (one batch at a
// time per load thread), through `call`, which times its own spans.
template <typename Call>
void RungLeg(uint64_t frames, std::vector<SpanLog>* spans, Tally* tally,
             Call call) {
  std::vector<Tally> t(kLoadThreads);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kLoadThreads; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t k = 0; k < frames; ++k) call(c, k, &(*spans)[c], &t[c]);
    });
  }
  for (auto& th : threads) th.join();
  for (const Tally& x : t) *tally += x;
}

// A rung whose layer call runs one batch synchronously: `exec(ops, st)`,
// timed as one span named `span`.
template <typename Exec>
void BatchRung(uint64_t frames, const FrameGen& gen, const Checker& checker,
               const char* span, std::vector<SpanLog>* spans, Tally* tally,
               Exec exec) {
  RungLeg(frames, spans, tally,
          [&](size_t c, uint64_t k, SpanLog* log, Tally* t) {
            Op ops[kBatch], sent[kBatch];
            Status st[kBatch];
            gen.Make(c, k, ops);
            std::copy(ops, ops + kBatch, sent);
            const uint64_t t0 = NowNs();
            exec(ops, st);
            log->Add(span, 0, (c << 32) | k, t0, NowNs());
            for (size_t i = 0; i < kBatch; ++i) {
              checker.Slot(sent[i], st[i], ops[i].value, t);
            }
          });
}

std::vector<Span> Merge(const std::vector<SpanLog>& logs) {
  std::vector<Span> all;
  for (const SpanLog& l : logs) {
    all.insert(all.end(), l.spans().begin(), l.spans().end());
  }
  return all;
}

double PerOp(double total, double ops) { return ops > 0 ? total / ops : 0; }

double RequireQuantile(std::vector<std::vector<uint64_t>> groups, double q,
                       const char* what) {
  double out = 0;
  if (!MedianOfQuantiles(std::move(groups), q, &out)) Die(what);
  return out;
}

double RequireQuantile(std::vector<uint64_t> v, double q, const char* what) {
  return RequireQuantile(std::vector<std::vector<uint64_t>>{std::move(v)}, q,
                         what);
}

void CheckRunDirEmpty(const std::string& dir) {
  const std::vector<std::string> left = ListDir(dir);
  if (left.empty()) return;
  for (const std::string& n : left) {
    std::fprintf(stderr, "ladder: file left behind: %s/%s\n", dir.c_str(),
                 n.c_str());
    std::remove((dir + "/" + n).c_str());
  }
  Die("run left files behind");
}

// Tail latency without a bound: p90 over the same windows as p50_us,
// and p99 pooled over every sample, so maintenance pauses show in it.
// Their run-to-run spread on a 4-core VM exceeds any bound the benchmark
// may set. Untraced runs put them in the row's context, traced runs in
// the per-layer metrics.
std::pair<double, double> TailUs(
    const std::vector<std::vector<uint64_t>>& windows) {
  std::vector<uint64_t> pooled;
  for (const auto& w : windows) pooled.insert(pooled.end(), w.begin(), w.end());
  return {RequireQuantile(windows, 0.90, "too few samples") / 1e3,
          RequireQuantile(std::move(pooled), 0.99, "too few samples") / 1e3};
}

void TailContext(const std::vector<std::vector<uint64_t>>& windows,
                 Row* row) {
  const auto [p90, p99] = TailUs(windows);
  row->Context("p90_us", Row::Num(p90));
  row->Context("p99_us", Row::Num(p99));
}

void TailMetrics(const std::vector<std::vector<uint64_t>>& windows,
                 Row* row) {
  const auto [p90, p99] = TailUs(windows);
  row->Metric("bench.p90_us", p90, "us");
  row->Metric("bench.p99_us", p99, "us");
}

// Counters read before and after a measured leg.
struct Counters {
  api::IndexStats index;
  dash::pmem::PmStats pm;
};

// The table, amac and pmem metrics, per op of the measured leg (`mix`);
// `end` is the index state at the end of the run.
void CounterMetrics(const Counters& before, const Counters& after,
                    const dash::util::AmacTelemetry& amac, const Mix& mix,
                    const api::IndexStats& end, Row* row) {
  const double ops = static_cast<double>(mix.searches + mix.writes);
  auto per_op = [&](uint64_t count) {
    return PerOp(static_cast<double>(count), ops);
  };
  row->Metric("table.load_factor", end.load_factor, "ratio");
  row->Metric("table.opt_retries_per_search",
              PerOp(static_cast<double>(after.index.opt_retries -
                                        before.index.opt_retries),
                    static_cast<double>(mix.searches)),
              "count");
  row->Metric("table.bucket_spins_per_write",
              PerOp(static_cast<double>(
                        after.index.bucket_lock_contended_spins -
                        before.index.bucket_lock_contended_spins),
                    static_cast<double>(mix.writes)),
              "count");
  row->Metric("amac.steps_per_op", per_op(amac.steps), "count");
  row->Metric("amac.suspends_per_op", per_op(amac.TotalSuspends()), "count");
  row->Metric("pmem.clwb_per_op", per_op(after.pm.clwb - before.pm.clwb),
              "count");
  row->Metric("pmem.fence_per_op", per_op(after.pm.fence - before.pm.fence),
              "count");
  row->Metric("pmem.read_probes_per_op",
              per_op(after.pm.read_probes - before.pm.read_probes), "count");
  row->Metric("pmem.bytes_used", static_cast<double>(end.bytes_used),
              "bytes");
}

// Traced against untraced reps of the same leg, medians of each.
void TraceOverheadMetrics(const std::vector<double>& mops,
                          const std::vector<double>& traced_mops, Row* row) {
  row->Metric("bench.untraced_mops", Median(mops), "Mops/s");
  row->Metric("bench.traced_mops", Median(traced_mops), "Mops/s");
  row->Metric("bench.trace_overhead_ratio",
              1.0 - Median(traced_mops) / Median(mops), "ratio");
}

// ---- serve workloads -------------------------------------------------------

void RunServe(const Args& a, const Spec& spec, Row* row, Tally* tally) {
  const ValueModel model(a.seed, spec.keys);
  const FrameGen gen(spec, model, a.seed);
  const Checker checker(&model, spec.read_pct < 100);
  const bool traced = a.trace == 1;
  const std::string base = a.run_dir + "/store";

  // Set-up (store creation + preload), repeated; the last one is kept.
  std::vector<double> setup_s;
  Served served;
  for (int r = 0; r < (traced ? 1 : spec.setup_reps); ++r) {
    if (r > 0) TearDownServed(&served);
    served = Served{};
    const uint64_t t0 = NowNs();
    SetUpServed(spec, model, base + std::to_string(r), &served);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  api::ShardedStore* store = served.store.get();

  const uint64_t closed_ops =
      static_cast<uint64_t>(a.seconds * spec.ops_per_second);
  const uint64_t rep_frames =
      std::max<uint64_t>(1, closed_ops /
                                (kMeasureReps * kLoadThreads * kBatch));
  dash::net::KvClient clients[kLoadThreads];
  for (size_t c = 0; c < kLoadThreads; ++c) {
    Connect(served.socket, &clients[c], c);
  }

  Mix mix;
  const Counters before{ShardTotals(store), dash::pmem::AggregatePmStats()};
  dash::util::AmacTelemetry::DrainAll();
  // Rep 0 warms caches and is not reported. Traced runs alternate
  // untraced and traced reps, so the overhead ratio sees the same drift.
  std::vector<double> mops, traced_mops;
  std::vector<SpanLog> closed_spans;
  for (size_t c = 0; c < kLoadThreads; ++c) closed_spans.emplace_back(c + 1);
  const int reps = 1 + kMeasureReps;
  for (int r = 0; r < reps; ++r) {
    const bool trace_rep = traced && r > 0 && r % 2 == 0;
    const uint64_t wall =
        ClosedLeg(clients, gen, checker, r * rep_frames, (r + 1) * rep_frames,
                  trace_rep ? &closed_spans : nullptr, tally, &mix);
    const double m = static_cast<double>(rep_frames * kLoadThreads * kBatch) /
                     (static_cast<double>(wall) / 1e9) / 1e6;
    if (r > 0) (trace_rep ? traced_mops : mops).push_back(m);
  }
  const uint64_t closed_total = reps * rep_frames * kLoadThreads * kBatch;
  const dash::util::AmacTelemetry amac = dash::util::AmacTelemetry::DrainAll();
  const Counters after_closed{ShardTotals(store),
                              dash::pmem::AggregatePmStats()};
  const Mix closed_mix = mix;

  OpenResult open;
  OpenLeg(spec, served.socket, gen, checker, a.seconds * spec.open_share,
          &open, tally, &mix);

  std::vector<SpanLog> spans;
  for (size_t c = 0; c < kLoadThreads; ++c) spans.emplace_back(c + 16);
  constexpr uint64_t kRungFrames = 2000;
  const double rung_ops =
      static_cast<double>(kRungFrames * kLoadThreads * kBatch);
  if (traced) {
    // net rung: KvClient Send -> Receive, depth 1.
    RungLeg(kRungFrames, &spans, tally,
            [&](size_t c, uint64_t k, SpanLog* log, Tally* t) {
              Op ops[kBatch];
              gen.Make(c, k, ops);
              dash::net::ClientResponse resp;
              uint64_t id = 0;
              const uint64_t t0 = NowNs();
              const bool sent = clients[c].Send(ops, kBatch, 0, &id);
              const uint64_t t1 = NowNs();
              const bool got = sent && clients[c].Receive(&resp);
              const uint64_t t2 = NowNs();
              if (!got || resp.request_id != id ||
                  resp.statuses.size() != kBatch) {
                Checker::Lost(kBatch, t);
                return;
              }
              const uint64_t root = log->NewId();
              log->Add("net.send", root, id, t0, t1);
              log->Add("net.receive", root, id, t1, t2);
              log->AddWithId(root, "net.request", 0, id, t0, t2);
              for (size_t i = 0; i < kBatch; ++i) {
                checker.Slot(ops[i], resp.statuses[i], resp.values[i], t);
              }
            });
    // executor rung: SubmitExecute + BatchFuture::Wait, workers on.
    RungLeg(kRungFrames, &spans, tally,
            [&](size_t c, uint64_t k, SpanLog* log, Tally* t) {
              Op ops[kBatch], sent[kBatch];
              Status st[kBatch];
              gen.Make(c, k, ops);
              std::copy(ops, ops + kBatch, sent);
              const uint64_t t0 = NowNs();
              api::BatchFuture f = store->SubmitExecute(ops, kBatch, st);
              const uint64_t t1 = NowNs();
              f.Wait();
              const uint64_t t2 = NowNs();
              const uint64_t req = (c << 32) | k;
              const uint64_t root = log->NewId();
              log->Add("executor.submit", root, req, t0, t1);
              log->Add("executor.wait", root, req, t1, t2);
              log->AddWithId(root, "executor.batch", 0, req, t0, t2);
              for (size_t i = 0; i < kBatch; ++i) {
                checker.Slot(sent[i], st[i], ops[i].value, t);
              }
            });
    // store rung: ShardedStore::MultiExecute on the caller's thread.
    Served inline_store;
    inline_store.prefix = base + "-rung";
    inline_store.store = api::ShardedStore::Open(
        StoreOptions(spec, inline_store.prefix, false));
    if (inline_store.store == nullptr) Die("rung store open failed");
    api::ShardedStore* s2 = inline_store.store.get();
    PreloadStore(model, s2);
    BatchRung(kRungFrames, gen, checker, "store.multi_execute", &spans, tally,
              [s2](Op* ops, Status* st) { s2->MultiExecute(ops, kBatch, st); });
    TearDownServed(&inline_store);
    // table rung: KvIndex::MultiExecute on one table with the same keys,
    // then the same frames as single-op calls.
    Table table;
    OpenTable(spec, a.run_dir + "/rung.table", true, &table);
    api::KvIndex* index = table.index.get();
    Preload(model, kLoadThreads,
            [index](const uint64_t* k, const uint64_t* v, size_t n,
                    Status* st) { index->MultiInsert(k, v, n, st); });
    BatchRung(kRungFrames, gen, checker, "table.multi_execute", &spans, tally,
              [index](Op* ops, Status* st) {
                index->MultiExecute(ops, kBatch, st);
              });
    RungLeg(kRungFrames, &spans, tally,
            [&](size_t c, uint64_t k, SpanLog* log, Tally* t) {
              Op ops[kBatch];
              gen.Make(c, k, ops);
              uint64_t values[kBatch] = {};
              Status st[kBatch];
              const uint64_t t0 = NowNs();
              for (size_t i = 0; i < kBatch; ++i) {
                st[i] = ops[i].type == OpType::kSearch
                            ? index->Search(ops[i].key, &values[i])
                            : index->Update(ops[i].key, ops[i].value);
              }
              log->Add("table.single_frame", 0, (c << 32) | k, t0, NowNs());
              for (size_t i = 0; i < kBatch; ++i) {
                checker.Slot(ops[i], st[i], values[i], t);
              }
            });
    table.Close();
    std::remove(table.path.c_str());
  }

  const api::ShardedStats sharded = store->Stats();
  const api::IndexStats totals = ShardTotals(store);
  const dash::net::ServerStats net = served.server->stats();
  for (auto& c : clients) c.Close();
  served.server->Stop();
  const uint64_t c0 = NowNs();
  store->CloseClean();
  served.store.reset();
  const double close_ms = Ms(NowNs() - c0);

  // Reopen: a timed ShardedStore::Open on the cleanly closed files, then
  // the recovery source and a seeded readback are checked.
  const char* want_source =
      spec.kind == api::IndexKind::kHybrid ? "checkpoint" : "native";
  std::vector<double> reopen_ms;
  double shard_open_max = 0;
  uint64_t replayed = 0;
  for (int r = 0; r < (traced ? 1 : kReopenReps); ++r) {
    const uint64_t t0 = NowNs();
    auto reopened = api::ShardedStore::Open(
        StoreOptions(spec, served.prefix, true));
    reopen_ms.push_back(Ms(NowNs() - t0));
    if (reopened == nullptr) Die("reopen failed");
    const api::RecoveryReport& rep = reopened->recovery_report();
    for (size_t i = 0; i < rep.shard_source.size(); ++i) {
      if (rep.shard_source[i] != want_source) {
        std::fprintf(stderr, "ladder: shard %zu recovered from %s, want %s\n",
                     i, rep.shard_source[i].c_str(), want_source);
        Die("wrong recovery source");
      }
      shard_open_max = std::max(shard_open_max, rep.shard_ms[i]);
      replayed += rep.shard_replayed[i];
    }
    api::ShardedStore* s = reopened.get();
    Readback(model, checker, a.seed + 1000 + r, {},
             [s](const uint64_t* k, size_t n, uint64_t* v, Status* st) {
               s->MultiSearch(k, n, v, st);
             },
             tally);
    reopened->CloseClean();
  }
  TearDownServed(&served);

  const double live = static_cast<double>(totals.records);
  const uint64_t updates = mix.writes;
  if (spec.kind == api::IndexKind::kHybrid && totals.compactions == 0) {
    Die("no log compaction ran: the run is invalid");
  }
  if (!traced) {
    row->Metric("throughput_mops", Median(mops), "Mops/s");
    row->Context("rep_mops", Row::List(mops));
    row->Context("setup_reps_s", Row::List(setup_s));
    row->Context("reopen_reps_ms", Row::List(reopen_ms));
    row->Metric("p50_us",
                RequireQuantile(open.latency_ns, 0.50, "too few samples") /
                    1e3,
                "us");
    TailContext(open.latency_ns, row);
    row->Metric("space_amp",
                static_cast<double>(totals.bytes_used) / (live * 16.0),
                "ratio");
    row->Metric("peak_rss_mb", PeakRssMb(), "MB");
    row->Metric("reopen_ms", Median(reopen_ms), "ms");
    row->Metric("setup_s", Median(setup_s), "s");
    size_t samples = 0;
    for (const auto& w : open.latency_ns) samples += w.size();
    row->Context("latency_samples", Row::Num(static_cast<double>(samples)));
    row->Context("closed_loop_ops",
                 Row::Num(static_cast<double>(closed_total)));
    return;
  }
  const std::vector<Span> all = Merge(spans);
  const double net_ns = PerOp(SpanTotalNs(all, "net.request"), rung_ops);
  const double executor_ns =
      PerOp(SpanTotalNs(all, "executor.batch"), rung_ops);
  const double store_ns =
      PerOp(SpanTotalNs(all, "store.multi_execute"), rung_ops);
  const double table_ns =
      PerOp(SpanTotalNs(all, "table.multi_execute"), rung_ops);
  row->Metric("net.rung_ns_per_op", net_ns, "ns");
  row->Metric("executor.rung_ns_per_op", executor_ns, "ns");
  row->Metric("store.rung_ns_per_op", store_ns, "ns");
  row->Metric("net.self_ns_per_op", net_ns - executor_ns, "ns");
  const double rung_frames = static_cast<double>(kRungFrames * kLoadThreads);
  row->Metric("net.send_ns_per_request",
              PerOp(SpanTotalNs(all, "net.send"), rung_frames), "ns");
  row->Metric("net.receive_wait_ns_per_request",
              PerOp(SpanTotalNs(all, "net.receive"), rung_frames), "ns");
  row->Metric("net.retry_ratio",
              PerOp(static_cast<double>(net.retry_responses),
                    static_cast<double>(net.responses)),
              "ratio");
  row->Metric("net.pipeline_rejects",
              static_cast<double>(net.pipeline_rejects), "count");
  row->Metric("net.bad_frames", static_cast<double>(net.frames_bad), "count");
  row->Metric("executor.self_ns_per_op", executor_ns - store_ns, "ns");
  row->Metric("executor.submit_ns_per_batch",
              PerOp(SpanTotalNs(all, "executor.submit"), rung_frames), "ns");
  row->Metric("executor.wait_ns_per_batch",
              PerOp(SpanTotalNs(all, "executor.wait"), rung_frames), "ns");
  row->Metric("executor.unavailable_ratio",
              PerOp(static_cast<double>(tally->unavailable),
                    static_cast<double>(tally->attempted)),
              "ratio");
  row->Metric("store.self_ns_per_op", store_ns - table_ns, "ns");
  row->Metric("store.load_factor_spread",
              sharded.max_shard_load_factor - sharded.min_shard_load_factor,
              "ratio");
  row->Metric("table.batch_ns_per_op", table_ns, "ns");
  row->Metric("table.single_ns_per_op",
              PerOp(SpanTotalNs(all, "table.single_frame"), rung_ops), "ns");
  row->Metric("table.batch_call_us_p99",
              RequireQuantile(SpanDurations(all, "table.multi_execute"), 0.99,
                              "too few table calls") /
                  1e3,
              "us");
  row->Metric("table.insert_ns_per_op",
              PerOp(static_cast<double>(served.preload_span_ns),
                    static_cast<double>(spec.keys)),
              "ns");
  CounterMetrics(before, after_closed, amac, closed_mix, totals, row);
  row->Metric("hybrid.compactions",
              static_cast<double>(totals.compactions), "count");
  row->Metric("hybrid.rewrite_bytes_per_update",
              PerOp(static_cast<double>(
                        totals.compaction_bytes_rewritten),
                    static_cast<double>(updates)),
              "bytes");
  row->Metric("hybrid.log_dead_ratio", totals.compaction_dead_ratio,
              "ratio");
  row->Metric("hybrid.log_chunk_bytes",
              static_cast<double>(totals.log_chunk_bytes), "bytes");
  row->Metric("recovery.shard_open_ms_max", shard_open_max, "ms");
  row->Metric("recovery.replayed_records", static_cast<double>(replayed),
              "count");
  row->Metric("recovery.close_ms", close_ms, "ms");
  row->Metric("bench.generator_late_us_p99",
              RequireQuantile(open.late_ns, 0.99, "too few sends") / 1e3,
              "us");
  TailMetrics(open.latency_ns, row);
  TraceOverheadMetrics(mops, traced_mops, row);
  std::vector<Span> written = Merge(closed_spans);
  written.insert(written.end(), all.begin(), all.end());
  if (!WriteSpans(a.span_file, written)) Die("cannot write the span file");
}

// ---- embedded-table --------------------------------------------------------

// One rep of frames [k_begin, k_end) per load thread straight into the
// table: batched through MultiExecute, or (single) as single-op calls.
// Returns wall time.
uint64_t EmbeddedRep(api::KvIndex* index, const FrameGen& gen,
                     const Checker& checker, uint64_t k_begin, uint64_t k_end,
                     bool single, std::vector<std::vector<uint64_t>>* lat,
                     std::vector<SpanLog>* spans,
                     std::vector<std::vector<uint64_t>>* inserted,
                     Tally* tally, Mix* mix) {
  std::vector<Tally> t(kLoadThreads);
  std::vector<Mix> m(kLoadThreads);
  std::vector<std::thread> threads;
  const uint64_t t0 = NowNs();
  for (size_t c = 0; c < kLoadThreads; ++c) {
    threads.emplace_back([&, c] {
      Op ops[kBatch], sent[kBatch];
      Status st[kBatch];
      for (uint64_t k = k_begin; k < k_end; ++k) {
        gen.Make(c, k, ops);
        std::copy(ops, ops + kBatch, sent);
        m[c].Add(ops, kBatch);
        const uint64_t s0 = NowNs();
        if (single) {
          for (size_t i = 0; i < kBatch; ++i) {
            st[i] = ops[i].type == OpType::kSearch
                        ? index->Search(ops[i].key, &ops[i].value)
                        : index->Insert(ops[i].key, ops[i].value);
          }
        } else {
          index->MultiExecute(ops, kBatch, st);
        }
        const uint64_t s1 = NowNs();
        if (lat != nullptr) (*lat)[c].push_back(s1 - s0);
        if (spans != nullptr) {
          (*spans)[c].Add(single ? "table.single_frame" : "table.multi_execute",
                          0, (c << 32) | k, s0, s1);
        }
        for (size_t i = 0; i < kBatch; ++i) {
          checker.Slot(sent[i], st[i], ops[i].value, &t[c]);
          if (sent[i].type == OpType::kInsert && k % 64 == 0 &&
              st[i] == Status::kOk) {
            (*inserted)[c].push_back(sent[i].key);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t wall = NowNs() - t0;
  for (size_t c = 0; c < kLoadThreads; ++c) {
    *tally += t[c];
    *mix += m[c];
  }
  return wall;
}

void RunEmbedded(const Args& a, const Spec& spec, Row* row, Tally* tally) {
  const ValueModel model(a.seed, spec.keys);
  const FrameGen gen(spec, model, a.seed);
  const Checker checker(&model, false);
  const bool traced = a.trace == 1;

  // Set-up (pool + CreateKvIndex + preload), repeated; the last is kept.
  std::vector<double> setup_s;
  Table table;
  uint64_t preload_span_ns = 0;
  for (int r = 0; r < (traced ? 1 : spec.setup_reps); ++r) {
    if (r > 0) {
      table.Close();
      std::remove(table.path.c_str());
    }
    const uint64_t t0 = NowNs();
    OpenTable(spec, a.run_dir + "/table" + std::to_string(r), true, &table);
    api::KvIndex* index = table.index.get();
    preload_span_ns = Preload(
        model, kLoadThreads,
        [index](const uint64_t* k, const uint64_t* v, size_t n, Status* st) {
          index->MultiInsert(k, v, n, st);
        });
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  api::KvIndex* index = table.index.get();

  const uint64_t total_ops =
      static_cast<uint64_t>(a.seconds * spec.ops_per_second);
  const uint64_t rep_frames =
      std::max<uint64_t>(1, total_ops / (kMeasureReps * kLoadThreads * kBatch));
  std::vector<std::vector<uint64_t>> rep_calls, inserted(kLoadThreads);
  std::vector<SpanLog> spans;
  for (size_t c = 0; c < kLoadThreads; ++c) spans.emplace_back(c + 1);
  Mix mix;
  const Counters before{index->Stats(), dash::pmem::AggregatePmStats()};
  dash::util::AmacTelemetry::DrainAll();
  std::vector<double> mops, traced_mops;
  const int reps = 1 + kMeasureReps;  // rep 0 warms up, not reported
  for (int r = 0; r < reps; ++r) {
    const bool trace_rep = traced && r > 0 && r % 2 == 0;
    std::vector<std::vector<uint64_t>> lat(kLoadThreads);
    const uint64_t wall = EmbeddedRep(
        index, gen, checker, r * rep_frames, (r + 1) * rep_frames, false,
        &lat, trace_rep ? &spans : nullptr, &inserted, tally, &mix);
    if (r > 0 && !trace_rep) {
      rep_calls.emplace_back();
      for (const auto& v : lat) {
        rep_calls.back().insert(rep_calls.back().end(), v.begin(), v.end());
      }
    }
    const double m = static_cast<double>(rep_frames * kLoadThreads * kBatch) /
                     (static_cast<double>(wall) / 1e9) / 1e6;
    if (r > 0) (trace_rep ? traced_mops : mops).push_back(m);
  }
  const double batch_ops =
      static_cast<double>(reps * rep_frames * kLoadThreads * kBatch);
  const dash::util::AmacTelemetry amac = dash::util::AmacTelemetry::DrainAll();
  const Counters after{index->Stats(), dash::pmem::AggregatePmStats()};
  const Mix batch_mix = mix;

  // Single-op rung on the frames that follow the batched ones.
  constexpr uint64_t kRungFrames = 4000;
  if (traced) {
    EmbeddedRep(index, gen, checker, reps * rep_frames,
                reps * rep_frames + kRungFrames, true, nullptr, &spans,
                &inserted, tally, &mix);
  }

  const api::IndexStats stats = index->Stats();
  const uint64_t c0 = NowNs();
  table.Close();
  const double close_ms = Ms(NowNs() - c0);

  std::vector<uint64_t> fresh;
  for (const auto& v : inserted) fresh.insert(fresh.end(), v.begin(), v.end());
  std::vector<double> reopen_ms;
  for (int r = 0; r < (traced ? 1 : kReopenReps); ++r) {
    const uint64_t t0 = NowNs();
    OpenTable(spec, table.path, false, &table);
    reopen_ms.push_back(Ms(NowNs() - t0));
    if (table.index->Stats().recovery_source !=
        dash::RecoverySource::kNative) {
      Die("table did not recover natively");
    }
    api::KvIndex* reopened = table.index.get();
    Readback(model, checker, a.seed + 1000 + r, fresh,
             [reopened](const uint64_t* k, size_t n, uint64_t* v,
                        Status* st) { reopened->MultiSearch(k, n, v, st); },
             tally);
    table.Close();
  }
  std::remove(table.path.c_str());

  if (!traced) {
    size_t samples = 0;
    for (const auto& v : rep_calls) samples += v.size();
    row->Metric("throughput_mops", Median(mops), "Mops/s");
    row->Context("rep_mops", Row::List(mops));
    row->Context("setup_reps_s", Row::List(setup_s));
    row->Context("reopen_reps_ms", Row::List(reopen_ms));
    row->Metric("p50_us",
                RequireQuantile(rep_calls, 0.50, "too few samples") / 1e3,
                "us");
    TailContext(rep_calls, row);
    row->Metric("space_amp",
                static_cast<double>(stats.bytes_used) /
                    (static_cast<double>(stats.records) * 16.0),
                "ratio");
    row->Metric("peak_rss_mb", PeakRssMb(), "MB");
    row->Metric("reopen_ms", Median(reopen_ms), "ms");
    row->Metric("setup_s", Median(setup_s), "s");
    row->Context("latency_samples", Row::Num(static_cast<double>(samples)));
    row->Context("measured_ops", Row::Num(batch_ops));
    return;
  }
  const std::vector<Span> all = Merge(spans);
  const double traced_ops =
      static_cast<double>(traced_mops.size() * rep_frames * kLoadThreads *
                          kBatch);
  // Layers above the table are not on this workload's path.
  static const std::pair<const char*, const char*> kOffPath[] = {
      {"net.rung_ns_per_op", "ns"},
      {"net.self_ns_per_op", "ns"},
      {"net.send_ns_per_request", "ns"},
      {"net.receive_wait_ns_per_request", "ns"},
      {"net.retry_ratio", "ratio"},
      {"net.pipeline_rejects", "count"},
      {"net.bad_frames", "count"},
      {"executor.rung_ns_per_op", "ns"},
      {"executor.self_ns_per_op", "ns"},
      {"executor.submit_ns_per_batch", "ns"},
      {"executor.wait_ns_per_batch", "ns"},
      {"executor.unavailable_ratio", "ratio"},
      {"store.rung_ns_per_op", "ns"},
      {"store.self_ns_per_op", "ns"},
      {"store.load_factor_spread", "ratio"},
      {"hybrid.compactions", "count"},
      {"hybrid.rewrite_bytes_per_update", "bytes"},
      {"hybrid.log_dead_ratio", "ratio"},
      {"hybrid.log_chunk_bytes", "bytes"},
      {"recovery.replayed_records", "count"},
      {"bench.generator_late_us_p99", "us"},
  };
  for (const auto& [name, unit] : kOffPath) row->Metric(name, 0, unit);
  row->Metric("table.batch_ns_per_op",
              PerOp(SpanTotalNs(all, "table.multi_execute"), traced_ops),
              "ns");
  row->Metric("table.single_ns_per_op",
              PerOp(SpanTotalNs(all, "table.single_frame"),
                    static_cast<double>(kRungFrames * kLoadThreads * kBatch)),
              "ns");
  row->Metric("table.batch_call_us_p99",
              RequireQuantile(SpanDurations(all, "table.multi_execute"), 0.99,
                              "too few table calls") /
                  1e3,
              "us");
  row->Metric("table.insert_ns_per_op",
              PerOp(static_cast<double>(preload_span_ns),
                    static_cast<double>(spec.keys)),
              "ns");
  CounterMetrics(before, after, amac, batch_mix, stats, row);
  row->Metric("recovery.shard_open_ms_max", Median(reopen_ms), "ms");
  row->Metric("recovery.close_ms", close_ms, "ms");
  TailMetrics(rep_calls, row);
  TraceOverheadMetrics(mops, traced_mops, row);
  if (!WriteSpans(a.span_file, all)) Die("cannot write the span file");
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
         std::string::npos;
}

int Main(int argc, char** argv) {
  Args a;
  Spec spec;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: ladder --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --run-dir=DIR --span-file=PATH "
                 "[--commit=ID]\n");
    return 2;
  }
  if (!FindSpec(a.workload, &spec)) {
    std::fprintf(stderr, "ladder: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  SizePools(a.seconds, &spec);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || SanitizerBuild()) {
    std::fprintf(stderr,
                 "ladder: refusing to record results from a %s%s build\n",
                 PERFBENCH_BUILD_TYPE,
                 SanitizerBuild() ? " sanitizer" : "");
    return 3;
  }
  if (!ListDir(a.run_dir).empty()) Die("--run-dir must be empty");
  dash::pmem::PmEmulationConfig& emu = dash::pmem::GetEmulationConfig();
  emu.read_latency_ns = spec.emu_read_ns;
  emu.flush_latency_ns = spec.emu_flush_ns;
  // The emulation's busy-wait calibrates itself on first use. Doing that
  // here, before any other thread runs, keeps load off the calibration;
  // the measured length of a 300 ns wait goes into the row.
  dash::pmem::SpinNanos(1);
  constexpr int kSpinProbes = 20000;
  const uint64_t spin0 = NowNs();
  for (int i = 0; i < kSpinProbes; ++i) dash::pmem::SpinNanos(300);
  const double spin_300_ns =
      static_cast<double>(NowNs() - spin0) / kSpinProbes;

  Row row;
  row.Context("workload", Row::Quote(spec.name));
  row.Context("seed", Row::Num(static_cast<double>(a.seed)));
  row.Context("seconds", Row::Num(a.seconds));
  row.Context("trace", Row::Num(a.trace));
  row.Context("nproc", Row::Num(std::thread::hardware_concurrency()));
  row.Context("build_type", Row::Quote(PERFBENCH_BUILD_TYPE));
  row.Context("compiler", Row::Quote(__VERSION__));
  row.Context("git_commit", Row::Quote(a.commit));
  row.Context("index_kind", Row::Quote(api::IndexKindName(spec.kind)));
  row.Context("shards", Row::Num(spec.serve ? kShards : 0));
  row.Context("connections", Row::Num(spec.serve ? kLoadThreads : 0));
  row.Context("load_threads", Row::Num(kLoadThreads));
  row.Context("batch", Row::Num(kBatch));
  row.Context("window", Row::Num(spec.serve ? kWindow : 0));
  row.Context("keys", Row::Num(static_cast<double>(spec.keys)));
  row.Context("zipf_theta", Row::Num(spec.zipf_theta));
  row.Context("pm_read_ns", Row::Num(spec.emu_read_ns));
  row.Context("pm_flush_ns", Row::Num(spec.emu_flush_ns));
  row.Context("open_rate_mops", Row::Num(spec.open_rate_mops));
  row.Context("read_pct", Row::Num(spec.serve ? spec.read_pct : 60));
  row.Context("ops_per_second", Row::Num(spec.ops_per_second));
  row.Context("checkpoint_interval_ms",
              Row::Num(spec.checkpoint_interval_ms));
  row.Context("compaction_interval_ms",
              Row::Num(spec.compaction_interval_ms));
  row.Context("compaction_trigger", Row::Num(spec.compaction_trigger));
  row.Context("shard_pool_bytes",
              Row::Num(static_cast<double>(spec.serve ? spec.shard_pool_bytes
                                                      : 0)));
  row.Context("table_pool_bytes",
              Row::Num(static_cast<double>(spec.table_pool_bytes)));
  row.Context("pm_spin_300ns_measured_ns", Row::Num(spin_300_ns));

  Tally tally;
  if (spec.serve) {
    RunServe(a, spec, &row, &tally);
  } else {
    RunEmbedded(a, spec, &row, &tally);
  }
  CheckRunDirEmpty(a.run_dir);
  const double failed_ratio = static_cast<double>(tally.failed) /
                              static_cast<double>(tally.attempted);
  row.Context("failed_ratio", Row::Num(failed_ratio));
  if (a.trace == 0) row.Metric("ok_ratio", 1.0 - failed_ratio, "ratio");
  row.Print(tally);
  return tally.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
