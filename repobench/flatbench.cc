// The repository benchmark: one synthetic microcircuit served by a
// ShardedFlatStore, driven by a single closed-loop client thread under one of
// three workloads (README.md in this directory says why each exists).
//
//   flatbench --workload=sn_mem|lss_disk|churn_overlay --seed=N --seconds=S
//             --trace=0|1 --out=DIR [--git-sha=SHA] [--src-digest=HEX]
//
// --trace=0 measures the end-to-end metrics. --trace=1 measures an untraced
// half-window, then a traced half-window in which the benchmark wraps spans
// around its calls into each layer's public functions and replays sampled
// work layer by layer; it reports the per-layer metrics and writes the spans
// to DIR. Every run checks the store's answers against a brute-force oracle
// and exits 1 if any answer is wrong or any operation fails. The last stdout
// line is the result object; the line before it carries the environment
// fingerprint and sample counts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "benchutil/experiment.h"
#include "core/crawl_scratch.h"
#include "core/flat_index.h"
#include "data/neuron_generator.h"
#include "data/query_generator.h"
#include "engine/query_engine.h"
#include "geometry/box_kernels.h"
#include "geometry/rng.h"
#include "shard/sharded_flat_store.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/page_cache.h"
#include "trace.h"

#ifndef FLATBENCH_BUILD_TYPE
#define FLATBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace flat;
using repobench::Clock;
using repobench::NowNs;
using repobench::Percentile;
using repobench::Tracer;

// The input: 1 M elements at the density of the generator's 100k default.
constexpr size_t kElements = 1000000;
constexpr size_t kShards = 4;
// One engine (and build) thread: the client waits on each batch, so a run
// needs one core at a time. With a thread per core every batch waits for its
// slowest worker, and a shared host that takes any one core away moves qps by
// up to half between runs of the same code.
constexpr size_t kThreads = 1;
// Set-up is repeated and its median reported, so one slow build (first-touch
// page faults, a neighbour's burst) does not move setup_s.
constexpr int kSetupRepeats = 3;
// Enough batches that the p99 batch latency has at least ten samples beyond
// it; a window runs past --seconds until it has them (up to a hard cap).
constexpr size_t kMinBatches = 1000;
constexpr double kMaxWindowSeconds = 100.0;
// Rates are medians over groups of consecutive samples, so a burst of CPU
// steal from the host moves a few groups, not the reported rate. qps groups
// are passes through the batch pool; write_ops_per_s groups are this many
// write rounds.
constexpr size_t kWriteRateGroup = 50;
// Brute-force checks of sampled queries during the first pass of the pool.
constexpr size_t kSampleChecks = 32;
// Write traffic: rounds of 100 ops, a synchronous Compact every 500 rounds.
constexpr size_t kOpsPerRound = 100;
constexpr size_t kRoundsPerCompaction = 500;
// Read workloads measure writes and compaction after their window: this many
// cycles of kRoundsPerCompaction write rounds followed by one Compact.
// Everywhere the first cycle is a warm-up left out of write_ops_per_s and
// compact_s: its new delta-log chunks fault in fresh pages, while later
// cycles' chunks can reuse what the previous Compact freed.
constexpr int kEpilogueCycles = 6;
constexpr size_t kEpilogueChecks = 16;
// churn_overlay checks one query of every this many rounds against the oracle.
constexpr size_t kChurnCheckEvery = 16;
// Page-sized SoA groups the geometry replay gates per traced batch.
constexpr size_t kGateGroups = 256;

struct WorkloadSpec {
  const char* name;
  size_t batch_size;
  double volume_fraction;
  bool disk;            // served by Save + Load(kDisk) instead of Build's store
  bool churn;           // write rounds between the query batches
  bool count_share;     // every 4th query is kRangeCount over the box before it
  size_t pool_batches;  // distinct batches, cycled; reads_per_query uses pass 1
  size_t core_sample;   // queries per traced batch replayed layer by layer
};

constexpr WorkloadSpec kWorkloads[] = {
    {"sn_mem", 1024, kSnVolumeFraction, false, false, false, 64, 8},
    {"lss_disk", 16, kLssVolumeFraction, true, false, true, 128, 2},
    {"churn_overlay", 64, kSnVolumeFraction, false, true, false,
     kRoundsPerCompaction, 4},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (key == "out") {
      args.out = value;
    } else if (key == "git-sha") {
      args.git_sha = value;
    } else if (key == "src-digest") {
      args.src_digest = value;
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      args.out.empty() || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: flatbench --workload=W --seed=N --seconds=S --trace=0|1 "
        "--out=DIR");
  }
  return args;
}

// SplitMix64: independent streams (data, queries, writes, samples) from one
// command-line seed.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Mean(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

// Median over consecutive groups of `group` samples of the group's work rate
// (samples * work_per_sample / summed seconds); a short run makes one group.
double MedianGroupRate(const std::vector<double>& seconds,
                       double work_per_sample, size_t group) {
  std::vector<double> rates;
  for (size_t g = 0; g < seconds.size(); g += group) {
    const size_t end = std::min(seconds.size(), g + group);
    if (end - g < group && !rates.empty()) break;
    double sum = 0.0;
    for (size_t i = g; i < end; ++i) sum += seconds[i];
    rates.push_back(static_cast<double>(end - g) * work_per_sample / sum);
  }
  return Median(rates);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return std::nan("");
}

// Effective cores: `threads` copies of a fixed serial loop, timed together,
// against the same loop alone. A machine shared with busy neighbours reads
// well below `threads`.
double BurnSeconds(size_t threads) {
  std::atomic<uint64_t> sink{0};
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t] {
      uint64_t x = t + 1;
      for (int i = 0; i < 40000000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        x ^= x >> 29;
      }
      sink += x;
    });
  }
  for (std::thread& w : workers) w.join();
  return Seconds(start);
}

double EffectiveCores(size_t threads) {
  const double one = std::min(BurnSeconds(1), BurnSeconds(1));
  return static_cast<double>(threads) * one / BurnSeconds(threads);
}

// Jiffies the host stole from this machine's vCPUs, and all jiffies, from the
// aggregate line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  uint64_t v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

size_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Page cache wrapper that times every Read of the BufferPool it forwards to.
class TimingPageCache final : public PageCache {
 public:
  explicit TimingPageCache(PageCache* inner) : inner_(inner) {}

  const char* Read(PageId id) override {
    const int64_t start = NowNs();
    const char* data = inner_->Read(id);
    read_ns_ += NowNs() - start;
    ++reads_;
    return data;
  }
  void Prefetch(PageId id) override { inner_->Prefetch(id); }
  const char* Peek(PageId id) override { return inner_->Peek(id); }
  bool prefetch_enabled() const override { return inner_->prefetch_enabled(); }

  int64_t read_ns() const { return read_ns_; }
  uint64_t reads() const { return reads_; }

 private:
  PageCache* inner_;
  int64_t read_ns_ = 0;
  uint64_t reads_ = 0;
};

// Mirror of the store's live elements, indexed by id, updated in lockstep
// with every Insert/Erase; answers range queries by exhaustive scan.
class Oracle {
 public:
  Oracle(const Dataset& dataset, uint64_t id_space)
      : boxes_(id_space), alive_(id_space, 0) {
    for (const RTreeEntry& e : dataset.elements) {
      boxes_[e.id] = e.box;
      alive_[e.id] = 1;
    }
  }

  void Insert(const RTreeEntry& e) {
    boxes_[e.id] = e.box;
    alive_[e.id] = 1;
  }
  void Erase(uint64_t id) { alive_[id] = 0; }

  std::vector<uint64_t> Range(const Aabb& query) const {
    std::vector<uint64_t> ids;
    for (uint64_t id = 0; id < boxes_.size(); ++id) {
      if (alive_[id] && boxes_[id].Intersects(query)) ids.push_back(id);
    }
    return ids;
  }

 private:
  std::vector<Aabb> boxes_;
  std::vector<uint8_t> alive_;
};

// Write traffic: 2:1 upserts to erases, ids drawn from 1.25x the base id
// range (so most collide with base elements), each inserted box the size of
// a random base element moved to a random point of the tissue volume.
class WriteStream {
 public:
  struct Op {
    bool erase = false;
    RTreeEntry entry;
  };

  WriteStream(const Dataset& dataset, uint64_t seed)
      : dataset_(dataset), rng_(seed) {}

  uint64_t id_space() const { return dataset_.size() + dataset_.size() / 4; }

  Op Next() {
    Op op;
    op.entry.id = static_cast<uint64_t>(
        rng_.UniformInt(0, static_cast<int64_t>(id_space()) - 1));
    op.erase = rng_.Bernoulli(1.0 / 3.0);
    if (!op.erase) {
      const Aabb& like = dataset_.elements[static_cast<size_t>(rng_.UniformInt(
                                               0, static_cast<int64_t>(
                                                      dataset_.size()) -
                                                      1))]
                             .box;
      op.entry.box = Aabb::FromCenterHalfExtents(rng_.PointIn(dataset_.bounds),
                                                 like.Extents() * 0.5);
    }
    return op;
  }

 private:
  const Dataset& dataset_;
  Rng rng_;
};

// What one measuring window observed.
struct WindowStats {
  std::vector<double> batch_ms;  // churn_overlay: warm cycles only
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t ids_gathered = 0;
  uint64_t range_queries = 0;
  // Overlay-path samples: churn_overlay's traced batches, or on the read
  // workloads one traced batch per epilogue cycle at a full overlay window.
  uint64_t overlay_probes = 0;
  uint64_t overlay_queries = 0;
  uint64_t overlay_batches = 0;
  uint64_t subqueries = 0;
  double overlay_live_sum = 0.0;
};

// Counters of the traced layer-by-layer replay (core, storage, geometry).
struct ReplayStats {
  uint64_t pairs = 0;  // (query, shard) range replays
  uint64_t seed_reads = 0;
  uint64_t object_reads = 0;
  uint64_t results = 0;
  uint64_t count_pairs = 0;
  uint64_t count_reads = 0;
  int64_t read_ns = 0;
  uint64_t read_calls = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t gated_boxes = 0;
  uint64_t traced_batches = 0;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        writes_(dataset_, Derive(args.seed, 2)),
        sample_rng_(Derive(args.seed, 3)) {}

  int Run();

 private:
  void MakeInputs();
  void Setup();
  void RunWindow(double seconds, size_t min_batches, Tracer* tracer,
                 WindowStats* stats);
  void ApplyWrites(Tracer* tracer);
  void CompactStore(Tracer* tracer);
  void CheckResults(const std::vector<Query>& batch,
                    const std::vector<QueryResult>& results, size_t batch_no);
  void CheckAgainst(const Query& query, const QueryResult& result,
                    const std::vector<uint64_t>& expected, const char* what);
  void TraceBatch(const std::vector<Query>& batch,
                  const std::vector<QueryResult>& results, int32_t root,
                  uint32_t batch_id, Tracer* tracer);
  void TracePin(int32_t parent, uint32_t batch_id, Tracer* tracer,
                WindowStats* stats);
  void Epilogue(Tracer* tracer, WindowStats* traced);
  void Fail(const std::string& what);
  std::vector<size_t> Route(const Query& query) const;

  std::vector<Metric> EndToEndMetrics(const WindowStats& window) const;
  std::vector<Metric> PerLayerMetrics(const WindowStats& untraced,
                                      const WindowStats& traced,
                                      const Tracer& tracer) const;
  void WriteTrace(const Tracer& tracer) const;

  const WorkloadSpec& spec_;
  Args args_;
  Dataset dataset_;
  std::vector<std::vector<Query>> batches_;
  WriteStream writes_;
  Rng sample_rng_;
  std::unique_ptr<Oracle> oracle_;
  ShardedFlatStore store_;
  std::unique_ptr<QueryEngine> replay_engine_;  // traced runs only
  std::vector<SoaBoxes> gate_groups_;            // traced runs only
  uint64_t gate_hits_ = 0;  // keeps the gate results observable

  // Set-up repeats.
  std::vector<double> setup_s_, save_s_, load_s_;
  std::vector<ShardedFlatStore::BuildStats> build_stats_;
  uint64_t index_bytes_ = 0;

  // Closed-loop position and write-side totals.
  uint64_t batch_counter_ = 0;
  uint64_t rounds_ = 0;
  uint64_t write_ops_ = 0;
  uint64_t traced_write_ops_ = 0;
  bool writes_warm_ = false;     // set by the first Compact
  std::vector<double> write_s_;  // seconds of each warm ApplyWrites round
  std::vector<double> compact_s_;  // seconds of each warm Compact
  uint64_t prefix_reads_ = 0;
  uint64_t prefix_queries_ = 0;
  ReplayStats replay_;

  // Correctness gate.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

void Bench::Fail(const std::string& what) {
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(what);
}

void Bench::MakeInputs() {
  NeuronParams params;
  params.total_elements = kElements;
  // Scale the tissue side with cbrt(N) so MBR coverage matches the 100k
  // default (see NeuronParams).
  params.volume_side_um = 28.5 * std::cbrt(kElements / 100000.0);
  params.seed = Derive(args_.seed, 0);
  dataset_ = GenerateNeurons(params);

  RangeWorkloadParams queries;
  queries.count = spec_.pool_batches * spec_.batch_size;
  queries.volume_fraction = spec_.volume_fraction;
  queries.seed = Derive(args_.seed, 1);
  const std::vector<Aabb> boxes =
      GenerateRangeWorkload(dataset_.bounds, queries);
  batches_.assign(spec_.pool_batches, {});
  for (size_t i = 0; i < boxes.size(); ++i) {
    std::vector<Query>& batch = batches_[i / spec_.batch_size];
    if (spec_.count_share && i % 4 == 3) {
      batch.push_back(Query::RangeCount(boxes[i - 1]));
    } else {
      batch.push_back(Query::Range(boxes[i]));
    }
  }
  oracle_ = std::make_unique<Oracle>(dataset_, writes_.id_space());
}

void Bench::Setup() {
  const std::filesystem::path dir =
      std::filesystem::path(args_.out) / (std::string(spec_.name) + "-store");
  ShardedFlatStore::Options options;
  options.num_shards = kShards;
  options.num_threads = kThreads;
  options.aggregate_counts = true;
  // Traced runs also time Save/Load on the in-memory workloads, so the
  // storage layer is measured everywhere; only lss_disk serves from disk.
  const bool save_load = spec_.disk || args_.trace;
  for (int r = 0; r < kSetupRepeats; ++r) {
    store_ = ShardedFlatStore();  // drop the last store and its mappings
    std::vector<RTreeEntry> elements = dataset_.elements;
    ShardedFlatStore::BuildStats stats;
    auto start = Clock::now();
    ShardedFlatStore built =
        ShardedFlatStore::Build(std::move(elements), options, &stats);
    double setup = Seconds(start);
    build_stats_.push_back(stats);
    if (save_load) {
      std::filesystem::remove_all(dir);
      start = Clock::now();
      built.Save(dir.string());
      save_s_.push_back(Seconds(start));
      start = Clock::now();
      ShardedFlatStore loaded = ShardedFlatStore::Load(
          dir.string(), kThreads, ShardedFlatStore::LoadBackend::kDisk);
      load_s_.push_back(Seconds(start));
      if (spec_.disk) {
        setup += save_s_.back() + load_s_.back();
        built = std::move(loaded);
      }
    }
    setup_s_.push_back(setup);
    store_ = std::move(built);
  }
  index_bytes_ = 0;
  for (size_t s = 0; s < store_.shard_count(); ++s) {
    index_bytes_ += store_.shard_file(s).SizeBytes();
  }
}

std::vector<size_t> Bench::Route(const Query& query) const {
  // Mirrors the store's scatter: every shard whose element bounds meet the
  // box, minus shards a count can answer from the catalog (aggregates on,
  // shard fully covered, empty overlay window).
  const ShardCatalog& catalog = store_.catalog();
  const bool no_overlay = store_.overlay_op_count() == 0;
  std::vector<size_t> shards;
  for (size_t s = 0; s < catalog.shards.size(); ++s) {
    const Aabb& bounds = catalog.shards[s].bounds;
    if (!bounds.Intersects(query.box)) continue;
    if (query.type == Query::Type::kRangeCount && no_overlay &&
        store_.shard_index(s).has_aggregates() && query.box.Contains(bounds)) {
      continue;
    }
    shards.push_back(s);
  }
  return shards;
}

void Bench::CheckAgainst(const Query& query, const QueryResult& result,
                         const std::vector<uint64_t>& expected,
                         const char* what) {
  const bool ok = query.type == Query::Type::kRangeCount
                      ? result.count == expected.size()
                      : result.ids == expected;
  if (!ok) {
    std::ostringstream msg;
    msg << what << " mismatch at batch " << batch_counter_ << ": got "
        << result.count << " results, oracle has " << expected.size();
    Fail(msg.str());
  }
}

void Bench::CheckResults(const std::vector<Query>& batch,
                         const std::vector<QueryResult>& results,
                         size_t batch_no) {
  attempted_ += batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryResult& r = results[i];
    if (!r.ok()) {
      Fail("query status " + std::to_string(static_cast<int>(r.status)) +
           ": " + r.error);
      continue;
    }
    if (batch[i].type == Query::Type::kRangeCount) {
      // The count must equal the size of the range result over its box.
      if (r.count != results[i - 1].ids.size()) {
        Fail("kRangeCount differs from the matching kRange result size");
      }
    } else if (r.count != r.ids.size() ||
               !std::is_sorted(r.ids.begin(), r.ids.end())) {
      Fail("range result is not a sorted id list of its count");
    }
  }
  // Seeded sample of exhaustive checks.
  const size_t i = static_cast<size_t>(
      sample_rng_.UniformInt(0, static_cast<int64_t>(batch.size()) - 1));
  if (spec_.churn) {
    if (batch_no % kChurnCheckEvery == 0) {
      CheckAgainst(batch[i], results[i], oracle_->Range(batch[i].box),
                   "oracle mirror");
    }
  } else if (batch_no < spec_.pool_batches &&
             batch_no % std::max<size_t>(1, spec_.pool_batches /
                                                kSampleChecks) ==
                 0) {
    std::vector<uint64_t> expected = dataset_.BruteForceRange(batch[i].box);
    std::sort(expected.begin(), expected.end());
    CheckAgainst(batch[i], results[i], expected, "BruteForceRange");
  }
}

void Bench::ApplyWrites(Tracer* tracer) {
  std::vector<WriteStream::Op> pending(kOpsPerRound);
  for (WriteStream::Op& op : pending) op = writes_.Next();
  const int32_t span =
      tracer ? tracer->Begin("delta.append", -1,
                             static_cast<uint32_t>(batch_counter_))
             : -1;
  const auto start = Clock::now();
  for (const WriteStream::Op& op : pending) {
    if (op.erase) {
      store_.Erase(op.entry.id);
    } else {
      store_.Insert(op.entry);
    }
  }
  const double seconds = Seconds(start);
  if (writes_warm_) write_s_.push_back(seconds);
  if (tracer) tracer->End(span);
  for (const WriteStream::Op& op : pending) {
    if (op.erase) {
      oracle_->Erase(op.entry.id);
    } else {
      oracle_->Insert(op.entry);
    }
  }
  write_ops_ += kOpsPerRound;
  if (tracer) traced_write_ops_ += kOpsPerRound;
  attempted_ += kOpsPerRound;
}

void Bench::CompactStore(Tracer* tracer) {
  const int32_t span =
      tracer ? tracer->Begin("build.compact", -1,
                             static_cast<uint32_t>(batch_counter_))
             : -1;
  const ShardedFlatStore::CompactionStats stats = store_.Compact();
  if (tracer) tracer->End(span);
  if (writes_warm_) compact_s_.push_back(stats.seconds);
  writes_warm_ = true;
  ++attempted_;
  if (store_.overlay_op_count() != 0) Fail("Compact left an overlay window");
}

void Bench::RunWindow(double seconds, size_t min_batches, Tracer* tracer,
                      WindowStats* stats) {
  const auto start = Clock::now();
  while (true) {
    const double elapsed = Seconds(start);
    // churn_overlay stops on a compaction boundary after at least one cycle
    // past the warm-up, so every run sees whole cycles of overlay growth and
    // its latencies do not depend on where in a cycle the clock ran out.
    const bool whole_cycles =
        !spec_.churn ||
        (rounds_ % kRoundsPerCompaction == 0 && !compact_s_.empty());
    if ((elapsed >= seconds && stats->batch_ms.size() >= min_batches &&
         whole_cycles) ||
        elapsed >= kMaxWindowSeconds) {
      break;
    }
    if (spec_.churn) ApplyWrites(tracer);

    const size_t batch_no = batch_counter_++;
    const std::vector<Query>& batch = batches_[batch_no % batches_.size()];
    const uint32_t batch_id = static_cast<uint32_t>(batch_no + 1);
    int32_t root = -1;
    if (tracer) {
      root = tracer->Begin("batch", -1, batch_id);
      if (spec_.churn) TracePin(root, batch_id, tracer, stats);
    }

    BatchStats batch_stats;
    const int32_t run =
        tracer ? tracer->Begin("shard.run_batch", root, batch_id) : -1;
    const auto t0 = Clock::now();
    const std::vector<QueryResult> results =
        store_.RunBatch(batch, &batch_stats);
    const double batch_s = Seconds(t0);
    if (tracer) tracer->End(run);

    // The warm-up cycle's batches are left out too (see kEpilogueCycles).
    if (!spec_.churn || writes_warm_) stats->batch_ms.push_back(batch_s * 1e3);
    ++stats->batches;
    stats->queries += batch.size();
    if (spec_.churn) {
      stats->overlay_probes += batch_stats.io.OverlayProbes();
      stats->overlay_queries += batch.size();
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].type == Query::Type::kRangeCount) continue;
      stats->ids_gathered += results[i].ids.size();
      ++stats->range_queries;
    }
    if (batch_no < spec_.pool_batches) {
      prefix_reads_ += batch_stats.io.TotalReads();
      prefix_queries_ += batch.size();
    }

    if (tracer) TraceBatch(batch, results, root, batch_id, tracer);
    const size_t spill = store_.overlay_op_count() > 0 ? 1 : 0;
    for (const Query& q : batch) stats->subqueries += Route(q).size() + spill;

    CheckResults(batch, results, batch_no);
    if (tracer) tracer->End(root);

    if (spec_.churn && ++rounds_ % kRoundsPerCompaction == 0) {
      CompactStore(tracer);
    }
  }
}

void Bench::TraceBatch(const std::vector<Query>& batch,
                       const std::vector<QueryResult>& results, int32_t root,
                       uint32_t batch_id, Tracer* tracer) {
  ++replay_.traced_batches;
  // Engine: the same sub-queries the store scattered, run directly through
  // RunMulti; then an all-null batch of that size (pure scheduling).
  std::vector<IndexedQuery> scatter;
  for (const Query& q : batch) {
    for (size_t s : Route(q)) {
      scatter.push_back(IndexedQuery{&store_.shard_index(s), q});
    }
  }
  int32_t span = tracer->Begin("engine.run_multi", root, batch_id);
  const std::vector<QueryResult> replayed = replay_engine_->RunMulti(scatter);
  tracer->End(span);
  for (const QueryResult& r : replayed) {
    if (!r.ok()) Fail("replayed sub-query failed: " + r.error);
  }
  const std::vector<IndexedQuery> nulls(scatter.size());
  span = tracer->Begin("engine.dispatch", root, batch_id);
  replay_engine_->RunMulti(nulls);
  tracer->End(span);

  // Core + storage: serial seed / crawl / count per (query, shard) for a
  // spread sample of the batch, through a timing wrapper over a cold
  // BufferPool.
  CrawlScratch scratch;
  for (size_t k = 0; k < spec_.core_sample; ++k) {
    const size_t i = k * batch.size() / spec_.core_sample;
    const Aabb& box = batch[i].box;
    uint64_t query_reads = 0;
    uint64_t query_count = 0;
    for (size_t s : Route(Query::Range(box))) {
      const FlatIndex& index = store_.shard_index(s);
      {
        IoStats io;
        BufferPool pool(&store_.shard_file(s), &io);
        TimingPageCache cache(&pool);
        std::vector<uint64_t> ids;
        span = tracer->Begin("core.seed", root, batch_id);
        const std::optional<RecordRef> start = index.Seed(&cache, box);
        tracer->End(span);
        span = tracer->Begin("core.crawl", root, batch_id);
        if (start.has_value()) {
          index.Crawl(&cache, box, *start, &ids,
                      FlatIndex::CrawlGuard::kPartitionMbr, &scratch);
        }
        tracer->End(span);
        ++replay_.pairs;
        replay_.seed_reads += io.ReadsIn(PageCategory::kSeedInternal) +
                              io.ReadsIn(PageCategory::kSeedLeaf);
        replay_.object_reads += io.ReadsIn(PageCategory::kObject);
        replay_.results += ids.size();
        replay_.read_ns += cache.read_ns();
        replay_.read_calls += cache.reads();
        replay_.hits += pool.hits();
        replay_.misses += pool.misses();
        query_reads += io.TotalReads();
      }
      {
        IoStats io;
        BufferPool pool(&store_.shard_file(s), &io);
        span = tracer->Begin("core.count", root, batch_id);
        query_count += index.RangeCount(&pool, box, &scratch);
        tracer->End(span);
        ++replay_.count_pairs;
        replay_.count_reads += io.TotalReads();
      }
    }
    // The replay must account for exactly what the store did.
    if (batch[i].type == Query::Type::kRange) {
      if (query_reads != results[i].io.TotalReads()) {
        Fail("layer replay page reads differ from the store's");
      }
      if (!spec_.churn && query_count != results[i].count) {
        Fail("layer replay RangeCount differs from the store's range result");
      }
    }
  }

  // Geometry: the box gates over page-sized SoA groups of dataset boxes.
  std::vector<uint8_t> hits(NodeCapacity(kDefaultPageSize) + 8);
  span = tracer->Begin("geometry.gate", root, batch_id);
  for (const SoaBoxes& group : gate_groups_) {
    IntersectsSoa(group, batch[0].box, hits.data());
    gate_hits_ += hits[0];
    ContainsSoa(group, batch[0].box, hits.data());
    gate_hits_ += hits[0];
    replay_.gated_boxes += 2 * group.count();
  }
  tracer->End(span);
}

void Bench::TracePin(int32_t parent, uint32_t batch_id, Tracer* tracer,
                     WindowStats* stats) {
  const int32_t pin = tracer->Begin("delta.pin", parent, batch_id);
  const ShardedFlatStore::Snapshot snapshot = store_.PinSnapshot();
  tracer->End(pin);
  stats->overlay_live_sum += static_cast<double>(snapshot.overlay_live_count());
  ++stats->overlay_batches;
}

void Bench::Epilogue(Tracer* tracer, WindowStats* traced) {
  for (int c = 0; c < kEpilogueCycles; ++c) {
    for (size_t r = 0; r < kRoundsPerCompaction; ++r) {
      ApplyWrites(tracer);
    }
    if (tracer) {
      // The delta layer's read side: one batch over the full overlay window,
      // checked like the window's batches plus two queries against the
      // oracle mirror.
      const size_t batch_no = batch_counter_++;
      const std::vector<Query>& batch = batches_[batch_no % batches_.size()];
      const uint32_t batch_id = static_cast<uint32_t>(batch_no + 1);
      TracePin(-1, batch_id, tracer, traced);
      BatchStats batch_stats;
      const int32_t span =
          tracer->Begin("delta.overlay_batch", -1, batch_id);
      const std::vector<QueryResult> results =
          store_.RunBatch(batch, &batch_stats);
      tracer->End(span);
      traced->overlay_probes += batch_stats.io.OverlayProbes();
      traced->overlay_queries += batch.size();
      CheckResults(batch, results, batch_no);
      for (size_t k = 0; k < 2; ++k) {
        const size_t i = k * batch.size() / 2;
        if (batch[i].type == Query::Type::kRange && results[i].ok()) {
          CheckAgainst(batch[i], results[i], oracle_->Range(batch[i].box),
                       "overlay oracle");
        }
      }
    }
    CompactStore(tracer);
  }
  // The compacted store must match the oracle mirror.
  std::vector<Query> batch;
  for (size_t k = 0; k < kEpilogueChecks; ++k) {
    batch.push_back(batches_[k % batches_.size()][k]);
    batch.back().type = Query::Type::kRange;
  }
  const std::vector<QueryResult> results = store_.RunBatch(batch);
  attempted_ += batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!results[i].ok()) {
      Fail("post-compaction query failed: " + results[i].error);
      continue;
    }
    CheckAgainst(batch[i], results[i], oracle_->Range(batch[i].box),
                 "post-compaction oracle");
  }
}

std::vector<Metric> Bench::EndToEndMetrics(const WindowStats& w) const {
  const double attempted = static_cast<double>(attempted_);
  std::vector<double> batch_s;
  for (double ms : w.batch_ms) batch_s.push_back(ms / 1e3);
  return {
      // One group is one pass through the batch pool, so every group runs
      // the same queries; on churn_overlay a pass is one compaction cycle, so
      // every group also covers the whole range of overlay sizes.
      {"qps",
       MedianGroupRate(batch_s, static_cast<double>(spec_.batch_size),
                       spec_.pool_batches),
       "1/s"},
      {"batch_p50_ms", Percentile(w.batch_ms, 50.0), "ms"},
      {"reads_per_query",
       Mean(static_cast<double>(prefix_reads_),
            static_cast<double>(prefix_queries_)),
       "count"},
      {"ok_rate", Mean(attempted - static_cast<double>(failed_), attempted),
       "ratio"},
      {"setup_s", Median(setup_s_), "s"},
      {"bytes_per_element",
       static_cast<double>(index_bytes_) / static_cast<double>(kElements),
       "bytes"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"write_ops_per_s",
       MedianGroupRate(write_s_, static_cast<double>(kOpsPerRound),
                       kWriteRateGroup),
       "1/s"},
      {"compact_s", Median(compact_s_), "s"},
  };
}

std::vector<Metric> Bench::PerLayerMetrics(const WindowStats& untraced,
                                           const WindowStats& traced,
                                           const Tracer& tracer) const {
  const auto totals = repobench::TotalsByName(tracer.spans());
  auto total_s = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end()
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e9;
  };
  auto count = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto median_us = [&](const char* name) {
    std::vector<double> d;
    for (const repobench::Span& s : tracer.spans()) {
      if (std::strcmp(s.name, name) == 0) d.push_back(s.duration_ns() / 1e3);
    }
    return Median(d);
  };
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const ShardedFlatStore::BuildStats& b : build_stats_) {
      v.push_back(field(b));
    }
    return Median(v);
  };
  auto per_shard_sum = [&](double FlatIndex::BuildStats::*phase) {
    return median_of([phase](const ShardedFlatStore::BuildStats& b) {
      double sum = 0.0;
      for (const FlatIndex::BuildStats& s : b.per_shard) sum += s.*phase;
      return sum;
    });
  };

  const double batches = static_cast<double>(traced.batches);
  const double queries = static_cast<double>(traced.queries);
  const double shard_self =
      total_s("shard.run_batch") - total_s("engine.run_multi");
  const double pairs = static_cast<double>(replay_.pairs);
  const double sampled = static_cast<double>(replay_.traced_batches *
                                             spec_.core_sample);
  const double replay_reads =
      static_cast<double>(replay_.seed_reads + replay_.object_reads);
  // Clock overhead inside TimingPageCache::Read: one NowNs pair.
  int64_t clock_ns = 0;
  for (int i = 0; i < 1000; ++i) {
    const int64_t a = NowNs();
    clock_ns += NowNs() - a;
  }
  const double read_ns =
      Mean(static_cast<double>(replay_.read_ns), replay_.read_calls) -
      static_cast<double>(clock_ns) / 1000.0;

  // The batch roots' self time is the benchmark's own work between layers.
  const repobench::SpanTotals& roots = totals.at("batch");

  return {
      {"shard.self_s", Mean(shard_self, batches), "s"},
      {"shard.self_share", Mean(shard_self, total_s("shard.run_batch")),
       "ratio"},
      {"shard.subqueries_per_query",
       Mean(static_cast<double>(traced.subqueries), queries), "count"},
      {"shard.ids_gathered_per_query",
       Mean(static_cast<double>(traced.ids_gathered),
            static_cast<double>(traced.range_queries)),
       "count"},
      {"engine.busy_s", Mean(total_s("engine.run_multi"), batches), "s"},
      {"engine.dispatch_us", median_us("engine.dispatch"), "us"},
      {"core.seed_us_per_query", Mean(total_s("core.seed") * 1e6, pairs),
       "us"},
      {"core.crawl_us_per_query", Mean(total_s("core.crawl") * 1e6, pairs),
       "us"},
      {"core.seed_reads_per_query",
       Mean(static_cast<double>(replay_.seed_reads), sampled), "count"},
      {"core.object_reads_per_query",
       Mean(static_cast<double>(replay_.object_reads), sampled), "count"},
      {"core.results_per_read",
       Mean(static_cast<double>(replay_.results), replay_reads), "ratio"},
      {"core.count_us_per_query",
       Mean(total_s("core.count") * 1e6,
            static_cast<double>(replay_.count_pairs)),
       "us"},
      {"rtree.agg_count_reads_per_query",
       Mean(static_cast<double>(replay_.count_reads), sampled), "count"},
      {"storage.read_ns", read_ns, "ns"},
      {"storage.hit_rate",
       Mean(static_cast<double>(replay_.hits),
            static_cast<double>(replay_.hits + replay_.misses)),
       "ratio"},
      {"storage.save_s", Median(save_s_), "s"},
      {"storage.load_s", Median(load_s_), "s"},
      {"geometry.gate_ns_per_box",
       Mean(total_s("geometry.gate") * 1e9,
            static_cast<double>(replay_.gated_boxes)),
       "ns"},
      {"delta.append_ns_per_op",
       Mean(total_s("delta.append") * 1e9,
            static_cast<double>(traced_write_ops_)),
       "ns"},
      {"delta.pin_us", Mean(total_s("delta.pin") * 1e6, count("delta.pin")),
       "us"},
      {"delta.overlay_probes_per_query",
       Mean(static_cast<double>(traced.overlay_probes),
            static_cast<double>(traced.overlay_queries)),
       "count"},
      {"delta.overlay_live",
       Mean(traced.overlay_live_sum,
            static_cast<double>(traced.overlay_batches)),
       "count"},
      {"build.split_s",
       median_of([](const ShardedFlatStore::BuildStats& b) {
         return b.split_seconds;
       }),
       "s"},
      {"build.shards_s",
       median_of([](const ShardedFlatStore::BuildStats& b) {
         return b.build_seconds;
       }),
       "s"},
      {"build.partition_s",
       per_shard_sum(&FlatIndex::BuildStats::partition_seconds), "s"},
      {"build.neighbor_s",
       per_shard_sum(&FlatIndex::BuildStats::neighbor_seconds), "s"},
      {"build.write_s", per_shard_sum(&FlatIndex::BuildStats::write_seconds),
       "s"},
      {"trace.overhead_pct",
       (Percentile(traced.batch_ms, 50.0) /
            Percentile(untraced.batch_ms, 50.0) -
        1.0) * 100.0,
       "%"},
      {"trace.client_self_share",
       Mean(static_cast<double>(roots.self_ns),
            static_cast<double>(roots.total_ns)),
       "ratio"},
  };
}

void Bench::WriteTrace(const Tracer& tracer) const {
  const std::filesystem::path path =
      std::filesystem::path(args_.out) /
      ("trace-" + std::string(spec_.name) + "-seed" +
       std::to_string(args_.seed) + ".jsonl");
  std::ofstream out(path);
  const int64_t origin =
      tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
  for (const repobench::Span& s : tracer.spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << ",\"batch\":" << s.batch << "}\n";
  }
}

int Bench::Run() {
  std::filesystem::create_directories(args_.out);
  MakeInputs();
  Setup();
  // Calibrate right around the measuring windows: a process's first few
  // hundred ms of parallel work can see fewer cores than later on. The burner
  // runs on every usable CPU, since neighbours that take any of them show up
  // in the figures of a single-threaded run too.
  const size_t cpus = UsableCpus();
  const double cores_before = EffectiveCores(cpus);
  const CpuTimes cpu_before = ReadCpuTimes();

  WindowStats window;
  WindowStats traced;
  Tracer tracer;
  double cores_after = 0.0;
  CpuTimes cpu_after;
  if (!args_.trace) {
    RunWindow(args_.seconds, std::max(kMinBatches, spec_.pool_batches),
              nullptr, &window);
    cpu_after = ReadCpuTimes();
    cores_after = EffectiveCores(cpus);
    if (!spec_.churn) Epilogue(nullptr, nullptr);
  } else {
    QueryEngine::Options engine_options;
    engine_options.threads = kThreads;
    replay_engine_ = std::make_unique<QueryEngine>(engine_options);
    const size_t fanout = NodeCapacity(kDefaultPageSize);
    for (size_t g = 0; g < kGateGroups; ++g) {
      const size_t first = g * (dataset_.size() / kGateGroups);
      gate_groups_.emplace_back();
      gate_groups_.back().Assign(
          reinterpret_cast<const char*>(&dataset_.elements[first].box),
          sizeof(RTreeEntry), fanout);
    }
    RunWindow(args_.seconds / 2, spec_.pool_batches, nullptr, &window);
    RunWindow(args_.seconds / 2, 1, &tracer, &traced);
    cpu_after = ReadCpuTimes();
    cores_after = EffectiveCores(cpus);
    if (!spec_.churn) Epilogue(&tracer, &traced);
  }
  std::filesystem::remove_all(std::filesystem::path(args_.out) /
                              (std::string(spec_.name) + "-store"));
  if (args_.trace) WriteTrace(tracer);

  // A run on a host that did not give this machine all its cores is flagged.
  const bool contended =
      std::min(cores_before, cores_after) < static_cast<double>(cpus) - 0.5;
  const double steal_share =
      Mean(static_cast<double>(cpu_after.steal - cpu_before.steal),
           static_cast<double>(cpu_after.total - cpu_before.total));

  const std::vector<Metric> metrics =
      args_.trace ? PerLayerMetrics(window, traced, tracer)
                  : EndToEndMetrics(window);
  const std::optional<double> tail = repobench::TailPercentile(
      window.batch_ms.size());

  std::ostringstream info;
  info << "{\"fingerprint\": {\"git_sha\": " << JsonString(args_.git_sha)
       << ", \"src_digest\": " << JsonString(args_.src_digest)
       << ", \"build_type\": " << JsonString(FLATBENCH_BUILD_TYPE)
       << ", \"kernel_isa\": " << JsonString(BoxKernelIsa())
       << ", \"nproc\": " << cpus << ", \"threads_used\": " << kThreads
       << ", \"effective_cores_before\": " << JsonNumber(cores_before)
       << ", \"effective_cores_after\": " << JsonNumber(cores_after)
       << ", \"window_steal_share\": " << JsonNumber(steal_share)
       << ", \"contended\": " << (contended ? "true" : "false")
       << "}, \"run\": {\"workload\": " << JsonString(spec_.name)
       << ", \"seed\": " << args_.seed << ", \"seconds\": "
       << JsonNumber(args_.seconds) << ", \"trace\": " << args_.trace
       << ", \"elements\": " << kElements << ", \"shards\": "
       << store_.shard_count() << ", \"batch_size\": " << spec_.batch_size
       << ", \"batches\": " << window.batches + traced.batches
       << ", \"untraced_batches\": " << window.batches
       << ", \"batch_p99_ms\": "
       << JsonNumber(Percentile(window.batch_ms, 99.0))
       << ", \"tail_percentile_supported\": "
       << (tail ? JsonNumber(*tail) : "null")
       << ", \"compactions\": " << compact_s_.size()
       << ", \"write_ops\": " << write_ops_ << ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    info << (i ? ", " : "") << JsonString(errors_[i]);
  }
  info << "]}}";
  std::cout << info.str() << "\n";

  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << JsonString(metrics[i].name)
              << ": {\"value\": " << JsonNumber(metrics[i].value)
              << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return failed_ == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = ParseArgs(argc, argv);
    for (const WorkloadSpec& spec : kWorkloads) {
      if (args.workload == spec.name) return Bench(spec, args).Run();
    }
    std::cerr << "flatbench: unknown workload " << args.workload << "\n";
  } catch (const std::exception& e) {
    std::cerr << "flatbench: " << e.what() << "\n";
  }
  return 2;
}
