#include "perfbench/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>

#include "bench/bench_util.h"
#include "birch/birch.h"
#include "datagen/generator.h"
#include "eval/matching.h"
#include "eval/quality.h"
#include "obs/export.h"
#include "perfbench/gates.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "util/random.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using birch::BirchClusterer;
using birch::BirchOptions;
using birch::BirchResult;
using birch::CfVector;
using birch::Dataset;
using birch::Timer;
using birch::obs::MetricsSnapshot;
using birch::serving::BirchServer;
using Clock = std::chrono::steady_clock;

int64_t Ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

constexpr int kClusters = 100;
constexpr size_t kBatch = 1024;  // points per AddBatch call
// cluster-sharded: 3 shard workers plus the dealing thread fill 4 cores.
constexpr int kShards = 3;
// serve-live: 1 ingest + 2 reader threads leave a core for the OS.
constexpr int kReaders = 2;
constexpr size_t kKnnK = 5;
constexpr uint64_t kKnnEvery = 16;       // every 16th query is a KNN
constexpr uint64_t kAgeEvery = 256;      // epoch-age sample cadence
// Traced repetitions record one Assign and one KNN span per this many
// queries per reader (q % N == 1 is an Assign, q % N == 0 a KNN).
constexpr uint64_t kTraceEvery = 4096;
constexpr size_t kDeterminismStride = 7;
constexpr uint64_t kQuerySeedSalt = 0x9e3779b97f4a7c15ULL;

struct Inputs {
  birch::GeneratedData gen;
  Dataset queries{2};
};

birch::StatusOr<Inputs> MakeInputs(const Config& c) {
  birch::GeneratorOptions g;  // DS1: grid, K = 100, r = sqrt(2), randomized
  g.dim = 2;
  g.k = kClusters;
  g.n_low = g.n_high = c.points_per_cluster;
  g.noise_fraction = 0.05;
  g.seed = InputSeed(c.seed, c.input);
  Inputs in;
  auto gen = birch::Generate(g);
  if (!gen.ok()) return gen.status();
  in.gen = std::move(gen).ValueOrDie();
  g.n_low = g.n_high = c.query_points_per_cluster;
  g.seed = InputSeed(c.seed, c.input) ^ kQuerySeedSalt;
  auto held_out = birch::Generate(g);
  if (!held_out.ok()) return held_out.status();
  in.queries = std::move(held_out.value().data);
  return in;
}

uint64_t HashInputs(const Inputs& in) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  auto mix_doubles = [&mix](std::span<const double> values) {
    for (double v : values) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  };
  mix_doubles(in.gen.data.Values());
  for (int t : in.gen.truth) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(t)));
  }
  mix_doubles(in.queries.Values());
  return h;
}

BirchOptions OptionsFor(const Config& c, uint64_t n) {
  BirchOptions o = birch::bench::PaperDefaults(kClusters, n);
  if (c.workload == Workload::kClusterSharded) o.exec.num_threads = kShards;
  // Past N: the cadence never fires, so every epoch comes from a
  // benchmark-timed PublishSnapshot() call at a fixed stream position.
  if (c.workload == Workload::kServeLive) o.serving.publish_every_n = n + 1;
  return o;
}

uint64_t Counter(const MetricsSnapshot& m, const char* name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

double Gauge(const MetricsSnapshot& m, const char* name) {
  auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

const birch::obs::HistogramSnapshot* Hist(const MetricsSnapshot& m,
                                          const char* name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? nullptr : &it->second;
}

uint64_t TreeMass(const birch::CfTree& tree) {
  std::vector<CfVector> entries;
  tree.CollectLeafEntries(&entries);
  return gates::Mass(entries);
}

/// Closed-loop readers: each sends Assign, with every 16th query a
/// KNearestCentroids(k = 5), timing every call. Started idle; Go()
/// releases them and they run until Stop().
class Readers {
 public:
  struct Out {
    LatencyHist assign;
    LatencyHist knn;
    uint64_t assign_ok = 0;
    uint64_t knn_ok = 0;
    uint64_t failed = 0;
    std::vector<double> age_ms;
    std::string gate_failure;
  };

  Readers(const BirchServer* server, const Dataset* queries, int count,
          TraceLog* trace)
      : outs_(static_cast<size_t>(count)) {
    for (int r = 0; r < count; ++r) {
      threads_.emplace_back([=, this] {
        Loop(*server, *queries, r, trace, &outs_[r]);
      });
    }
  }
  ~Readers() { Join(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void Go() { SetState(kRun); }
  void Stop() { SetState(kStop); }
  void Join() {
    if (state_.load() == kIdle) Stop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  /// Valid after Join().
  const std::vector<Out>& outs() const { return outs_; }

 private:
  enum : int { kIdle = 0, kRun = 1, kStop = 2 };

  void SetState(int s) {
    state_.store(s);
    state_.notify_all();
  }

  void Loop(const BirchServer& server, const Dataset& queries, int reader,
            TraceLog* trace, Out* out) {
    state_.wait(kIdle);
    ScopedSpan window(trace, "Readers");
    size_t row = (queries.size() / 2) * static_cast<size_t>(reader);
    for (uint64_t q = 1; state_.load(std::memory_order_relaxed) == kRun;
         ++q) {
      auto point = queries.Row(row);
      row = row + 1 == queries.size() ? 0 : row + 1;
      const bool knn = q % kKnnEvery == 0;
      const int span =
          trace != nullptr && q % kTraceEvery <= 1
              ? trace->Begin(knn ? "KNearestCentroids" : "Assign", window.id())
              : -1;
      if (knn) {
        const auto t0 = Clock::now();
        auto hits = server.KNearestCentroids(point, kKnnK);
        const auto t1 = Clock::now();
        out->knn.Add(Ns(t1 - t0));
        if (hits.ok()) {
          ++out->knn_ok;
          if (out->gate_failure.empty()) {
            out->gate_failure = gates::KnnAscending(hits.value(), kKnnK);
          }
        } else {
          ++out->failed;
        }
      } else {
        const auto t0 = Clock::now();
        auto got = server.Assign(point);
        const auto t1 = Clock::now();
        out->assign.Add(Ns(t1 - t0));
        if (got.ok() && got.value().cluster_id >= 0) {
          ++out->assign_ok;
        } else {
          ++out->failed;
        }
      }
      if (span >= 0) trace->End(span);
      if (q % kAgeEvery == 0) out->age_ms.push_back(server.SnapshotAgeMs());
    }
  }

  std::atomic<int> state_{kIdle};
  std::vector<Out> outs_;
  std::vector<std::thread> threads_;  // last: joined before outs_ dies
};

void CollectReaders(const Readers& readers, double window_s, RepResult* rep) {
  std::vector<double> ages;
  uint64_t attempted = 0;
  for (const Readers::Out& o : readers.outs()) {
    rep->assign.Merge(o.assign);
    rep->knn.Merge(o.knn);
    rep->assign_ok += o.assign_ok;
    rep->knn_ok += o.knn_ok;
    rep->failed += o.failed;
    attempted += o.assign.count() + o.knn.count();
    ages.insert(ages.end(), o.age_ms.begin(), o.age_ms.end());
    if (!o.gate_failure.empty()) rep->gate_failures.push_back(o.gate_failure);
  }
  rep->attempted += attempted;
  rep->times["serving.assign_qps"] = rep->assign_ok / window_s;
  rep->times["serving.knn_qps"] = rep->knn_ok / window_s;
  rep->times["serving.knn_p50_us"] = rep->knn.QuantileUs(0.5);
  rep->times["serving.epoch_age_ms_p50"] = Median(ages);
}

/// Times the GlobalCluster call a publish makes (k = 100, the paper's
/// hierarchical D2 defaults) on `entries`.
void TimePublishClustering(const std::vector<CfVector>& entries,
                           RepResult* rep) {
  birch::GlobalClusterOptions g;
  g.k = std::min<int>(kClusters, static_cast<int>(entries.size()));
  Timer t;
  auto clustering = birch::GlobalCluster(entries, g);
  rep->times["global_cluster.publish_ms"] = t.Millis();
  if (!clustering.ok()) {
    rep->gate_failures.push_back("GlobalCluster: " +
                                 clustering.status().ToString());
  }
}

/// The gates and per-layer timings of the last epoch a server holds.
void CheckEpoch(const BirchServer& server, const Inputs& in, bool traced,
                RepResult* rep) {
  auto epoch = server.Acquire();
  if (epoch == nullptr) {
    rep->gate_failures.push_back("no serving epoch was published");
    return;
  }
  std::string why =
      gates::EpochDeterminism(*epoch, in.queries, kDeterminismStride);
  if (!why.empty()) rep->gate_failures.push_back(why);
  why = gates::SameMass(epoch->clusters(), gates::Mass(epoch->LeafEntries()),
                        "epoch cluster table vs its leaf entries");
  if (!why.empty()) rep->gate_failures.push_back(why);
  rep->counts["serving.snapshot_kb"] = epoch->MemoryBytes() / 1024.0;
  if (traced) TimePublishClustering(epoch->LeafEntries(), rep);
}

void Quality(const Inputs& in, std::span<const CfVector> clusters,
             RepResult* rep) {
  std::vector<CfVector> actual;
  actual.reserve(in.gen.actual.size());
  for (const auto& a : in.gen.actual) actual.push_back(a.cf);
  rep->d_ratio = birch::WeightedAverageDiameter(clusters) /
                 birch::WeightedAverageDiameter(actual);
  rep->clusters_matched = birch::MatchClusters(in.gen.actual, clusters).matched;
  const std::string why = gates::DRatio(rep->d_ratio);
  if (!why.empty()) rep->gate_failures.push_back(why);
}

/// Per-layer counts, and the pagestore time, over the obs `delta`.
void LayerCounts(const Config& c, const MetricsSnapshot& delta,
                 const BirchResult& result, RepResult* rep) {
  auto& k = rep->counts;
  k["cf_tree.distance_comps_per_point"] =
      static_cast<double>(Counter(delta, "tree/distance_comps")) / rep->n;
  k["cf_tree.leaf_splits"] = Counter(delta, "tree/leaf_splits");
  k["cf_tree.nonleaf_splits"] = Counter(delta, "tree/nonleaf_splits");
  k["cf_tree.merge_refinements"] = Counter(delta, "tree/merge_refinements");
  k["phase1.rebuilds"] = Counter(delta, "phase1/rebuilds");
  k["phase1.leaf_entries"] = result.leaf_entries_after_phase1;
  k["phase1.final_threshold"] = result.phase1.final_threshold;
  k["phase1.peak_tree_kb"] = result.peak_memory_bytes / 1024.0;
  k["pagestore.pages_written"] = Counter(delta, "pagestore/pages_written");
  k["pagestore.pages_read"] = Counter(delta, "pagestore/pages_read");
  k["phase1.outliers_spilled"] = Counter(delta, "phase1/outlier_spills");
  k["phase1.outliers_reabsorbed"] =
      Counter(delta, "phase1/outliers_reabsorbed");
  k["phase1.delay_spills"] = Counter(delta, "phase1/delay_spills");
  k["phase1_parallel.rebuilds"] = c.workload == Workload::kClusterSharded
                                      ? Counter(delta, "phase1/rebuilds")
                                      : 0.0;
  k["exec.tasks"] = Counter(delta, "exec/tasks");
  k["phase2.entries_out"] = result.leaf_entries_after_phase2;
  k["global_cluster.input_entries"] = Counter(delta, "phase3/input_entries");
  k["refine.label_changes"] = Counter(delta, "phase4/label_changes");

  double io_us = 0.0;
  for (const char* h : {"pagestore/read_us", "pagestore/write_us"}) {
    if (const auto* hist = Hist(delta, h)) io_us += hist->sum;
  }
  rep->times["pagestore.io_s"] = io_us / 1e6;
}

/// Serving-side obs views over the window that served queries.
void ServingHistograms(const MetricsSnapshot& delta, RepResult* rep) {
  if (const auto* h = Hist(delta, "serving/publish_us"); h && h->count > 0) {
    rep->times["serving.snapshot_build_ms"] = h->sum / h->count / 1e3;
  }
  if (const auto* h = Hist(delta, "serving/assign_us"); h && h->count > 0) {
    rep->times["serving.assign_hist_p99_us"] = h->Quantile(0.99);
  }
}

/// Trace-derived per-layer timings. `cutoff_us` ends the workload
/// proper (later spans belong to untimed checks).
void TraceTimes(const std::vector<birch::obs::TraceEvent>& events,
                uint64_t cutoff_us, RepResult* rep) {
  const SpanTable table = Summarize(events, cutoff_us);
  auto total = [&table](const char* name) {
    auto it = table.find(name);
    return it == table.end() ? 0.0 : it->second.total_s;
  };
  auto& t = rep->times;
  t["phase1.busy_s"] = rep->phase1_s;
  t["phase1.rebuild_s"] = total("phase1/rebuild");
  t["phase2.busy_s"] = total("birch/phase2");
  t["global_cluster.busy_s"] = total("phase3/global");
  t["refine.busy_s"] = total("birch/phase4");
  t["refine.points_per_s"] =
      t["refine.busy_s"] > 0.0 ? rep->n / t["refine.busy_s"] : 0.0;
  if (auto it = table.find("phase1/shard"); it != table.end()) {
    const SpanTotals& shards = it->second;
    t["exec.shard_busy_s"] = shards.total_s;
    t["exec.shard_imbalance"] =
        shards.max_s / (shards.total_s / static_cast<double>(shards.count));
    t["phase1_parallel.tail_s"] = rep->phase1_s - shards.max_s;
  }
}

/// AddBatch of the `j`-th batch of `data`.
void Ingest(BirchClusterer* c, const Dataset& data, size_t j, TraceLog* trace,
            int parent, RepResult* rep) {
  ScopedSpan span(trace, "AddBatch", parent);
  ++rep->attempted;
  const size_t first = j * kBatch;
  const size_t count = std::min(kBatch, data.size() - first);
  const size_t dim = data.dim();
  birch::Status st =
      c->AddBatch(data.Values().subspan(first * dim, count * dim), count);
  if (!st.ok()) {
    ++rep->failed;
    rep->gate_failures.push_back("AddBatch: " + st.ToString());
  }
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kClusterSerial:
      return "cluster-serial";
    case Workload::kClusterSharded:
      return "cluster-sharded";
    case Workload::kServeLive:
      return "serve-live";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kClusterSerial, Workload::kClusterSharded,
                     Workload::kServeLive}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t InputSeed(uint64_t seed, int input) {
  uint64_t state = seed, out = seed;
  for (int i = 0; i < input; ++i) out = birch::SplitMix64(&state);
  return out;
}

RepResult RunRepetition(const Config& c, TraceLog* trace) {
  RepResult rep;
  auto& tracer = birch::obs::Tracer::Default();
  // Stops the program's event recording on every way out.
  struct Recording {
    birch::obs::Tracer* tracer;
    ~Recording() {
      if (tracer != nullptr) tracer->StopRecording();
    }
  } recording{trace != nullptr ? &tracer : nullptr};
  if (trace != nullptr) {
    tracer.Reset();
    tracer.StartRecording();
  }
  ScopedSpan root(trace, "repetition");

  // --- Set-up: input, Create, reader start. ---
  Timer setup;
  int setup_span = trace != nullptr ? trace->Begin("setup", root.id()) : -1;
  auto inputs_or = MakeInputs(c);
  if (!inputs_or.ok()) {
    rep.gate_failures.push_back("input: " + inputs_or.status().ToString());
    return rep;
  }
  const Inputs& in = inputs_or.value();
  const Dataset& data = in.gen.data;
  rep.n = data.size();
  const BirchOptions options = OptionsFor(c, rep.n);
  const MetricsSnapshot before = birch::obs::CaptureSnapshot();
  auto clusterer_or = BirchClusterer::Create(options);
  if (!clusterer_or.ok()) {
    rep.gate_failures.push_back("Create: " + clusterer_or.status().ToString());
    return rep;
  }
  BirchClusterer* c_ptr = clusterer_or.value().get();
  std::unique_ptr<Readers> readers;
  if (c.workload == Workload::kServeLive) {
    readers = std::make_unique<Readers>(c_ptr->server(), &in.queries,
                                        kReaders, trace);
  }
  rep.setup_s = setup.Seconds();
  if (trace != nullptr) trace->End(setup_span);
  rep.input_hash = HashInputs(in);

  const size_t batches = (rep.n + kBatch - 1) / kBatch;
  Timer run;
  BirchResult result;
  MetricsSnapshot mid;  // the registry when the workload's result is in
  uint64_t cutoff_us = UINT64_MAX;
  if (c.workload != Workload::kServeLive) {
    // --- cluster-*: the whole pipeline. ---
    ++rep.attempted;
    birch::StatusOr<BirchResult> result_or =
        birch::Status::FailedPrecondition("not run");
    if (c.workload == Workload::kClusterSerial) {
      for (size_t j = 0; j < batches && rep.failed == 0; ++j) {
        Ingest(c_ptr, data, j, trace, root.id(), &rep);
      }
      ScopedSpan span(trace, "Finish", root.id());
      result_or = c_ptr->Finish(&data);
    } else {
      birch::DatasetSource source(&data);
      ScopedSpan span(trace, "Cluster", root.id());
      result_or = c_ptr->Cluster(&source, &data);
    }
    rep.run_s = run.Seconds();
    mid = birch::obs::CaptureSnapshot();
    cutoff_us = tracer.NowUs();
    if (!result_or.ok()) {
      ++rep.failed;
      rep.gate_failures.push_back("pipeline: " + result_or.status().ToString());
      return rep;
    }
    result = std::move(result_or).ValueOrDie();
    rep.phase1_s = result.timings.phase1;
    if (trace != nullptr) {
      std::vector<CfVector> entries;
      c_ptr->tree().CollectLeafEntries(&entries);
      TimePublishClustering(entries, &rep);
    }
    std::string why = gates::Labels(result.labels, rep.n, result.clusters);
    if (!why.empty()) rep.gate_failures.push_back(why);
    if (c.workload == Workload::kClusterSerial) {
      why = gates::Memory(result.peak_memory_bytes,
                          result.tree_nodes * options.resources.page_size,
                          options.resources.memory_bytes);
      if (!why.empty()) rep.gate_failures.push_back(why);
    }
    Quality(in, result.clusters, &rep);
  } else {
    // --- serve-live: serial ingest, timed publishes, live readers. ---
    const size_t per_epoch =
        std::max<size_t>(1, batches / static_cast<size_t>(c.epochs));
    Timer window;
    for (size_t j = 0; j < batches && rep.failed == 0; ++j) {
      Timer t;
      Ingest(c_ptr, data, j, trace, root.id(), &rep);
      rep.phase1_s += t.Seconds();
      if ((j + 1) % per_epoch != 0) continue;
      ScopedSpan span(trace, "PublishSnapshot", root.id());
      Timer p;
      ++rep.attempted;
      birch::Status st = c_ptr->PublishSnapshot();
      rep.publish_ms.push_back(p.Millis());
      if (!st.ok()) {
        ++rep.failed;
        rep.gate_failures.push_back("PublishSnapshot: " + st.ToString());
      }
      if (rep.publish_ms.size() == 1) {
        readers->Go();
        window.Restart();
      }
    }
    // Publish cost swings with the seed (it is quadratic in the live
    // tree's leaf entries), so it is reported per layer, not here.
    rep.run_s = run.Seconds() -
                std::accumulate(rep.publish_ms.begin(), rep.publish_ms.end(),
                                0.0) / 1e3;
    readers->Stop();
    const double window_s = window.Seconds();
    readers->Join();
    CollectReaders(*readers, window_s, &rep);

    birch::StatusOr<BirchResult> snap_or =
        birch::Status::FailedPrecondition("not run");
    {
      ScopedSpan span(trace, "Snapshot", root.id());
      ++rep.attempted;
      snap_or = c_ptr->Snapshot(kClusters);
    }
    mid = birch::obs::CaptureSnapshot();
    cutoff_us = tracer.NowUs();
    ServingHistograms(mid.DeltaSince(before), &rep);
    CheckEpoch(*c_ptr->server(), in, trace != nullptr, &rep);
    if (!snap_or.ok()) {
      ++rep.failed;
      rep.gate_failures.push_back("Snapshot: " + snap_or.status().ToString());
      return rep;
    }
    Quality(in, snap_or.value().clusters, &rep);
    std::string why = gates::SameMass(snap_or.value().clusters,
                                      TreeMass(c_ptr->tree()),
                                      "Snapshot clusters vs live tree");
    if (!why.empty()) rep.gate_failures.push_back(why);

    // Untimed: settle the outliers Phase 1 set aside, so the CF-mass
    // gate below sees all N points.
    auto finished = c_ptr->Finish();
    if (!finished.ok()) {
      rep.gate_failures.push_back("Finish: " + finished.status().ToString());
      return rep;
    }
    result = std::move(finished).ValueOrDie();
  }

  LayerCounts(c, mid.DeltaSince(before), result, &rep);
  rep.times["exec.steal_s"] =
      (Gauge(mid, "exec/steal_ns") - Gauge(before, "exec/steal_ns")) / 1e9;
  std::string why = gates::MassConserved(TreeMass(c_ptr->tree()),
                                         result.outlier_points, rep.n);
  if (!why.empty()) rep.gate_failures.push_back(why);

  clusterer_or.value().reset();  // its phase-1 span ends while recording
  if (trace != nullptr) {
    tracer.StopRecording();
    rep.program_events = tracer.events();
    tracer.Reset();
    TraceTimes(rep.program_events, cutoff_us, &rep);
  }
  return rep;
}

}  // namespace perfbench
