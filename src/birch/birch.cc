#include "birch/birch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "birch/checkpoint.h"
#include "birch/phase1_parallel.h"
#include "birch/run_report.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "exec/thread_pool.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/math.h"
#include "util/timer.h"

namespace birch {

namespace {

CfTreeOptions TreeOptionsFrom(const BirchOptions& o) {
  CfTreeOptions t;
  t.dim = o.dim;
  t.page_size = o.resources.page_size;
  t.threshold = o.tree.initial_threshold;
  t.metric = o.tree.metric;
  t.threshold_kind = o.tree.threshold_kind;
  t.merging_refinement = o.tree.merging_refinement;
  t.cf = o.tree.cf;
  t.cf_storage = o.tree.cf_storage;
  t.kernel = o.exec.kernel;
  return t;
}

serving::SnapshotBuildOptions SnapshotOptionsFrom(const BirchOptions& o,
                                                 uint64_t points_ingested) {
  serving::SnapshotBuildOptions s;
  s.k = o.serving.publish_k > 0 ? o.serving.publish_k : o.k;
  s.distance_limit = o.global_phase.distance_limit;
  s.algorithm = o.global_phase.algorithm;
  s.metric = o.global_phase.metric;
  s.seed = o.seed;
  s.kernel = o.exec.kernel;
  s.points_ingested = points_ingested;
  return s;
}

Phase1Options Phase1OptionsFrom(const BirchOptions& o) {
  Phase1Options p;
  p.tree = TreeOptionsFrom(o);
  p.memory_budget_bytes = o.resources.memory_bytes;
  p.disk_budget_bytes = o.resources.disk_bytes;
  p.outlier_handling = o.outliers.handling;
  p.outlier_fraction = o.outliers.fraction;
  p.delay_split = o.outliers.delay_split;
  p.expected_points = o.expected_points;
  p.fault = o.resources.fault;
  p.retry = o.resources.io_retry;
  p.page_codec = o.resources.page_codec;
  p.hot_tier_bytes = o.resources.hot_tier_bytes;
  return p;
}

ShardedPhase1Options IngestOptionsFrom(const BirchOptions& o) {
  ShardedPhase1Options sp;
  sp.phase1 = Phase1OptionsFrom(o);
  sp.num_shards = o.exec.num_threads;
  sp.splitter_seed = o.exec.splitter_seed;
  return sp;
}

/// Phases 2-4 plus result bookkeeping. `pool` is nullptr when
/// num_threads == 0; a one-worker pool runs every loop as one inline
/// chunk, so the arithmetic is the same.
StatusOr<BirchResult> RunPhases234(const BirchOptions& options,
                                   const Phase1Outcome& p1,
                                   double phase1_seconds,
                                   const Dataset* for_refinement,
                                   exec::ThreadPool* pool,
                                   const obs::MetricsSnapshot& baseline) {
  BirchResult result;
  Timer timer;
  CfTree* tree = p1.tree;
  result.timings.phase1 = phase1_seconds;
  result.phase1 = p1.stats;
  result.robustness = p1.robustness;
  result.leaf_entries_after_phase1 = tree->leaf_entry_count();

  // --- Phase 2: condense for the global algorithm. ---
  timer.Restart();
  obs::SpanScope phase2_span("birch/phase2");
  std::vector<CfVector> shed_outliers;
  if (options.global_phase.use_phase2 &&
      tree->leaf_entry_count() > options.global_phase.phase2_target_entries) {
    Phase2Options p2;
    p2.target_leaf_entries = options.global_phase.phase2_target_entries;
    if (options.outliers.handling && tree->leaf_entry_count() > 0) {
      // Phase 2 "removes more outliers" (paper Sec. 5): entries far
      // below the average density are shed while condensing.
      double avg = tree->TreeSummary().n() /
                   static_cast<double>(tree->leaf_entry_count());
      p2.outlier_weight_threshold = options.outliers.fraction * avg;
    }
    BIRCH_RETURN_IF_ERROR(
        CondenseTree(tree, p2, &shed_outliers, &result.phase2));
  }
  result.leaf_entries_after_phase2 = tree->leaf_entry_count();
  result.timings.phase2 = timer.Seconds();
  phase2_span.End();

  // --- Phase 3: global clustering of the leaf entries. ---
  timer.Restart();
  obs::SpanScope phase3_span("birch/phase3");
  std::vector<CfVector> entries;
  tree->CollectLeafEntries(&entries);
  if (entries.empty()) {
    return Status::FailedPrecondition(
        "no data was added: ingest at least one point (AddBatch/Add/"
        "AddSource) before running the pipeline");
  }
  GlobalClusterOptions g;
  g.k = options.k;
  g.distance_limit = options.global_phase.distance_limit;
  g.algorithm = options.global_phase.algorithm;
  g.metric = options.global_phase.metric;
  g.seed = options.seed;
  g.pool = pool;
  g.kernel = options.exec.kernel;
  auto clustering_or = GlobalCluster(entries, g);
  if (!clustering_or.ok()) return clustering_or.status();
  GlobalClustering& clustering = clustering_or.value();
  result.timings.phase3 = timer.Seconds();
  phase3_span.End();

  result.clusters = clustering.clusters;

  // --- Phase 4: refinement / labelling over the raw data. ---
  timer.Restart();
  obs::SpanScope phase4_span("birch/phase4");
  if (for_refinement != nullptr && !for_refinement->empty()) {
    RefineOptions r;
    r.passes = std::max(1, options.refine.passes);
    r.stop_when_stable = true;
    r.outlier_distance = options.refine.outlier_distance;
    r.pool = pool;
    r.kernel = options.exec.kernel;
    auto refined_or = RefineClusters(*for_refinement, result.clusters, r);
    if (!refined_or.ok()) return refined_or.status();
    RefineResult& refined = refined_or.value();
    if (options.refine.passes > 0) {
      // Keep the refined clusters (drop any that ended empty).
      result.labels = std::move(refined.labels);
      std::vector<int> remap(refined.clusters.size(), -1);
      std::vector<CfVector> kept;
      for (size_t c = 0; c < refined.clusters.size(); ++c) {
        if (!refined.clusters[c].empty()) {
          remap[c] = static_cast<int>(kept.size());
          kept.push_back(refined.clusters[c]);
        }
      }
      for (auto& l : result.labels) {
        if (l >= 0) l = remap[static_cast<size_t>(l)];
      }
      result.clusters = std::move(kept);
    } else {
      // refinement_passes == 0: labels only, clusters stay Phase-3.
      result.labels = std::move(refined.labels);
    }
  }
  result.timings.phase4 = timer.Seconds();
  phase4_span.End();

  // --- Bookkeeping ---
  result.centroids.clear();
  result.centroids.reserve(result.clusters.size());
  for (const auto& c : result.clusters) {
    result.centroids.push_back(c.Centroid());
  }
  result.tree_stats = tree->stats();
  result.peak_memory_bytes =
      p1.shard_peak_bytes + (p1.mem != nullptr ? p1.mem->peak() : 0);
  result.tree_nodes = tree->node_count();
  result.disk_pages_written = p1.disk.pages_written;
  result.disk_pages_read = p1.disk.pages_read;
  result.disk_raw_bytes = p1.disk.raw_bytes_written;
  result.disk_stored_bytes = p1.disk.stored_bytes_written;
  result.disk_hot_hits = p1.disk.hot_hits;
  result.disk_hot_misses = p1.disk.hot_misses;
  result.disk_hot_demotions = p1.disk.hot_demotions;
  result.final_threshold = tree->threshold();
  // Accumulate in integers: CF point counts are integral (weights are
  // summed exactly for unit-weight streams), and a double accumulator
  // stops counting distinct values past 2^53.
  uint64_t outlier_points = 0;
  for (const auto& e : *p1.final_outliers) {
    outlier_points += static_cast<uint64_t>(std::llround(e.n()));
  }
  for (const auto& e : shed_outliers) {
    outlier_points += static_cast<uint64_t>(std::llround(e.n()));
  }
  result.outlier_points = outlier_points;
  tree->ExportOccupancy();
  result.metrics = obs::CaptureSnapshot().DeltaSince(baseline);
  return result;
}

/// Streaming Phase 4: re-scan the source per pass in O(k) memory.
/// Refines `result` in place; no-op if the source cannot rewind.
Status StreamingRefine(PointSource* source, const BirchOptions& opts,
                       BirchResult* result) {
  if (opts.refine.passes <= 0 || !source->Rewind().ok()) {
    return Status::OK();
  }
  TRACE_SPAN("birch/phase4");
  Timer timer;
  std::vector<std::vector<double>> centers = result->centroids;
  std::vector<double> p(opts.dim);
  double w = 1.0;
  const double limit_sq =
      opts.refine.outlier_distance > 0.0
          ? opts.refine.outlier_distance * opts.refine.outlier_distance
          : std::numeric_limits<double>::infinity();
  const bool use_batch = IsBatchKernel(opts.exec.kernel);
  kernel::CenterBatch cbatch;
  kernel::Workspace ws;
  for (int pass = 0; pass < opts.refine.passes; ++pass) {
    if (pass > 0) BIRCH_RETURN_IF_ERROR(source->Rewind());
    // Centers move between passes; refresh the SoA mirror per pass.
    if (use_batch) cbatch.Assign(centers);
    std::vector<CfVector> sums(
        centers.size(),
        CfVector(opts.dim, opts.tree.cf, opts.tree.cf_storage));
    while (source->Next(p, &w)) {
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      if (use_batch) {
        kernel::ScanResult r = cbatch.NearestSq(p, &ws);
        best_d = r.distance;
        if (r.index != static_cast<size_t>(-1)) best = r.index;
      } else {
        for (size_t c = 0; c < centers.size(); ++c) {
          double d = SquaredDistance(p, centers[c]);
          if (d < best_d) {
            best_d = d;
            best = c;
          }
        }
      }
      if (best_d <= limit_sq) sums[best].AddPoint(p, w);
    }
    double moved = 0.0;
    for (size_t c = 0; c < centers.size(); ++c) {
      if (sums[c].empty()) continue;
      std::vector<double> next = sums[c].Centroid();
      moved += SquaredDistance(centers[c], next);
      centers[c] = std::move(next);
    }
    result->clusters = std::move(sums);
    if (moved < 1e-18) break;
  }
  // Drop empty clusters, refresh centroids.
  std::vector<CfVector> kept;
  for (auto& c : result->clusters) {
    if (!c.empty()) kept.push_back(std::move(c));
  }
  result->clusters = std::move(kept);
  result->centroids.clear();
  for (const auto& c : result->clusters) {
    result->centroids.push_back(c.Centroid());
  }
  result->timings.phase4 = timer.Seconds();
  return Status::OK();
}

}  // namespace

BirchClusterer::BirchClusterer(const BirchOptions& options)
    : options_(options), metrics_baseline_(obs::CaptureSnapshot()) {
  if (options_.exec.num_threads > 0) {
    pool_ = std::make_unique<exec::ThreadPool>(options_.exec.num_threads);
  }
  if (options_.serving.publish_every_n > 0) {
    server_ = std::make_unique<serving::BirchServer>(options_.dim);
  }
  if (options_.obs.sample_every_ms > 0) {
    obs::SamplerOptions so;
    so.sample_every_ms = options_.obs.sample_every_ms;
    so.series_capacity = options_.obs.series_capacity;
    sampler_ = std::make_unique<obs::StatsSampler>(so);
    RegisterBirchProbes(sampler_.get());
    if (server_ != nullptr) {
      // Serving trajectories: epoch number, live snapshots, and the
      // age of the current epoch. The age probe reads the server
      // (mutex + immutable snapshot), safe from the sampler thread;
      // server_ outlives sampler_ by declaration order.
      sampler_->AddGaugeProbe("serving/epoch");
      sampler_->AddGaugeProbe("serving/snapshots_live");
      serving::BirchServer* srv = server_.get();
      sampler_->AddProbe("serving/snapshot_age_ms",
                         [srv] { return srv->SnapshotAgeMs(); });
    }
    // Cannot fail: Validate() already rejected a zero cadence.
    Status st = sampler_->Start();
    (void)st;
  }
}

BirchClusterer::~BirchClusterer() = default;

StatusOr<std::unique_ptr<BirchClusterer>> BirchClusterer::Open(
    const BirchOptions& options, const CheckpointImage* resume) {
  std::unique_ptr<BirchClusterer> c(new BirchClusterer(options));
  auto ingest_or = Phase1Ingest::Create(
      IngestOptionsFrom(options), c->pool_.get(),
      resume != nullptr ? &resume->freezes : nullptr,
      resume != nullptr ? resume->points_ingested : 0);
  if (!ingest_or.ok()) return ingest_or.status();
  c->ingest_ = std::move(ingest_or).ValueOrDie();
  return c;
}

StatusOr<std::unique_ptr<BirchClusterer>> BirchClusterer::Create(
    const BirchOptions& options) {
  BIRCH_RETURN_IF_ERROR(options.Validate());
  return Open(options, nullptr);
}

const CfTree& BirchClusterer::tree() const { return ingest_->tree(); }

const Phase1Stats& BirchClusterer::phase1_stats() const {
  return ingest_->stats();
}

Status BirchClusterer::CheckIngestOpen(const char* api) const {
  if (finished_) {
    return Status::FailedPrecondition(
        std::string(api) +
        " after Finish(): the pipeline already ran; create a new "
        "clusterer to ingest more data");
  }
  if (resume_skip_points_ > 0 && ingest_->shards() > 1) {
    return Status::FailedPrecondition(
        std::string(api) +
        " on a clusterer restored from a multi-shard checkpoint: resume "
        "with Cluster() on the same full stream, which re-fits the shard "
        "splitter from the skipped prefix");
  }
  return Status::OK();
}

Status BirchClusterer::NoteIngested(uint64_t added) {
  // Both cadences count POINTS from the absolute start of the stream,
  // batch boundaries notwithstanding; AddBatch() never hands this more
  // points than reach the next boundary, so == is exact.
  const uint64_t ckpt_n = options_.resources.checkpoint_every_n;
  if (ckpt_n > 0) {
    points_since_checkpoint_ += added;
    if (points_since_checkpoint_ == ckpt_n) {
      points_since_checkpoint_ = 0;
      BIRCH_RETURN_IF_ERROR(
          SaveCheckpoint(options_.resources.checkpoint_path));
    }
  }
  const uint64_t pub_n = options_.serving.publish_every_n;
  if (pub_n > 0) {
    points_since_publish_ += added;
    if (points_since_publish_ == pub_n) {
      points_since_publish_ = 0;
      BIRCH_RETURN_IF_ERROR(PublishSnapshot());
    }
  }
  return Status::OK();
}

Status BirchClusterer::PublishSnapshot() {
  if (server_ == nullptr) {
    return Status::FailedPrecondition(
        "serving is disabled: set serving.publish_every_n > 0");
  }
  const uint64_t points = ingest_->points();
  return ingest_->View([&](const CfTree& tree) -> Status {
    auto snap_or = serving::ServingSnapshot::Build(
        tree, SnapshotOptionsFrom(options_, points));
    if (!snap_or.ok()) return snap_or.status();
    return server_->Publish(std::move(snap_or).ValueOrDie());
  });
}

Status BirchClusterer::AddBatch(std::span<const double> xs, size_t n,
                                std::span<const double> weights) {
  BIRCH_RETURN_IF_ERROR(CheckIngestOpen("AddBatch()"));
  BIRCH_RETURN_IF_ERROR(ValidateBatch(options_.dim, xs, n, weights));
  const size_t dim = options_.dim;
  const uint64_t ckpt_n = options_.resources.checkpoint_every_n;
  const uint64_t pub_n = options_.serving.publish_every_n;
  size_t off = 0;
  while (off < n) {
    // Split the batch at the next checkpoint/publish boundary so both
    // cadences fire at the exact absolute point counts a point-by-
    // point ingest would produce.
    size_t take = n - off;
    if (ckpt_n > 0) {
      take = std::min<uint64_t>(take, ckpt_n - points_since_checkpoint_);
    }
    if (pub_n > 0) {
      take = std::min<uint64_t>(take, pub_n - points_since_publish_);
    }
    BIRCH_RETURN_IF_ERROR(ingest_->AddBatch(
        xs.subspan(off * dim, take * dim), take,
        weights.empty() ? std::span<const double>()
                        : weights.subspan(off, take)));
    off += take;
    BIRCH_RETURN_IF_ERROR(NoteIngested(take));
  }
  return Status::OK();
}

Status BirchClusterer::Add(std::span<const double> x, double weight) {
  return AddBatch(x, 1, std::span<const double>(&weight, 1));
}

Status BirchClusterer::AddDataset(const Dataset& data) {
  if (data.dim() != options_.dim) {
    return Status::InvalidArgument(
        "dataset dimension mismatch: dataset rows have dim " +
        std::to_string(data.dim()) + ", clusterer was created with dim " +
        std::to_string(options_.dim));
  }
  // One zero-copy batch over the dataset's row-major storage.
  return AddBatch(data.Values(), data.size(), data.Weights());
}

Status BirchClusterer::AddSource(PointSource* source) {
  BIRCH_RETURN_IF_ERROR(CheckIngestOpen("AddSource()"));
  if (source->dim() != options_.dim) {
    return Status::InvalidArgument(
        "source dimension mismatch: source yields dim " +
        std::to_string(source->dim()) + ", clusterer was created with "
        "dim " + std::to_string(options_.dim));
  }
  // Chunked drain: the stream is never materialized, but points move
  // through the batch path a page-ish slab at a time.
  constexpr size_t kChunk = 512;
  const size_t dim = options_.dim;
  std::vector<double> xs;
  std::vector<double> ws;
  xs.reserve(kChunk * dim);
  ws.reserve(kChunk);
  std::vector<double> p(dim);
  double w = 1.0;
  for (;;) {
    xs.clear();
    ws.clear();
    while (ws.size() < kChunk && source->Next(p, &w)) {
      xs.insert(xs.end(), p.begin(), p.end());
      ws.push_back(w);
    }
    if (ws.empty()) break;
    BIRCH_RETURN_IF_ERROR(AddBatch(xs, ws.size(), ws));
    if (ws.size() < kChunk) break;
  }
  return Status::OK();
}

Status BirchClusterer::SaveCheckpoint(const std::string& path) {
  BIRCH_RETURN_IF_ERROR(CheckIngestOpen("SaveCheckpoint()"));
  auto freezes_or = ingest_->Freeze();
  if (!freezes_or.ok()) return freezes_or.status();
  CheckpointImage img;
  img.dim = options_.dim;
  img.page_size = options_.resources.page_size;
  img.metric = static_cast<uint32_t>(options_.tree.metric);
  img.threshold_kind = static_cast<uint32_t>(options_.tree.threshold_kind);
  img.cf_representation = static_cast<uint32_t>(options_.tree.cf);
  img.scalar_width = options_.tree.cf_storage == CfStorage::kF32 ? 32 : 64;
  img.page_codec = static_cast<uint32_t>(options_.resources.page_codec);
  // A one-shard image is the serial image.
  const int shards = ingest_->shards();
  img.shard_count = shards > 1 ? static_cast<uint32_t>(shards) : 0;
  img.points_ingested = ingest_->points();
  img.freezes = std::move(freezes_or).ValueOrDie();
  return WriteCheckpointFile(path, img);
}

StatusOr<std::unique_ptr<BirchClusterer>> BirchClusterer::Restore(
    const std::string& path, const BirchOptions& options) {
  BIRCH_RETURN_IF_ERROR(options.Validate());
  auto img_or = ReadCheckpointFile(path);
  if (!img_or.ok()) return img_or.status();
  CheckpointImage img = std::move(img_or).ValueOrDie();

  // Fingerprint: options that shape the CF tree and its serialized form
  // must match the checkpointed run exactly.
  if (img.dim != options.dim) {
    return Status::InvalidArgument(
        "checkpoint was written with dim " + std::to_string(img.dim) +
        ", options say " + std::to_string(options.dim));
  }
  if (img.page_size != options.resources.page_size) {
    return Status::InvalidArgument(
        "checkpoint was written with page_size " +
        std::to_string(img.page_size) + ", options say " +
        std::to_string(options.resources.page_size));
  }
  if (img.metric != static_cast<uint32_t>(options.tree.metric)) {
    return Status::InvalidArgument(
        "checkpoint distance metric does not match options");
  }
  if (img.threshold_kind !=
      static_cast<uint32_t>(options.tree.threshold_kind)) {
    return Status::InvalidArgument(
        "checkpoint threshold kind does not match options");
  }
  if (img.cf_representation != static_cast<uint32_t>(options.tree.cf)) {
    return Status::InvalidArgument(
        std::string("checkpoint was written with the ") +
        CfRepresentationName(
            static_cast<CfRepresentation>(img.cf_representation)) +
        " CF representation, options say " +
        CfRepresentationName(options.tree.cf));
  }
  const uint32_t opt_width =
      options.tree.cf_storage == CfStorage::kF32 ? 32u : 64u;
  if (img.scalar_width != opt_width) {
    return Status::InvalidArgument(
        "checkpoint was written with " + std::to_string(img.scalar_width) +
        "-bit CF storage, options say " + std::to_string(opt_width) +
        "-bit");
  }
  if (img.page_codec !=
      static_cast<uint32_t>(options.resources.page_codec)) {
    return Status::InvalidArgument(
        std::string("checkpoint was written with page_codec ") +
        PageCodecName(static_cast<PageCodecKind>(img.page_codec)) +
        ", options say " + PageCodecName(options.resources.page_codec) +
        " (set resources.page_codec to match the checkpointed run)");
  }
  const uint32_t img_shards = std::max<uint32_t>(1, img.shard_count);
  if (static_cast<uint32_t>(std::max(1, options.exec.num_threads)) !=
      img_shards) {
    return Status::InvalidArgument(
        "checkpoint was written by " + std::to_string(img_shards) +
        " shard(s); options.exec.num_threads must give the same shard "
        "count (max(1, num_threads))");
  }

  auto c_or = Open(options, &img);
  if (!c_or.ok()) return c_or.status();
  std::unique_ptr<BirchClusterer> c = std::move(c_or).ValueOrDie();
  c->resume_skip_points_ = img.points_ingested;
  // Keep both cadences aligned with absolute stream position, matching
  // what the uninterrupted run would do.
  if (options.resources.checkpoint_every_n > 0) {
    c->points_since_checkpoint_ =
        img.points_ingested % options.resources.checkpoint_every_n;
  }
  if (options.serving.publish_every_n > 0) {
    c->points_since_publish_ =
        img.points_ingested % options.serving.publish_every_n;
  }
  return c;
}

StatusOr<BirchResult> BirchClusterer::Snapshot(int k) const {
  std::vector<CfVector> entries;
  // Filled from the serving epoch on the mid-stream multi-shard path,
  // where the live tree() is not this thread's to read.
  std::shared_ptr<const serving::ServingSnapshot> epoch;
  if (ingest_->shards() > 1 &&
      !merged_ready_.load(std::memory_order_acquire)) {
    // The shard trees merge only at Finish(), but the serving tier
    // publishes coherent epochs along the way: answer from the latest
    // one, exactly like the one-shard path answers from the live tree.
    epoch = server_ != nullptr ? server_->Acquire() : nullptr;
    if (epoch == nullptr) {
      return Status::FailedPrecondition(
          "Snapshot() before Finish() with several shards (num_threads "
          "> 1) reads the last published serving epoch, and none exists "
          "yet — set serving.publish_every_n > 0 (and ingest past it), "
          "finish the run first, or use num_threads <= 1");
    }
    entries = epoch->LeafEntries();
  } else {
    tree().CollectLeafEntries(&entries);
  }
  if (entries.empty()) {
    return Status::FailedPrecondition(
        "no data to snapshot: ingest at least one point (AddBatch/Add/"
        "AddSource) before calling Snapshot(k)");
  }
  Timer timer;
  GlobalClusterOptions g;
  g.k = k;
  g.metric = options_.global_phase.metric;
  g.seed = options_.seed;
  g.kernel = options_.exec.kernel;
  // Large live trees fall back to k-means (no Phase 2 available here).
  g.algorithm = entries.size() > g.max_hierarchical_inputs
                    ? GlobalAlgorithm::kKMeans
                    : options_.global_phase.algorithm;
  auto clustering_or = GlobalCluster(entries, g);
  if (!clustering_or.ok()) return clustering_or.status();
  GlobalClustering& clustering = clustering_or.value();

  // No labels: a snapshot never revisits the raw stream. Everything
  // else a Finish() result carries (current-state flavoured) is here.
  BirchResult result;
  result.clusters = std::move(clustering.clusters);
  result.centroids.reserve(result.clusters.size());
  for (const auto& c : result.clusters) {
    result.centroids.push_back(c.Centroid());
  }
  result.timings.phase1 = phase1_timer_.Seconds();
  result.timings.phase3 = timer.Seconds();
  result.leaf_entries_after_phase1 = entries.size();
  result.leaf_entries_after_phase2 = entries.size();
  if (epoch != nullptr) {
    // Mid-stream multi-shard: the epoch's capture-time view stands in
    // for the live trees (whose pages belong to the shard workers).
    result.phase1.points_added = epoch->points_ingested();
    result.phase1.final_threshold = epoch->threshold();
    result.tree_nodes = epoch->node_count();
    result.final_threshold = epoch->threshold();
  } else {
    result.phase1 = phase1_stats();
    result.tree_stats = tree().stats();
    result.tree_nodes = tree().node_count();
    result.final_threshold = tree().threshold();
  }
  result.metrics = obs::CaptureSnapshot().DeltaSince(metrics_baseline_);
  return result;
}

StatusOr<BirchResult> BirchClusterer::Finish(const Dataset* for_refinement) {
  if (finished_) return Status::FailedPrecondition("Finish() called twice");
  finished_ = true;

  // --- Phase 1 tail: flush delayed points, settle outliers, and (S > 1)
  // merge the shards. ---
  auto p1_or = ingest_->Finish();
  if (!p1_or.ok()) return p1_or.status();
  const Phase1Outcome& p1 = p1_or.value();
  merged_ready_.store(true, std::memory_order_release);
  // Phase 1 started when the clusterer was built: the Add() stream is
  // the phase, not just this tail.
  const double phase1_seconds = phase1_timer_.Seconds();
  phase1_span_.End();

  // One final epoch covering the whole stream (the Phase-1 tail may
  // have settled delayed points, and the merge re-homed and reabsorbed
  // entries, since the last cadence publish).
  if (server_ != nullptr && tree().leaf_entry_count() > 0) {
    BIRCH_RETURN_IF_ERROR(PublishSnapshot());
  }

  auto result_or = RunPhases234(options_, p1, phase1_seconds, for_refinement,
                                pool_.get(), metrics_baseline_);
  if (sampler_ != nullptr) {
    sampler_->Stop();  // final sample covers the finished run
    if (result_or.ok()) result_or.value().timeseries = sampler_->Snapshot();
  }
  return result_or;
}

StatusOr<BirchResult> BirchClusterer::Cluster(PointSource* source,
                                              const Dataset* for_refinement) {
  if (finished_) {
    return Status::FailedPrecondition("Cluster() after Finish()");
  }
  if (source->dim() != options_.dim) {
    return Status::InvalidArgument("source dimension mismatch");
  }
  // A restored clusterer skips what the checkpointed run consumed.
  BIRCH_RETURN_IF_ERROR(ingest_->SkipPrefix(source, resume_skip_points_));
  resume_skip_points_ = 0;
  BIRCH_RETURN_IF_ERROR(AddSource(source));
  return Finish(for_refinement);
}

StatusOr<BirchResult> ClusterSource(PointSource* source,
                                    const BirchOptions& options) {
  BirchOptions opts = options;
  opts.dim = source->dim();
  if (opts.expected_points == 0) opts.expected_points = source->SizeHint();

  auto clusterer_or = BirchClusterer::Create(opts);
  if (!clusterer_or.ok()) return clusterer_or.status();
  auto result_or = clusterer_or.value()->Cluster(source, nullptr);
  if (!result_or.ok()) return result_or.status();
  BirchResult result = std::move(result_or).ValueOrDie();
  BIRCH_RETURN_IF_ERROR(StreamingRefine(source, opts, &result));
  return result;
}

StatusOr<BirchResult> ClusterDataset(const Dataset& data,
                                     const BirchOptions& options) {
  BirchOptions opts = options;
  if (opts.expected_points == 0) opts.expected_points = data.size();

  auto clusterer_or = BirchClusterer::Create(opts);
  if (!clusterer_or.ok()) return clusterer_or.status();
  DatasetSource source(&data);
  return clusterer_or.value()->Cluster(&source, &data);
}

}  // namespace birch
