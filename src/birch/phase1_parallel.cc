#include "birch/phase1_parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "birch/threshold.h"
#include "exec/channel.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace birch {

namespace {

/// Points per hand-off batch (amortizes channel locking).
constexpr size_t kBatchPoints = 256;
/// Batches buffered per shard channel before the dealer blocks.
constexpr size_t kChannelBatches = 4;

/// Affinity splitter sizing for S shards: it is fitted on the first
/// max(kSplitterSampleFloor, kSplitterSamplePerShard * S) stream points
/// (dealt round-robin meanwhile) and has
/// min(kSplitterCentersPerShard * S, kSplitterMaxCenters) centers, at
/// least one per shard.
constexpr size_t kSplitterSampleFloor = 1024;
constexpr size_t kSplitterSamplePerShard = 256;
constexpr size_t kSplitterCentersPerShard = 4;
constexpr size_t kSplitterMaxCenters = 64;

/// Divides the run's total budgets across `shards` builders. Each
/// shard keeps at least the minimum viable slice (4 pages of memory,
/// one page of disk) so a high shard count degrades throughput, never
/// correctness.
Phase1Options ShardOptions(const Phase1Options& total, int shards) {
  Phase1Options o = total;
  const size_t s = static_cast<size_t>(shards);
  if (total.memory_budget_bytes > 0) {
    o.memory_budget_bytes = std::max(total.memory_budget_bytes / s,
                                     4 * total.tree.page_size);
  }
  if (total.disk_budget_bytes > 0) {
    o.disk_budget_bytes =
        std::max(total.disk_budget_bytes / s, total.tree.page_size);
  }
  o.expected_points = total.expected_points / s;
  return o;
}

void MergeStats(const Phase1Stats& in, Phase1Stats* out) {
  out->points_added += in.points_added;
  out->rebuilds += in.rebuilds;
  out->outlier_entries_spilled += in.outlier_entries_spilled;
  out->outlier_entries_reabsorbed += in.outlier_entries_reabsorbed;
  out->points_delay_spilled += in.points_delay_spilled;
  out->reabsorb_cycles += in.reabsorb_cycles;
  out->forced_inserts += in.forced_inserts;
}

void MergeRobustness(const RobustnessStats& in, RobustnessStats* out) {
  out->transient_io_errors += in.transient_io_errors;
  out->io_retries += in.io_retries;
  out->simulated_backoff_us += in.simulated_backoff_us;
  out->checksum_failures += in.checksum_failures;
  out->pages_lost += in.pages_lost;
  out->records_lost += in.records_lost;
  out->degradation_events += in.degradation_events;
  out->fallback_absorbed += in.fallback_absorbed;
  out->fallback_dropped += in.fallback_dropped;
  out->outlier_disk_disabled |= in.outlier_disk_disabled;
}

void AddIo(const IoStats& in, IoStats* out) {
  out->pages_written += in.pages_written;
  out->pages_read += in.pages_read;
  out->raw_bytes_written += in.raw_bytes_written;
  out->stored_bytes_written += in.stored_bytes_written;
  out->hot_hits += in.hot_hits;
  out->hot_misses += in.hot_misses;
  out->hot_demotions += in.hot_demotions;
}

}  // namespace

/// Countdown latch: the workers' end-of-stream join, and the quiesce
/// marker each shard counts down once it has consumed everything dealt
/// before it. The mutex hand-off publishes the workers' writes to the
/// waiting dealer. A shard that has counted a quiesce marker down only
/// touches its builder again after the dealer's next Push, so the
/// dealer may read every builder until then.
struct Phase1Ingest::Latch {
  std::mutex mu;
  std::condition_variable cv;
  int pending;

  explicit Latch(int n) : pending(n) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu);
    if (--pending == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

/// One hand-off unit: `xs` holds the batch's points row-major. A batch
/// with `drained` set carries no points — it is a quiesce marker. The
/// marker is shared: the dealer may stop waiting before the last shard
/// has fully left CountDown().
struct Phase1Ingest::PointBatch {
  std::vector<double> xs;
  std::vector<double> ws;
  std::shared_ptr<Latch> drained;
};

struct Phase1Ingest::Shard {
  std::unique_ptr<Phase1Builder> builder;
  // S > 1 only:
  exec::Channel<PointBatch> channel{kChannelBatches};
  PointBatch pending;  // being filled by the dealer
  Status status;       // written by the worker
};

/// The affinity dealer's top-level splitter: a shallow k-means over
/// the stream's head (sized by the kSplitter* constants). Until the
/// sample is full the splitter is unarmed (callers deal round-robin
/// and Observe()); arming fits the centers with a seeded init + 4
/// Lloyd rounds, packs them onto shards greedily by sample mass
/// (heaviest center to the least-loaded shard), and from then on
/// Route() sends each point to the shard owning its nearest center.
/// Everything here is a pure function of (observed prefix, seed): same
/// stream, same seed, same shard count => identical routing, on a
/// fresh run or a resume.
class Phase1Ingest::AffinitySplitter {
 public:
  AffinitySplitter(size_t dim, int shards, uint64_t seed)
      : dim_(dim),
        shards_(static_cast<size_t>(shards)),
        seed_(seed),
        sample_target_(std::max(kSplitterSampleFloor,
                                kSplitterSamplePerShard * shards_)),
        centers_target_(std::max(
            std::min(kSplitterCentersPerShard * shards_, kSplitterMaxCenters),
            shards_)) {
    sample_.reserve(sample_target_ * dim_);
  }

  bool armed() const { return armed_; }

  /// Warmup: appends one stream point to the sample; fits and arms
  /// once the sample reaches its target size.
  void Observe(std::span<const double> p) {
    sample_.insert(sample_.end(), p.begin(), p.end());
    if (sample_.size() >= sample_target_ * dim_) Fit();
  }

  /// Shard owning the region `p` falls in (armed() only).
  size_t Route(std::span<const double> p, kernel::Workspace* ws) const {
    return shard_of_center_[centers_batch_.NearestSq(p, ws).index];
  }

 private:
  void Fit() {
    const size_t m = sample_.size() / dim_;
    const size_t c = std::min(centers_target_, m);
    // Seeded init: c distinct sample rows via partial Fisher-Yates.
    std::vector<size_t> idx(m);
    for (size_t j = 0; j < m; ++j) idx[j] = j;
    uint64_t rng = seed_;
    std::vector<std::vector<double>> centers(c);
    for (size_t j = 0; j < c; ++j) {
      size_t pick = j + static_cast<size_t>(SplitMix64(&rng) %
                                            static_cast<uint64_t>(m - j));
      std::swap(idx[j], idx[pick]);
      const double* row = sample_.data() + idx[j] * dim_;
      centers[j].assign(row, row + dim_);
    }
    // Shallow Lloyd: a handful of rounds is plenty for a splitter —
    // it only has to carve the space into coherent regions, not
    // converge.
    std::vector<double> counts(c, 0.0);
    kernel::Workspace ws;
    for (int round = 0; round < 4; ++round) {
      centers_batch_.Assign(centers);
      std::fill(counts.begin(), counts.end(), 0.0);
      std::vector<std::vector<double>> sums(
          c, std::vector<double>(dim_, 0.0));
      for (size_t j = 0; j < m; ++j) {
        std::span<const double> row(sample_.data() + j * dim_, dim_);
        size_t best = centers_batch_.NearestSq(row, &ws).index;
        counts[best] += 1.0;
        double* sum = sums[best].data();
        for (size_t k = 0; k < dim_; ++k) sum[k] += row[k];
      }
      for (size_t cc = 0; cc < c; ++cc) {
        if (counts[cc] == 0.0) continue;  // empty: keep the old spot
        for (size_t k = 0; k < dim_; ++k) {
          centers[cc][k] = sums[cc][k] / counts[cc];
        }
      }
    }
    // Greedy LPT pack: heaviest center onto the least-loaded shard, so
    // expected per-shard point mass stays balanced even when cluster
    // sizes are skewed.
    std::vector<size_t> order(c);
    for (size_t j = 0; j < c; ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return counts[a] > counts[b];
    });
    std::vector<double> load(shards_, 0.0);
    shard_of_center_.assign(c, 0);
    for (size_t j : order) {
      size_t best = 0;
      for (size_t s = 1; s < shards_; ++s) {
        if (load[s] < load[best]) best = s;
      }
      shard_of_center_[j] = best;
      load[best] += counts[j];
    }
    centers_batch_.Assign(centers);
    sample_.clear();
    sample_.shrink_to_fit();
    armed_ = true;
  }

  const size_t dim_;
  const size_t shards_;
  const uint64_t seed_;
  const size_t sample_target_;
  const size_t centers_target_;
  std::vector<double> sample_;  // row-major warmup buffer
  kernel::CenterBatch centers_batch_;
  std::vector<size_t> shard_of_center_;
  bool armed_ = false;
};


Phase1Ingest::Phase1Ingest(const ShardedPhase1Options& options,
                           exec::ThreadPool* pool, int shards)
    : options_(options), pool_(pool), num_shards_(shards) {}

Phase1Ingest::~Phase1Ingest() {
  if (workers_done_ == nullptr || finished_) return;
  for (auto& sh : shards_) sh->channel.Close();
  workers_done_->Wait();
}

StatusOr<std::unique_ptr<Phase1Ingest>> Phase1Ingest::Create(
    const ShardedPhase1Options& options, exec::ThreadPool* pool,
    const std::vector<Phase1Freeze>* resume, uint64_t resume_points) {
  const int max_shards = pool != nullptr ? std::max(1, pool->size()) : 1;
  const int shards = std::clamp(options.num_shards, 1, max_shards);
  if (resume != nullptr && resume->size() != static_cast<size_t>(shards)) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(resume->size()) +
        " shards but this run would use " + std::to_string(shards));
  }
  std::unique_ptr<Phase1Ingest> in(new Phase1Ingest(options, pool, shards));
  // One shard is the serial builder under the run's full budgets.
  const Phase1Options shard_opts =
      shards == 1 ? options.phase1 : ShardOptions(options.phase1, shards);
  for (int s = 0; s < shards; ++s) {
    auto sh = std::make_unique<Shard>();
    if (resume != nullptr) {
      auto b_or = Phase1Builder::Thaw(shard_opts,
                                      (*resume)[static_cast<size_t>(s)]);
      if (!b_or.ok()) return b_or.status();
      sh->builder = std::move(b_or).ValueOrDie();
    } else {
      sh->builder = std::make_unique<Phase1Builder>(shard_opts);
    }
    in->shards_.push_back(std::move(sh));
  }
  in->dealt_ = resume_points;
  if (shards == 1) return in;

  OBS_GAUGE_SET("exec/shards", shards);
  in->splitter_ = std::make_unique<AffinitySplitter>(
      options.phase1.tree.dim, shards, options.splitter_seed);
  in->scan_span_.emplace("phase1/scan");
  in->workers_done_ = std::make_unique<Latch>(shards);
  for (auto& sh_ptr : in->shards_) {
    Shard* sh = sh_ptr.get();
    Latch* done = in->workers_done_.get();
    pool->Submit([sh, done] {
      obs::SpanScope span("phase1/shard");
      PointBatch batch;
      // After a failure keep draining: a stalled consumer would wedge
      // the dealer on a full channel.
      while (sh->channel.Pop(&batch)) {
        if (batch.drained != nullptr) {
          // Quiesce marker. Count down even after a failure — the
          // dealer is waiting on every shard.
          batch.drained->CountDown();
          continue;
        }
        if (!sh->status.ok()) continue;
        // Whole-batch ingest: arithmetic-identical to a per-point Add
        // loop, one validated call per hand-off unit.
        sh->status =
            sh->builder->AddBatch(batch.xs, batch.ws.size(), batch.ws);
      }
      if (sh->status.ok()) sh->status = sh->builder->Finish();
      done->CountDown();
    });
  }
  return in;
}

uint64_t Phase1Ingest::points() const {
  return num_shards_ == 1 ? shards_[0]->builder->stats().points_added
                          : dealt_;
}

Status Phase1Ingest::AddBatch(std::span<const double> xs, size_t n,
                              std::span<const double> weights) {
  if (finished_) {
    return Status::FailedPrecondition("AddBatch() after Finish()");
  }
  if (num_shards_ == 1) return shards_[0]->builder->AddBatch(xs, n, weights);
  const size_t dim = options_.phase1.tree.dim;
  BIRCH_RETURN_IF_ERROR(ValidateBatch(dim, xs, n, weights));
  const uint64_t shards = static_cast<uint64_t>(num_shards_);
  for (size_t j = 0; j < n; ++j) {
    std::span<const double> p = xs.subspan(j * dim, dim);
    size_t s;
    if (splitter_->armed()) {
      s = splitter_->Route(p, &route_ws_);
    } else {
      s = static_cast<size_t>(dealt_ % shards);
      // The point that completes the sample is still dealt round-
      // robin; affinity routing starts at the next one.
      splitter_->Observe(p);
    }
    PointBatch& b = shards_[s]->pending;
    b.xs.insert(b.xs.end(), p.begin(), p.end());
    b.ws.push_back(weights.empty() ? 1.0 : weights[j]);
    if (b.ws.size() >= kBatchPoints) {
      shards_[s]->channel.Push(std::move(b));
      b = PointBatch{};
    }
    ++dealt_;
  }
  return Status::OK();
}

Status Phase1Ingest::SkipPrefix(PointSource* source, uint64_t n) {
  std::vector<double> p(options_.phase1.tree.dim);
  double w = 1.0;
  uint64_t i = 0;
  while (i < n && source->Next(p, &w)) {
    // S = 1 has no splitter; a serial resume only consumes the prefix.
    if (splitter_ != nullptr && !splitter_->armed()) splitter_->Observe(p);
    ++i;
  }
  if (i < n) {
    return Status::InvalidArgument(
        "source ended before the checkpoint's resume offset (" +
        std::to_string(i) + " < " + std::to_string(n) +
        "); pass the same stream the checkpointed run consumed");
  }
  return Status::OK();
}

void Phase1Ingest::FlushPending() {
  for (auto& sh : shards_) {
    if (!sh->pending.ws.empty()) {
      sh->channel.Push(std::move(sh->pending));
      sh->pending = PointBatch{};
    }
  }
}

Status Phase1Ingest::Quiesce() {
  if (num_shards_ == 1) return Status::OK();
  // FIFO channels: a shard reaches the marker only after consuming
  // everything dealt before it.
  TRACE_SPAN("phase1/quiesce");
  FlushPending();
  auto drained = std::make_shared<Latch>(num_shards_);
  for (auto& sh : shards_) {
    PointBatch marker;
    marker.drained = drained;
    sh->channel.Push(std::move(marker));
  }
  drained->Wait();
  for (const auto& sh : shards_) BIRCH_RETURN_IF_ERROR(sh->status);
  return Status::OK();
}

Status Phase1Ingest::View(const std::function<Status(const CfTree&)>& fn) {
  if (finished_) return fn(*final_tree_);
  BIRCH_RETURN_IF_ERROR(Quiesce());
  if (num_shards_ == 1) return fn(shards_[0]->builder->tree());
  // Merge the drained shard trees into a transient union (CF
  // additivity; unlimited transient tracker — the copy lives only for
  // the duration of `fn`).
  MemoryTracker mem(0);
  CfTreeOptions union_opts = options_.phase1.tree;
  for (const auto& sh : shards_) {
    union_opts.threshold =
        std::max(union_opts.threshold, sh->builder->tree().threshold());
  }
  CfTree merged(union_opts, &mem);
  for (const auto& sh : shards_) merged.AbsorbTree(sh->builder->tree());
  return fn(merged);
}

StatusOr<std::vector<Phase1Freeze>> Phase1Ingest::Freeze() {
  if (finished_) {
    return Status::FailedPrecondition("Freeze() after Finish()");
  }
  BIRCH_RETURN_IF_ERROR(Quiesce());
  std::vector<Phase1Freeze> freezes;
  freezes.reserve(shards_.size());
  for (auto& sh : shards_) {
    auto f_or = sh->builder->Freeze();
    if (!f_or.ok()) return f_or.status();
    freezes.push_back(std::move(f_or).ValueOrDie());
  }
  return freezes;
}

const CfTree& Phase1Ingest::tree() const {
  return final_tree_ != nullptr ? *final_tree_ : shards_[0]->builder->tree();
}

const Phase1Stats& Phase1Ingest::stats() const {
  return finished_ ? final_stats_ : shards_[0]->builder->stats();
}

StatusOr<Phase1Outcome> Phase1Ingest::Finish() {
  if (finished_) return Status::FailedPrecondition("Finish() called twice");
  finished_ = true;
  const bool sharded = num_shards_ > 1;
  if (sharded) {
    FlushPending();
    for (auto& sh : shards_) sh->channel.Close();
    workers_done_->Wait();
    scan_span_.reset();
    for (const auto& sh : shards_) BIRCH_RETURN_IF_ERROR(sh->status);
  } else {
    BIRCH_RETURN_IF_ERROR(shards_[0]->builder->Finish());
  }

  Phase1Outcome out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Phase1Builder& b = *shards_[s]->builder;
    MergeStats(b.stats(), &out.stats);
    MergeRobustness(b.robustness(), &out.robustness);
    AddIo(b.disk().io_stats(), &out.disk);
    if (sharded) {
      out.shard_peak_bytes += b.memory().peak();
      if (obs::Enabled()) {
        obs::Registry::Default()
            .GetGauge("exec/shard" + std::to_string(s) + "/points")
            .Set(static_cast<double>(b.stats().points_added));
      }
    }
  }
  if (sharded) {
    BIRCH_RETURN_IF_ERROR(MergeShards(&out));
  } else {
    Phase1Builder* b = shards_[0]->builder.get();
    final_tree_ = b->mutable_tree();
    out.mem = &b->memory();
    out.final_outliers = &b->final_outliers();
  }
  out.tree = final_tree_;
  out.stats.final_threshold = final_tree_->threshold();
  final_stats_ = out.stats;
  return out;
}

Status Phase1Ingest::MergeShards(Phase1Outcome* out) {
  const Phase1Options& total = options_.phase1;
  // --- 1. Pairwise fold of the shard trees (CF additivity makes the
  // merge exact at subcluster granularity). Each round merges disjoint
  // pairs in parallel; the destination is the pair member with the
  // larger threshold so absorbed entries never face a tighter bound
  // than the one they were built under. ---
  {
    TRACE_SPAN("phase1/merge_shards");
    std::vector<CfTree*> active;
    active.reserve(shards_.size());
    for (auto& sh : shards_) active.push_back(sh->builder->mutable_tree());
    while (active.size() > 1) {
      const size_t pairs = active.size() / 2;
      std::vector<CfTree*> next(pairs + active.size() % 2);
      exec::ParallelFor(
          pool_, pairs,
          [&](size_t begin, size_t end, size_t) {
            for (size_t j = begin; j < end; ++j) {
              CfTree* a = active[2 * j];
              CfTree* b = active[2 * j + 1];
              CfTree* dst = b->threshold() > a->threshold() ? b : a;
              const CfTree* src = dst == a ? b : a;
              dst->AbsorbTree(*src);
              next[j] = dst;
            }
          },
          /*min_per_chunk=*/1);
      if (active.size() % 2 == 1) next.back() = active.back();
      active = std::move(next);
    }

    // --- Re-home the fold into a tree charged against the *total*
    // memory budget (the per-shard trackers each only carry 1/S). ---
    merged_mem_ = std::make_unique<MemoryTracker>(total.memory_budget_bytes);
    CfTreeOptions merged_opts = total.tree;
    merged_opts.threshold = active[0]->threshold();
    merged_tree_ = std::make_unique<CfTree>(merged_opts, merged_mem_.get());
    merged_tree_->AbsorbTree(*active[0]);
  }

  // --- 2. Threshold-consistency reabsorb pass. ---
  TRACE_SPAN("phase1/merge_reabsorb");
  CfTree* tree = merged_tree_.get();
  std::vector<CfVector> shed;
  if (tree->over_budget()) {
    ThresholdHeuristic heuristic(total.tree.dim, out->stats.points_added);
    int guard = 0;
    do {
      double t_next = heuristic.SuggestNext(*tree, out->stats.points_added);
      double outlier_n = 0.0;
      if (total.outlier_handling && tree->leaf_entry_count() > 0) {
        double avg = tree->TreeSummary().n() /
                     static_cast<double>(tree->leaf_entry_count());
        outlier_n = total.outlier_fraction * avg;
      }
      tree->Rebuild(t_next, outlier_n, &shed);
      ++out->stats.rebuilds;
      OBS_COUNTER_INC("phase1/rebuilds");
    } while (tree->over_budget() && ++guard < 16);
    if (tree->over_budget()) {
      return Status::OutOfMemory(
          "memory budget unattainable after merging shard trees");
    }
  }
  // Entries that were outliers within one shard (or shed just above)
  // get one absorb-only retry against the union; a genuine outlier
  // must still not re-enter the tree as a fresh entry (Sec. 5.1.4).
  auto reabsorb = [&](const CfVector& e) {
    if (tree->InsertEntry(e, InsertMode::kAbsorbOnly) !=
        InsertOutcome::kRejected) {
      ++out->stats.outlier_entries_reabsorbed;
      OBS_COUNTER_INC("phase1/outliers_reabsorbed");
    } else {
      merged_outliers_.push_back(e);
    }
  };
  for (auto& sh : shards_) {
    for (const CfVector& e : sh->builder->final_outliers()) reabsorb(e);
  }
  for (const CfVector& e : shed) reabsorb(e);

  shards_.clear();  // release the shard trees and trackers
  final_tree_ = tree;
  out->mem = merged_mem_.get();
  out->final_outliers = &merged_outliers_;
  return Status::OK();
}

}  // namespace birch
