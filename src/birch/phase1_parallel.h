// Phase-1 ingest over S >= 1 shards — the paper's parallelism sketch
// (Sec. 4.1: the CF vector is additive, so partitioned builds merge
// exactly at subcluster granularity) with the serial build as its
// one-shard case:
//
//   S = 1: one Phase1Builder runs inline on the caller's thread — no
//      channel, no worker, no merge. This IS the serial pipeline.
//   S > 1: the caller's thread deals each point to a shard, handing
//      whole batches to each shard worker through a bounded
//      exec::Channel (backpressure, O(S * batch) transient memory).
//      The dealer is space-partitioned (affinity dealing): the head of
//      the stream is dealt round-robin while it accumulates into a
//      sample; a shallow seeded k-means fitted on that sample then owns
//      the routing — each point goes to the shard holding its nearest
//      splitter center (centers are packed onto shards greedily by
//      sample mass, heaviest first), so shard trees cover mostly
//      disjoint regions and the final merge is near-trivial. The deal
//      is a deterministic function of the stream prefix (plus
//      splitter_seed), never of thread timing. Each of the S pool
//      workers runs a private, fully serial Phase1Builder (its own CF
//      tree, memory tracker, outlier disk) over its shard. Finish()
//      then:
//        1. folds the shard trees pairwise (parallel rounds on the
//           pool; destination = the pair member with the larger
//           threshold) via CfTree::AbsorbTree, and absorbs the fold
//           into a final tree charged against the full memory budget;
//        2. runs a threshold-consistency reabsorb pass: if the merged
//           tree overflows the total budget it is rebuilt at the
//           heuristic's next threshold, and every per-shard final
//           outlier gets one absorb-only retry against the merged tree
//           (an entry that looked like an outlier inside one shard may
//           sit squarely inside a cluster of the union).
//
// Every step is deterministic for a fixed (options, num_shards,
// splitter_seed) triple: shard assignment, per-shard insertion order,
// fold pairing, and the final reabsorb order are all functions of the
// input alone — never of how the stream was sliced into AddBatch()
// calls or where it was quiesced.
#ifndef BIRCH_BIRCH_PHASE1_PARALLEL_H_
#define BIRCH_BIRCH_PHASE1_PARALLEL_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "birch/kernel/kernel.h"
#include "birch/options.h"
#include "birch/phase1.h"
#include "birch/point_source.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "util/status.h"

namespace birch {

struct ShardedPhase1Options {
  /// Template configuration. With more than one shard,
  /// memory_budget_bytes, disk_budget_bytes and expected_points are
  /// totals that get divided across the shards.
  Phase1Options phase1;
  /// Number of shards; clamped to [1, pool->size()] (each shard
  /// occupies one pool worker until Finish()).
  int num_shards = 1;
  /// Seed of the affinity splitter's shallow k-means; part of the
  /// determinism contract (routing is a pure function of the stream
  /// prefix and this seed).
  uint64_t splitter_seed = 0xb1c5;
};

/// Everything Phases 2-4 read from a finished Phase 1. The pointers
/// refer into the Phase1Ingest that produced it.
struct Phase1Outcome {
  /// The builder's own tree (S = 1) or the merged tree (S > 1).
  CfTree* tree = nullptr;
  /// Tracker backing `tree`; its peak is read after Phase 4 (Phase-2
  /// condensation can still raise the high-water mark).
  const MemoryTracker* mem = nullptr;
  /// Summed per-shard counters plus the merge's own rebuilds;
  /// final_threshold is `tree`'s.
  Phase1Stats stats;
  /// Summed per-shard fault-tolerance accounting.
  RobustnessStats robustness;
  /// Entries no shard could place (and, S > 1, that the merged tree
  /// rejected too).
  const std::vector<CfVector>* final_outliers = nullptr;
  /// Summed per-shard outlier-disk I/O: pages, compression and
  /// hot-tier counters.
  IoStats disk;
  /// S > 1: sum of the per-shard tracker peaks (the shards coexisted
  /// with each other, and briefly with the merged tree). 0 for S = 1,
  /// whose tracker is `mem`.
  size_t shard_peak_bytes = 0;
};

/// The one Phase-1 pipeline: AddBatch() deals points, Freeze() and
/// View() see a quiesced image, Finish() returns the outcome. All
/// methods must be called from one thread at a time (the dealer).
class Phase1Ingest {
 public:
  /// Builds S = clamp(options.num_shards, 1, pool size) shards; S > 1
  /// starts one worker per shard on `pool`, which must outlive this
  /// object (S = 1 needs no pool). Resume: `resume` holds one freeze
  /// per shard (size must equal S) and `resume_points` the points the
  /// checkpointed run consumed; S > 1 then expects SkipPrefix() over
  /// those points before the next AddBatch().
  static StatusOr<std::unique_ptr<Phase1Ingest>> Create(
      const ShardedPhase1Options& options, exec::ThreadPool* pool,
      const std::vector<Phase1Freeze>* resume = nullptr,
      uint64_t resume_points = 0);
  /// Stops the workers of an unfinished run.
  ~Phase1Ingest();

  Phase1Ingest(const Phase1Ingest&) = delete;
  Phase1Ingest& operator=(const Phase1Ingest&) = delete;

  int shards() const { return num_shards_; }
  /// Points ingested so far, a resumed run's prefix included.
  uint64_t points() const;

  /// Ingests `n` points packed row-major in `xs` (optional per-point
  /// `weights`, empty = all 1.0). The batch is validated whole before
  /// any point is dealt. S = 1: Phase1Builder::AddBatch. S > 1: deals
  /// each point to its shard; a shard's own failure surfaces at the
  /// next Freeze()/View()/Finish().
  Status AddBatch(std::span<const double> xs, size_t n,
                  std::span<const double> weights = {});

  /// Resume: reads the `n` points the checkpointed run already
  /// consumed from `source` without ingesting them. With S > 1 they
  /// re-fit the splitter, reproducing the original routing exactly.
  /// InvalidArgument if the source ends first.
  Status SkipPrefix(PointSource* source, uint64_t n);

  /// Quiesced view: runs `fn` on one coherent tree of everything
  /// ingested so far — the live tree (S = 1), a transient union of the
  /// drained shard trees (S > 1 mid-stream), or the finished tree.
  Status View(const std::function<Status(const CfTree&)>& fn);

  /// One freeze per shard (shard order) of the quiesced state.
  /// FailedPrecondition after Finish().
  StatusOr<std::vector<Phase1Freeze>> Freeze();

  /// Ends the stream: the shards' Phase-1 tails, then (S > 1) the
  /// merge. Must be called exactly once.
  StatusOr<Phase1Outcome> Finish();

  /// Live state for inspection: the finished tree after Finish();
  /// before it the (first) shard's live tree — with S > 1 readable
  /// only while the shards are quiesced.
  const CfTree& tree() const;
  const Phase1Stats& stats() const;

 private:
  struct Latch;
  struct PointBatch;
  struct Shard;
  class AffinitySplitter;

  Phase1Ingest(const ShardedPhase1Options& options, exec::ThreadPool* pool,
               int shards);

  /// S > 1: hands every shard its partial batch.
  void FlushPending();
  /// S > 1: waits until every shard consumed every point dealt so far;
  /// returns the first shard failure.
  Status Quiesce();
  /// S > 1 Finish(): fold, re-home and reabsorb the shard trees.
  Status MergeShards(Phase1Outcome* out);

  const ShardedPhase1Options options_;
  exec::ThreadPool* const pool_;
  const int num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// S > 1: counts the workers down at the end of the stream.
  std::unique_ptr<Latch> workers_done_;
  /// S > 1: the affinity dealer.
  std::unique_ptr<AffinitySplitter> splitter_;
  kernel::Workspace route_ws_;
  /// S > 1: points dealt, resumed prefix included (S = 1 reads the
  /// builder's own count).
  uint64_t dealt_ = 0;
  bool finished_ = false;
  /// Set by Finish(): the tree Phases 2-4 run on.
  CfTree* final_tree_ = nullptr;
  Phase1Stats final_stats_;
  /// S > 1 merge products.
  std::unique_ptr<MemoryTracker> merged_mem_;
  std::unique_ptr<CfTree> merged_tree_;
  std::vector<CfVector> merged_outliers_;
  /// S > 1: the dealing stretch, construction to Finish().
  std::optional<obs::SpanScope> scan_span_;
};

}  // namespace birch

#endif  // BIRCH_BIRCH_PHASE1_PARALLEL_H_
