// Batched SoA distance kernels — the hot inner loops of every phase.
//
// Phase 1's cost is dominated by per-entry distance computations down
// the CF tree; Phase 3 runs O(m^2) pairwise CF distances; Phase 4 is a
// point->centroid argmin over the raw data. All three reduce to the
// same shape: one query against a batch of candidates. This layer
// stores the candidates in struct-of-arrays form (per-entry N, SS,
// LS components, centroid components, and the D2/D4 precomputations,
// each contiguous and dimension-major) so the scan is a flat
// auto-vectorizable loop with no per-entry pointer chasing — and, when
// built with BIRCH_KERNEL_AVX2 on an AVX2 machine, an explicit 4-wide
// SIMD pass.
//
// Equivalence contract: for every metric the batch path performs the
// SAME floating-point operations in the SAME order per candidate as
// the scalar oracle in metrics.cc / cf_vector.cc (the AVX2 pass uses
// separate mul+add, never FMA), so scalar and batch kernels agree
// bitwise — same winners, same distances. tests/kernel_test.cc holds
// this line across metrics D0-D4, both threshold kinds, and dims.
#ifndef BIRCH_BIRCH_KERNEL_KERNEL_H_
#define BIRCH_BIRCH_KERNEL_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "birch/cf_vector.h"
#include "birch/metrics.h"

namespace birch {

/// Which distance-scan implementation the pipeline uses. kScalar is the
/// per-CfVector oracle (metrics.cc); kBatch is the SoA layer below.
/// They produce bitwise-identical results; kScalar exists as the
/// equivalence oracle and as a fallback while debugging.
enum class KernelKind { kScalar = 0, kBatch };

/// Parse/format helper for CLI flags and bench labels.
const char* KernelName(KernelKind kind);

/// True for the kinds that use the SoA batch scans (everything except
/// the scalar oracle).
inline bool IsBatchKernel(KernelKind kind) {
  return kind != KernelKind::kScalar;
}

namespace kernel {

/// Query-side precomputations, built once per scan (or once per tree
/// descent) instead of once per candidate: centroid, SS/N, and the
/// total squared deviation. `cf` must outlive the query.
struct CfQuery {
  const CfVector* cf = nullptr;
  double n = 0.0;
  double ss = 0.0;       // SS (classic) or S (BETULA)
  double mean_sq = 0.0;  // SS/N (classic) or S/N (BETULA)
  double ssd = 0.0;      // SS - ||LS||^2/N (guarded), classic D4 only
  /// Centroid components. Classic: points into the workspace passed to
  /// Prepare, only filled for metrics that read it (D0/D1). BETULA:
  /// points straight at the CF's stored mean, filled for all metrics.
  const double* centroid = nullptr;

  /// Fills the derived fields `metric`'s scan reads; `centroid_buf`
  /// backs `centroid`.
  void Prepare(const CfVector& q, DistanceMetric metric,
               std::vector<double>* centroid_buf);
};

/// Contiguous SoA block over a set of CF entries. Arrays are
/// dimension-major with a fixed stride (the capacity), so per-entry
/// updates and appends never reshuffle. Only the arrays the configured
/// metric needs are materialized (Needs flags).
class CfBatch {
 public:
  /// Which derived arrays to materialize.
  struct Needs {
    bool centroid = false;  // classic D0/D1, every BETULA metric
    bool ls = false;        // classic D2/D3/D4 (raw linear sums)
    bool ssd = false;       // classic D4
    /// Everything the given metric's scan reads under `rep`.
    static Needs For(DistanceMetric metric,
                     CfRepresentation rep = CfRepresentation::kClassic);
  };

  CfBatch() = default;

  /// Sets dimensionality, capacity (stride) and the derived arrays to
  /// keep. Discards previous contents.
  void Init(size_t dim, size_t capacity, Needs needs);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  size_t dim() const { return dim_; }
  bool empty() const { return size_ == 0; }

  /// Rebuilds the block from `entries` (size() becomes entries.size(),
  /// which must fit the capacity).
  void Assign(std::span<const CfVector> entries);

  /// Appends one entry (size() must be below capacity()).
  void Append(const CfVector& entry);

  /// Recomputes row `i` from `entry` after an in-place mutation.
  void Update(size_t i, const CfVector& entry);

  // Raw columns (used by the scan loops and tests).
  const double* n() const { return n_.data(); }
  const double* ss() const { return ss_.data(); }
  const double* mean_sq() const { return mean_sq_.data(); }
  const double* ssd() const { return ssd_.data(); }
  /// Component k of entry i sits at [k * capacity() + i].
  const double* ls() const { return ls_.data(); }
  const double* centroid() const { return centroid_.data(); }

 private:
  size_t dim_ = 0;
  size_t capacity_ = 0;
  size_t size_ = 0;
  Needs needs_;
  std::vector<double> n_, ss_, mean_sq_, ssd_;
  std::vector<double> ls_, centroid_;  // dimension-major, stride = capacity_
};

/// Reusable scan workspace (distance array + query centroid buffer);
/// one per tree / per worker thread, so scans never allocate.
struct Workspace {
  std::vector<double> dist;
  std::vector<double> query_centroid;
};

/// Result of an argmin scan. index == SIZE_MAX when no candidate was
/// eligible.
struct ScanResult {
  size_t index = static_cast<size_t>(-1);
  double distance = 0.0;
};

/// Computes Distance(metric, query, batch[i]) for every i in
/// [0, batch.size()) into ws->dist (resized), bitwise-equal to the
/// scalar oracle.
void FillDistances(const CfBatch& batch, const CfQuery& query,
                   DistanceMetric metric, Workspace* ws);

/// One-pass batch scan: nearest entry of `batch` to `query` under
/// `metric`. `active` (nullable) masks candidates; `exclude` (or
/// SIZE_MAX) skips one index. First-wins on ties, exactly like the
/// scalar loop.
ScanResult NearestEntry(const CfBatch& batch, const CfQuery& query,
                        DistanceMetric metric, Workspace* ws,
                        const uint8_t* active = nullptr,
                        size_t exclude = static_cast<size_t>(-1));

/// Diameter / radius the merge of `a` and `b` would have, computed
/// without materializing the merged CF (no allocation). Bitwise-equal
/// to CfVector::Merged(a, b).Diameter() / .Radius().
double MergedDiameter(const CfVector& a, const CfVector& b);
double MergedRadius(const CfVector& a, const CfVector& b);

/// SoA block over k centers (plain points) for point->center argmin
/// scans (Phase 4 assignment, k-means sweeps, streaming refinement).
class CenterBatch {
 public:
  /// Rebuilds from `centers` (all the same dimension).
  void Assign(const std::vector<std::vector<double>>& centers);

  size_t size() const { return size_; }
  size_t dim() const { return dim_; }

  /// Index of the center with the smallest SQUARED Euclidean distance
  /// to `point` (first-wins ties, scalar-identical), and that squared
  /// distance. size() must be > 0.
  ScanResult NearestSq(std::span<const double> point, Workspace* ws) const;

 private:
  size_t dim_ = 0;
  size_t capacity_ = 0;
  size_t size_ = 0;
  std::vector<double> comps_;  // dimension-major, stride = capacity_
};

/// True when this build carries the AVX2 specialization AND the CPU
/// supports it (runtime dispatch; bench labels / tests read this).
bool Avx2Active();

/// Always false: no fused-multiply-add lane exists, so every scan is
/// correctly rounded. Kept for host-description lines that report the
/// active ISA lanes.
bool FmaActive();

}  // namespace kernel
}  // namespace birch

#endif  // BIRCH_BIRCH_KERNEL_KERNEL_H_
