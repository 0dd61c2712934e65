// Correctness gates every repetition must pass. Each returns "" when the
// gate holds and a one-line reason when it fails; a repetition with any
// reason is incorrect and the benchmark exits non-zero. The bars are
// the test suite's, never loosened to make a run pass.
#ifndef BIRCH_PERFBENCH_GATES_H_
#define BIRCH_PERFBENCH_GATES_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "birch/cf_vector.h"
#include "birch/dataset.h"
#include "serving/snapshot.h"

namespace perfbench::gates {

/// The d_ratio bar of tests/reproduction_test.cc: found D within
/// [0.55, 1.30] x the generated clusters' D.
inline constexpr double kDRatioLow = 0.55;
inline constexpr double kDRatioHigh = 1.30;

/// Point mass of a CF list, summed in integers (unit-weight CFs hold
/// whole counts; a double accumulator would stop counting past 2^53).
inline uint64_t Mass(std::span<const birch::CfVector> cfs) {
  uint64_t total = 0;
  for (const birch::CfVector& cf : cfs) {
    total += static_cast<uint64_t>(std::llround(cf.n()));
  }
  return total;
}

inline std::string InputHash(uint64_t got, uint64_t want) {
  if (got == want) return "";
  return "input hash " + std::to_string(got) + " does not reproduce " +
         std::to_string(want) + " for this seed";
}

/// CF additivity: what the summary holds plus what it set aside as
/// outliers is exactly the input.
inline std::string MassConserved(uint64_t summary_mass,
                                 uint64_t outlier_points, uint64_t n) {
  if (summary_mass + outlier_points == n) return "";
  return "CF mass " + std::to_string(summary_mass) + " + outliers " +
         std::to_string(outlier_points) + " != N " + std::to_string(n);
}

/// Clusters built from the same CFs keep their mass.
inline std::string SameMass(std::span<const birch::CfVector> clusters,
                            uint64_t want, const char* what) {
  const uint64_t got = Mass(clusters);
  if (got == want) return "";
  return std::string(what) + " mass " + std::to_string(got) + " != " +
         std::to_string(want);
}

/// Labels cover every input row and index a found cluster (or -1), and
/// the found clusters hold exactly the labelled points.
inline std::string Labels(std::span<const int> labels, size_t n,
                          std::span<const birch::CfVector> clusters) {
  if (labels.size() != n) {
    return "labels size " + std::to_string(labels.size()) + " != N " +
           std::to_string(n);
  }
  const int k = static_cast<int>(clusters.size());
  uint64_t labelled = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < -1 || labels[i] >= k) {
      return "label " + std::to_string(labels[i]) + " of row " +
             std::to_string(i) + " outside [-1, " + std::to_string(k) + ")";
    }
    if (labels[i] >= 0) ++labelled;
  }
  return SameMass(clusters, labelled, "refined clusters vs labelled rows");
}

inline std::string DRatio(double d_ratio) {
  if (d_ratio >= kDRatioLow && d_ratio <= kDRatioHigh) return "";
  return "d_ratio " + std::to_string(d_ratio) + " outside [" +
         std::to_string(kDRatioLow) + ", " + std::to_string(kDRatioHigh) + "]";
}

/// The memory bar of tests/reproduction_test.cc
/// (MemoryBudgetHeldWithinOverdraft): the finished tree fits in M, and
/// the transient peak stays within the documented split overdraft of
/// 1.5 x M that a rebuild then pays back (MemoryTracker::ForceAllocate).
inline constexpr double kPeakOverdraft = 1.5;

inline std::string Memory(size_t peak_bytes, size_t tree_bytes,
                          size_t budget_bytes) {
  if (tree_bytes > budget_bytes) {
    return "finished tree " + std::to_string(tree_bytes) +
           " B exceeds M = " + std::to_string(budget_bytes) + " B";
  }
  if (peak_bytes > kPeakOverdraft * budget_bytes) {
    return "peak tree memory " + std::to_string(peak_bytes) +
           " B exceeds 1.5 x M = " +
           std::to_string(static_cast<size_t>(kPeakOverdraft * budget_bytes)) +
           " B";
  }
  return "";
}

inline std::string KnnAscending(
    std::span<const birch::serving::CentroidNeighbor> hits, size_t k) {
  if (hits.size() != k) {
    return "KNN returned " + std::to_string(hits.size()) + " of " +
           std::to_string(k) + " neighbours";
  }
  for (size_t i = 1; i < hits.size(); ++i) {
    if (hits[i].distance < hits[i - 1].distance) {
      return "KNN distances not ascending at rank " + std::to_string(i);
    }
  }
  return "";
}

/// A pinned epoch answers every `stride`-th query bitwise-identically on
/// repeat and equal to the scalar-kernel oracle.
inline std::string EpochDeterminism(
    const birch::serving::ServingSnapshot& epoch, const birch::Dataset& queries,
    size_t stride) {
  birch::kernel::Workspace ws;
  auto same = [](const birch::serving::AssignResult& a,
                 const birch::serving::AssignResult& b) {
    return std::memcmp(&a.distance, &b.distance, sizeof(double)) == 0 &&
           a.leaf_entry == b.leaf_entry && a.cluster_id == b.cluster_id;
  };
  for (size_t i = 0; i < queries.size(); i += stride) {
    auto row = queries.Row(i);
    const auto a = epoch.Assign(row, &ws);
    const auto b = epoch.Assign(row, &ws);
    const auto s = epoch.AssignWith(row, birch::KernelKind::kScalar, &ws);
    if (!same(a, b)) {
      return "pinned epoch answered query " + std::to_string(i) +
             " differently on repeat";
    }
    if (!same(a, s)) {
      return "query " + std::to_string(i) +
             ": batch kernel differs from the scalar oracle";
    }
  }
  return "";
}

}  // namespace perfbench::gates

#endif  // BIRCH_PERFBENCH_GATES_H_
