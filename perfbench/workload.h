// The three fixed-work workloads. One repetition generates the seeded
// DS1-shaped input, runs one workload through the public API, checks
// every correctness gate and returns what it measured. For a given
// config every repetition does exactly the same work, so quality and
// counts repeat bit for bit and only the timings vary.
#ifndef BIRCH_PERFBENCH_WORKLOAD_H_
#define BIRCH_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "perfbench/latency.h"
#include "perfbench/trace_log.h"

namespace perfbench {

enum class Workload { kClusterSerial, kClusterSharded, kServeLive };

const char* WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

struct Config {
  Workload workload = Workload::kClusterSerial;
  uint64_t seed = 1;
  /// Which of the seed's inputs to generate (see InputSeed).
  int input = 0;
  /// Generated points per cluster; 100 clusters plus 5% noise, so the
  /// default is about 2.1M points.
  int points_per_cluster = 20000;
  /// The held-out query sample (same generator, another seed).
  int query_points_per_cluster = 512;
  /// serve-live: PublishSnapshot calls over the stream.
  int epochs = 16;
};

struct RepResult {
  uint64_t n = 0;
  uint64_t input_hash = 0;
  /// Input generation, Create and reader start.
  double setup_s = 0.0;
  /// First ingest call to the result (serve-live: the ingest loop
  /// without its PublishSnapshot calls).
  double run_s = 0.0;
  /// Phase-1 seconds (serve-live: summed AddBatch wall time).
  double phase1_s = 0.0;
  double d_ratio = 0.0;
  int clusters_matched = 0;

  std::vector<double> publish_ms;
  LatencyHist assign;  // per call, timed by the benchmark
  LatencyHist knn;
  uint64_t assign_ok = 0;
  uint64_t knn_ok = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> gate_failures;

  /// Per-layer counts: exact functions of the seed.
  std::map<std::string, double> counts;
  /// Per-layer timings and rates; trace-derived ones only on traced
  /// repetitions.
  std::map<std::string, double> times;

  /// Traced repetitions: the program's own trace events.
  std::vector<birch::obs::TraceEvent> program_events;
};

/// The generator seed of input `input` of `seed`: input 0 is `seed`
/// itself, later ones are SplitMix64 draws from it. A run averages
/// over several inputs because Phase 1's cost swings with the input
/// (the threshold rebuilds land differently), not with the code.
uint64_t InputSeed(uint64_t seed, int input);

/// Runs one repetition. A non-null `trace` turns on obs::Tracer
/// recording and the benchmark's own spans for this repetition.
RepResult RunRepetition(const Config& config, TraceLog* trace);

}  // namespace perfbench

#endif  // BIRCH_PERFBENCH_WORKLOAD_H_
