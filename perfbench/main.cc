// birch_perfbench: fixed-work end-to-end benchmark of the BIRCH
// pipeline and its serving tier (see README.md in this directory).
//
//   birch_perfbench --workload cluster-serial|cluster-sharded|serve-live
//                   --seed N [--seconds S] [--trace 0|1]
//                   [--trace-out FILE] [--git-rev REV]
//
// --seconds sets how many of the seed's inputs a run covers, through
// each workload's nominal repetition cost, not a wall-clock window: a
// run runs each input twice and does the same work every time. The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics, or the
// per-layer ones with --trace 1). Exit 1 when any gate fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "birch/kernel/kernel.h"
#include "perfbench/gates.h"
#include "perfbench/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  Config config;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git_rev = "unknown";
};

/// Seconds one repetition of each workload takes at the default scale
/// on a 4-core Xeon (avx2/avx512); --seconds / (2 * this) = inputs.
double NominalRepSeconds(Workload w) {
  switch (w) {
    case Workload::kClusterSerial:
      return 2.2;
    case Workload::kClusterSharded:
      return 1.4;
    case Workload::kServeLive:
      return 3.2;
  }
  return 1.0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(v, &a->config.workload)) {
        std::fprintf(stderr, "unknown workload %s\n", v);
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a->config.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else if (flag == "--git-rev") {
      a->git_rev = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "--workload is required\n");
  return have_workload;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

/// Units of the per-layer metrics, in report order.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool count;  // exact per seed (else a timing or rate)
};
constexpr LayerMetric kLayerMetrics[] = {
    {"phase1.busy_s", "s", false},
    {"cf_tree.distance_comps_per_point", "count", true},
    {"cf_tree.leaf_splits", "count", true},
    {"cf_tree.nonleaf_splits", "count", true},
    {"cf_tree.merge_refinements", "count", true},
    {"phase1.rebuilds", "count", true},
    {"phase1.rebuild_s", "s", false},
    {"phase1.leaf_entries", "count", true},
    {"phase1.final_threshold", "distance", true},
    {"phase1.peak_tree_kb", "KB", true},
    {"pagestore.pages_written", "count", true},
    {"pagestore.pages_read", "count", true},
    {"pagestore.io_s", "s", false},
    {"phase1.outliers_spilled", "count", true},
    {"phase1.outliers_reabsorbed", "count", true},
    {"phase1.delay_spills", "count", true},
    {"exec.shard_busy_s", "s", false},
    {"exec.shard_imbalance", "ratio", false},
    {"phase1_parallel.tail_s", "s", false},
    {"phase1_parallel.rebuilds", "count", true},
    {"exec.tasks", "count", true},
    {"exec.steal_s", "s", false},
    {"phase2.busy_s", "s", false},
    {"phase2.entries_out", "count", true},
    {"global_cluster.busy_s", "s", false},
    {"global_cluster.input_entries", "count", true},
    {"global_cluster.publish_ms", "ms", false},
    {"refine.busy_s", "s", false},
    {"refine.points_per_s", "pts/s", false},
    {"refine.label_changes", "count", true},
    {"serving.assign_qps", "q/s", false},
    {"serving.snapshot_build_ms", "ms", false},
    {"serving.snapshot_kb", "KB", true},
    {"serving.knn_qps", "q/s", false},
    {"serving.knn_p50_us", "us", false},
    {"serving.epoch_age_ms_p50", "ms", false},
    {"serving.assign_hist_p99_us", "us", false},
};

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Config& config = args.config;
  // Two passes over the seed's inputs; the second repeats the first
  // exactly.
  const int inputs = std::max(
      1, static_cast<int>(std::lround(
             args.seconds / (2.0 * NominalRepSeconds(config.workload)))));
  const int reps = 2 * inputs;

  std::printf(
      "host: {\"nproc\": %u, \"cpu\": \"%s\", \"avx2\": %s, \"fma\": %s, "
      "\"build_type\": \"%s\", \"git_rev\": \"%s\", \"seed\": %llu, "
      "\"workload\": \"%s\", \"inputs\": %d, \"repetitions\": %d, "
      "\"trace\": %d}\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      birch::kernel::Avx2Active() ? "true" : "false",
      birch::kernel::FmaActive() ? "true" : "false", PERFBENCH_BUILD_TYPE,
      args.git_rev.c_str(), static_cast<unsigned long long>(config.seed),
      WorkloadName(config.workload), inputs, reps, args.trace ? 1 : 0);

  // With --trace 1 each input has one traced repetition, in the first
  // pass for odd inputs and in the second for even ones, so warm-up
  // does not land on one side of the tracing overhead.
  auto traced_rep = [&](size_t i) {
    return args.trace && (i / inputs + i % inputs) % 2 == 1;
  };
  std::vector<RepResult> results;
  std::unique_ptr<TraceLog> last_log;
  size_t last_traced = SIZE_MAX;
  for (int i = 0; i < reps; ++i) {
    Config rep_config = config;
    rep_config.input = i % inputs;
    const bool traced = traced_rep(i);
    auto log = traced ? std::make_unique<TraceLog>() : nullptr;
    results.push_back(RunRepetition(rep_config, log.get()));
    const RepResult& r = results.back();
    std::printf(
        "rep %d input %d%s: n=%llu setup %.3fs run %.3fs phase1 %.3fs "
        "d_ratio %.6f matched %d assign %llu knn %llu publishes %zu "
        "(%.3fs)\n",
        i, rep_config.input, traced ? " (traced)" : "",
        static_cast<unsigned long long>(r.n), r.setup_s, r.run_s, r.phase1_s,
        r.d_ratio, r.clusters_matched,
        static_cast<unsigned long long>(r.assign_ok),
        static_cast<unsigned long long>(r.knn_ok), r.publish_ms.size(),
        std::accumulate(r.publish_ms.begin(), r.publish_ms.end(), 0.0) / 1e3);
    std::fflush(stdout);
    if (traced) {
      last_log = std::move(log);
      last_traced = results.size() - 1;
    }
  }

  // --- Gates: per repetition, and exact repeats of each input. ---
  std::vector<std::string> failures;
  uint64_t attempted = 0, failed = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const RepResult& r = results[i];
    const RepResult& first = results[i % inputs];
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& why : r.gate_failures) {
      failures.push_back("rep " + std::to_string(i) + ": " + why);
    }
    if (auto why = gates::InputHash(r.input_hash, first.input_hash);
        !why.empty()) {
      failures.push_back("rep " + std::to_string(i) + ": " + why);
    }
    if (std::memcmp(&r.d_ratio, &first.d_ratio, sizeof(double)) != 0 ||
        r.clusters_matched != first.clusters_matched) {
      failures.push_back("rep " + std::to_string(i) +
                         ": quality differs from the input's first pass");
    }
    if (r.counts != first.counts) {
      for (const auto& [name, value] : r.counts) {
        auto it = first.counts.find(name);
        if (it == first.counts.end() || it->second != value) {
          failures.push_back("rep " + std::to_string(i) + ": count " + name +
                             " differs from the input's first pass");
        }
      }
    }
  }
  if (failed > 0) failures.push_back(std::to_string(failed) + " failed calls");
  for (const auto& why : failures) {
    std::printf("GATE FAILED: %s\n", why.c_str());
  }

  // Aggregates over the seed's inputs, so one input's Phase-1 luck
  // does not decide the figure. `pass` picks which repetitions count.
  enum class Pass { kAll, kTraced, kUntraced };
  auto in_pass = [&](size_t i, Pass pass) {
    return pass == Pass::kAll || (pass == Pass::kTraced) == traced_rep(i);
  };
  // Points over seconds, summed over the inputs; each input's seconds
  // are those of its fastest repetition in `pass`.
  auto rate = [&](auto seconds, Pass pass) {
    double n = 0.0, s = 0.0;
    for (int j = 0; j < inputs; ++j) {
      double best = HUGE_VAL;
      for (size_t i = j; i < results.size(); i += inputs) {
        if (in_pass(i, pass)) best = std::min(best, seconds(results[i]));
      }
      n += results[j].n;
      s += best;
    }
    return n / s;
  };
  // Every input has the same number of repetitions in each pass, so
  // this is a mean over the inputs.
  auto mean_over_inputs = [&](auto fn, Pass pass) {
    double sum = 0.0;
    int count = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (in_pass(i, pass)) {
        sum += fn(results[i]);
        ++count;
      }
    }
    return count == 0 ? 0.0 : sum / count;
  };
  auto run_s = [](const RepResult& r) { return r.run_s; };
  JsonMetrics metrics;
  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::vector<double> setup;
    for (const RepResult& r : results) setup.push_back(r.setup_s);
    metrics.Add("setup_s", Median(setup), "s");
    metrics.Add("points_per_s", rate(run_s, Pass::kAll), "pts/s");
    metrics.Add("ingest_points_per_s",
                rate([](auto& r) { return r.phase1_s; }, Pass::kAll), "pts/s");
    metrics.Add("d_ratio",
                mean_over_inputs([](auto& r) { return r.d_ratio; },
                                 Pass::kAll),
                "ratio");
    metrics.Add("clusters_matched",
                mean_over_inputs([](auto& r) { return r.clusters_matched; },
                                 Pass::kAll),
                "count");
    metrics.Add("rss_peak_mb", ru.ru_maxrss / 1024.0, "MB");
  } else {
    LatencyHist assign;
    std::vector<double> publish_ms;
    for (const RepResult& r : results) {
      assign.Merge(r.assign);
      publish_ms.insert(publish_ms.end(), r.publish_ms.begin(),
                        r.publish_ms.end());
    }
    std::printf("assign samples: %llu, publish samples: %zu\n",
                static_cast<unsigned long long>(assign.count()),
                publish_ms.size());
    for (const LayerMetric& m : kLayerMetrics) {
      // Counts repeat on every pass; timings come from the traced one.
      auto field = [&](const RepResult& r) -> const auto& {
        return m.count ? r.counts : r.times;
      };
      metrics.Add(m.name,
                  mean_over_inputs(
                      [&](const RepResult& r) {
                        auto it = field(r).find(m.name);
                        return it == field(r).end() ? 0.0 : it->second;
                      },
                      m.count ? Pass::kAll : Pass::kTraced),
                  m.unit);
    }
    // Pooled over every repetition: tracing leaves these calls alone.
    metrics.Add("serving.assign_p50_us", assign.QuantileUs(0.50), "us");
    metrics.Add("serving.assign_p99_us", assign.QuantileUs(0.99), "us");
    metrics.Add("serving.publish_p50_ms", Median(publish_ms), "ms");
    metrics.Add("obs.trace_overhead_pct",
                (rate(run_s, Pass::kUntraced) / rate(run_s, Pass::kTraced) -
                 1.0) *
                    100.0,
                "%");
    if (last_traced != SIZE_MAX) {
      const RepResult& r = results[last_traced];
      const std::vector<Span> spans = last_log->spans();
      std::printf("self time by span (last traced repetition):\n");
      for (const auto& table :
           {Summarize(r.program_events), Summarize(spans)}) {
        for (const auto& [name, t] : table) {
          std::printf("  %-26s n=%-7llu total %.6fs self %.6fs\n", name.c_str(),
                      static_cast<unsigned long long>(t.count), t.total_s,
                      t.self_s);
        }
      }
      if (!args.trace_out.empty()) {
        std::ofstream f(args.trace_out, std::ios::binary);
        f << ChromeTraceJson(r.program_events, spans);
        if (!f) {
          failures.push_back("cannot write " + args.trace_out);
        } else {
          std::printf("trace written to %s\n", args.trace_out.c_str());
        }
      }
    }
  }

  const bool correct = failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.body().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
