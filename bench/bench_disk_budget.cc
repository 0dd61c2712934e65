// E12 (extension of Sec. 5.1.4): behaviour of the outlier disk budget
// R. The paper fixes R = 20% of M and describes the control flow when
// the disk fills (re-absorb cycles, Fig. 2's "out of disk space"
// branch). This bench sweeps R on a noisy workload — with the page
// codec off and on, since compressed envelopes are charged at stored
// size and so stretch the same R further — and reports the
// spill/re-absorb/forced-insert counters, the resulting quality, the
// compression ratio, and the hot-tier hit rate.
//
// E19 (ROADMAP item 2, "memory wall"): a CF tree whose raw page bytes
// are >= 4x the DRAM hot-tier budget, served through the compressed
// tiered store under a hot-set read skew, against an uncompressed
// unlimited baseline. The committed --json output feeds the
// tools/bench_diff perf gates; in addition the bench itself exits
// nonzero (full mode) if the Phase-1 codec-on slowdown at the paper
// default R exceeds 20% — the ROADMAP success metric — and (every mode)
// if any codec-on row that wrote pages stored more bytes than it was
// presented: a compression ratio below 1 breaks the store's contract
// (DESIGN.md §14).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "birch/tree_io.h"
#include "datagen/paper_datasets.h"
#include "pagestore/page_store.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timer.h"

namespace birch {
namespace {

double Ratio(uint64_t raw, uint64_t stored) {
  return stored > 0 ? static_cast<double>(raw) / static_cast<double>(stored)
                    : 1.0;
}

// Flags a codec-on row that wrote pages yet reports a compression ratio
// below 1: the store keeps a page raw whenever the codec cannot shrink
// it, so stored bytes never exceed raw bytes.
void CheckRatio(const char* row, PageCodecKind codec, uint64_t pages_written,
                double ratio, bool* ratio_below_one) {
  if (codec == PageCodecKind::kNone || pages_written == 0 || ratio >= 1.0) {
    return;
  }
  std::fprintf(stderr, "FAIL: %s stored more than raw (ratio %.4f < 1)\n",
               row, ratio);
  *ratio_below_one = true;
}

double HitRate(uint64_t hits, uint64_t misses) {
  uint64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

// --- Leg 1: R sweep x {raw, delta-rle} on noisy DS1. ---

int RunSweep(const GeneratedData& g, bool smoke, bench::JsonRows* json,
             CsvWriter* csv, double* phase1_raw_s, double* phase1_codec_s,
             bool* ratio_below_one) {
  std::printf(
      "E12 / Sec. 5.1.4 extension: outlier-disk budget sweep on a "
      "noisy DS1 variant\n(graceful degradation as R shrinks; paper "
      "default R = 20%% of M; each R run\nraw and with the delta-rle "
      "page codec + 4KB hot tier)\n\n");
  TablePrinter table({"R(KB)", "codec", "time(s)", "p1(s)", "D", "spilled",
                      "reabsorbed", "cycles", "forced", "delay-spilled",
                      "matched", "ratio", "hot-hit%"});

  std::vector<size_t> r_kbs = smoke ? std::vector<size_t>{4, 16}
                                    : std::vector<size_t>{0, 2, 4, 8, 16,
                                                          32, 64};
  for (size_t r_kb : r_kbs) {
    for (PageCodecKind codec :
         {PageCodecKind::kNone, PageCodecKind::kDeltaRle}) {
      BirchOptions o = bench::PaperDefaults(smoke ? 25 : 100, g.data.size());
      o.resources.disk_bytes = r_kb * 1024;
      if (o.resources.disk_bytes == 0) {
        // No disk at all: the outlier/delay options have nowhere to
        // spill; exercise the forced-insert fallbacks.
        o.resources.disk_bytes = o.resources.page_size;  // minimum one page
      }
      o.resources.page_codec = codec;
      if (codec != PageCodecKind::kNone) {
        o.resources.hot_tier_bytes = 4 * 1024;
      }
      auto row_or = bench::RunBirch(g, o);
      if (!row_or.ok()) {
        std::fprintf(stderr, "R=%zuKB codec=%s failed: %s\n", r_kb,
                     PageCodecName(codec), row_or.status().ToString().c_str());
        return 1;
      }
      const bench::RunRow& row = row_or.value();
      const BirchResult& res = row.result;
      const Phase1Stats& s = res.phase1;
      const double ratio = Ratio(res.disk_raw_bytes, res.disk_stored_bytes);
      const double hit_rate = HitRate(res.disk_hot_hits, res.disk_hot_misses);
      const std::string row_name = "r-sweep R=" + std::to_string(r_kb) +
                                   "KB codec=" + PageCodecName(codec);
      CheckRatio(row_name.c_str(), codec, res.disk_pages_written, ratio,
                 ratio_below_one);
      if (r_kb == 16) {
        (codec == PageCodecKind::kNone ? *phase1_raw_s : *phase1_codec_s) =
            res.timings.phase1;
      }
      table.Row()
          .Add(r_kb)
          .Add(PageCodecName(codec))
          .Add(row.seconds_total, 2)
          .Add(res.timings.phase1, 2)
          .Add(row.weighted_diameter, 2)
          .Add(static_cast<int64_t>(s.outlier_entries_spilled))
          .Add(static_cast<int64_t>(s.outlier_entries_reabsorbed))
          .Add(static_cast<int64_t>(s.reabsorb_cycles))
          .Add(static_cast<int64_t>(s.forced_inserts))
          .Add(static_cast<int64_t>(s.points_delay_spilled))
          .Add(row.match.matched)
          .Add(ratio, 2)
          .Add(hit_rate * 100.0, 1);
      csv->Row()
          .Add(static_cast<int64_t>(r_kb))
          .Add(PageCodecName(codec))
          .Add(row.seconds_total)
          .Add(res.timings.phase1)
          .Add(row.weighted_diameter)
          .Add(static_cast<int64_t>(s.outlier_entries_spilled))
          .Add(static_cast<int64_t>(s.outlier_entries_reabsorbed))
          .Add(static_cast<int64_t>(s.reabsorb_cycles))
          .Add(static_cast<int64_t>(s.forced_inserts))
          .Add(static_cast<int64_t>(s.points_delay_spilled))
          .Add(static_cast<int64_t>(row.match.matched))
          .Add(ratio)
          .Add(hit_rate);
      json->Row()
          .Add("scenario", "r-sweep")
          .Add("r_kb", static_cast<uint64_t>(r_kb))
          .Add("codec", PageCodecName(codec))
          .Add("seconds", row.seconds_total)
          .Add("phase1_seconds", res.timings.phase1)
          .Add("d", row.weighted_diameter)
          .Add("spilled", s.outlier_entries_spilled)
          .Add("reabsorbed", s.outlier_entries_reabsorbed)
          .Add("matched", static_cast<int64_t>(row.match.matched))
          .Add("compression_ratio", ratio)
          .Add("hot_hit_rate", hit_rate)
          .Add("raw_bytes", res.disk_raw_bytes)
          .Add("stored_bytes", res.disk_stored_bytes);
    }
  }
  table.Print();
  return 0;
}

// --- Leg 2: the memory wall (ROADMAP item 2 / E19). ---

// Serves `passes` hot-set-skewed sweeps over every page of `store`
// (80% of reads hit the first fifth of the pages). Returns seconds.
StatusOr<double> SkewedReads(PageStore* store, size_t num_pages,
                             int passes) {
  Rng rng(7);
  std::vector<uint8_t> buf;
  Timer timer;
  for (int p = 0; p < passes; ++p) {
    for (size_t i = 0; i < num_pages; ++i) {
      PageId id = (rng.Next() % 10 < 8)
                      ? rng.Next() % (num_pages / 5 + 1)
                      : rng.Next() % num_pages;
      BIRCH_RETURN_IF_ERROR(store->Read(id, &buf));
    }
  }
  return timer.Seconds();
}

int RunMemoryWall(bool smoke, bench::JsonRows* json, CsvWriter* csv,
                  bool* ratio_below_one) {
  std::printf(
      "\nE19 / ROADMAP item 2: CF tree >= 4x the DRAM hot budget, served "
      "from the\ncompressed tiered store (80/20 hot-set reads) vs an "
      "unlimited raw store\n\n");

  // Build one CF tree, then persist it into both stores.
  MemoryTracker mem;
  CfTreeOptions to;
  to.dim = 2;
  to.page_size = 1024;
  to.threshold = 0.4;
  CfTree tree(to, &mem);
  Rng rng(42);
  const int n = smoke ? 4000 : 30000;
  for (int i = 0; i < n; ++i) {
    std::vector<double> p = {rng.Uniform(0, 200), rng.Uniform(0, 200)};
    tree.InsertPoint(p);
  }
  const uint64_t raw_bytes =
      static_cast<uint64_t>(tree.node_count()) * to.page_size;
  // The wall: physical DRAM for decompressed pages is a quarter of the
  // tree — the "tree >= 4x physical M" configuration.
  const size_t hot_budget = static_cast<size_t>(raw_bytes / 4);
  const int passes = smoke ? 5 : 40;

  TablePrinter table({"variant", "read(s)", "raw(KB)", "stored(KB)", "ratio",
                      "hot-hit%", "demotions", "tree/M"});
  struct Variant {
    const char* name;
    PageCodecKind codec;
    size_t hot;
  };
  double baseline_s = 0.0;
  for (const Variant& v :
       {Variant{"raw-unlimited", PageCodecKind::kNone, 0},
        Variant{"delta-rle+tier", PageCodecKind::kDeltaRle, hot_budget}}) {
    PageStoreOptions so;
    so.page_size = to.page_size;
    so.codec = v.codec;
    so.hot_tier_bytes = v.hot;
    PageStore store(so);
    auto image = TreeIO::Write(tree, &store);
    if (!image.ok()) {
      std::fprintf(stderr, "memory-wall write (%s) failed: %s\n", v.name,
                   image.status().ToString().c_str());
      return 1;
    }
    auto seconds = SkewedReads(&store, store.num_pages(), passes);
    if (!seconds.ok()) {
      std::fprintf(stderr, "memory-wall reads (%s) failed: %s\n", v.name,
                   seconds.status().ToString().c_str());
      return 1;
    }
    if (v.codec == PageCodecKind::kNone) baseline_s = seconds.value();
    const IoStats& io = store.io_stats();
    const double ratio = Ratio(io.raw_bytes_written, io.stored_bytes_written);
    const double hit_rate = HitRate(io.hot_hits, io.hot_misses);
    CheckRatio(v.name, v.codec, io.pages_written, ratio, ratio_below_one);
    const double multiple =
        static_cast<double>(raw_bytes) /
        static_cast<double>(v.hot > 0 ? v.hot : raw_bytes);
    table.Row()
        .Add(v.name)
        .Add(seconds.value(), 3)
        .Add(raw_bytes / 1024)
        .Add(static_cast<uint64_t>(store.used_bytes()) / 1024)
        .Add(ratio, 2)
        .Add(hit_rate * 100.0, 1)
        .Add(static_cast<int64_t>(io.hot_demotions))
        .Add(multiple, 1);
    csv->Row()
        .Add(int64_t{-1})
        .Add(v.name)
        .Add(seconds.value())
        .Add(0.0)
        .Add(0.0)
        .Add(int64_t{0})
        .Add(int64_t{0})
        .Add(int64_t{0})
        .Add(int64_t{0})
        .Add(int64_t{0})
        .Add(int64_t{0})
        .Add(ratio)
        .Add(hit_rate);
    json->Row()
        .Add("scenario", "memory-wall")
        .Add("variant", v.name)
        .Add("seconds", seconds.value())
        .Add("raw_bytes", raw_bytes)
        .Add("stored_bytes", static_cast<uint64_t>(store.used_bytes()))
        .Add("compression_ratio", ratio)
        .Add("hot_hit_rate", hit_rate)
        .Add("hot_demotions", io.hot_demotions)
        .Add("tree_over_budget", multiple);
  }
  table.Print();
  if (baseline_s > 0.0) {
    std::printf("(4x-M wall served; raw tree %.0f KB over a %.0f KB hot "
                "budget)\n",
                raw_bytes / 1024.0, hot_budget / 1024.0);
  }
  return 0;
}

int Run(int argc, char** argv) {
  const bool smoke = bench::HasFlagArg(argc, argv, "--smoke");
  bench::JsonRows json("bench_disk_budget");
  CsvWriter csv({"r_kb", "codec", "seconds", "phase1_seconds", "d", "spilled",
                 "reabsorbed", "cycles", "forced", "delay_spilled", "matched",
                 "compression_ratio", "hot_hit_rate"});

  GeneratorOptions go =
      smoke ? PaperDatasetOptions(PaperDataset::kDS1, 25, 5000, 0.05)
            : PaperDatasetOptions(PaperDataset::kDS1, 0, 0,
                                  /*noise_fraction=*/0.05);
  go.grid_spacing = 8.0;
  auto gen = Generate(go);
  if (!gen.ok()) return 1;

  double phase1_raw_s = 0.0;
  double phase1_codec_s = 0.0;
  bool ratio_below_one = false;
  int rc = RunSweep(gen.value(), smoke, &json, &csv, &phase1_raw_s,
                    &phase1_codec_s, &ratio_below_one);
  if (rc != 0) return rc;
  rc = RunMemoryWall(smoke, &json, &csv, &ratio_below_one);
  if (rc != 0) return rc;

  bench::MaybeWriteCsv(csv, bench::CsvPathFromArgs(argc, argv));
  bench::MaybeWriteJson(json, bench::JsonPathFromArgs(argc, argv));

  // ROADMAP item 2 success metric, self-gated: Phase-1 with the codec
  // on must stay within 20% of codec-off at the paper default R. Smoke
  // runs are too short to time meaningfully, so they only report.
  if (phase1_raw_s > 0.0 && phase1_codec_s > 0.0) {
    const double slowdown = phase1_codec_s / phase1_raw_s - 1.0;
    const bool timeable = !smoke && phase1_raw_s >= 0.05;
    std::printf("\nPhase-1 codec overhead at R=16KB: %.3fs -> %.3fs "
                "(%+.1f%%, gate +20%%)%s\n",
                phase1_raw_s, phase1_codec_s, slowdown * 100.0,
                timeable ? "" : " [informational]");
    if (timeable && slowdown > 0.20) {
      std::fprintf(stderr,
                   "FAIL: Phase-1 slowdown with page codec exceeds 20%%\n");
      return 1;
    }
  }
  return ratio_below_one ? 1 : 0;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
