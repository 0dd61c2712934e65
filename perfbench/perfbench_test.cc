// The benchmark's own tests: every gate fires on a deliberately
// perturbed result and passes on a sound one, a smoke-size repetition of
// each workload passes every gate, and two repetitions of one seed
// repeat quality and every per-layer count exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "birch/birch.h"
#include "perfbench/gates.h"
#include "perfbench/trace_log.h"
#include "perfbench/workload.h"
#include "serving/server.h"

namespace perfbench {
namespace {

using birch::CfVector;

std::vector<CfVector> TwoClusters() {
  CfVector a = CfVector::FromPoint(std::vector<double>{0.0, 0.0});
  a.AddPoint(std::vector<double>{1.0, 0.0});
  a.AddPoint(std::vector<double>{0.0, 1.0});
  CfVector b = CfVector::FromPoint(std::vector<double>{9.0, 9.0});
  b.AddPoint(std::vector<double>{8.0, 9.0});
  return {a, b};  // masses 3 and 2
}

TEST(GatesTest, LabelsPassOnASoundResult) {
  const std::vector<int> labels = {0, 0, 0, 1, 1, -1};
  EXPECT_EQ(gates::Labels(labels, 6, TwoClusters()), "");
}

TEST(GatesTest, LabelsFireOnOneLabelOutOfRange) {
  std::vector<int> labels = {0, 0, 0, 1, 1, -1};
  labels[4] = 2;  // k = 2
  EXPECT_NE(gates::Labels(labels, 6, TwoClusters()), "");
  labels[4] = -2;
  EXPECT_NE(gates::Labels(labels, 6, TwoClusters()), "");
}

TEST(GatesTest, LabelsFireOnWrongSize) {
  const std::vector<int> labels = {0, 0, 0, 1, 1};
  EXPECT_NE(gates::Labels(labels, 6, TwoClusters()), "");
}

TEST(GatesTest, LabelsFireWhenOneClusterLosesMass) {
  const std::vector<int> labels = {0, 0, 0, 1, 1, -1};
  std::vector<CfVector> clusters = TwoClusters();
  clusters[1] = CfVector::FromPoint(std::vector<double>{9.0, 9.0});
  EXPECT_NE(gates::Labels(labels, 6, clusters), "");
}

TEST(GatesTest, MassConservedFiresWhenOneClusterIsDropped) {
  const std::vector<CfVector> clusters = TwoClusters();
  EXPECT_EQ(gates::MassConserved(gates::Mass(clusters), 1, 6), "");
  const std::vector<CfVector> dropped = {clusters[0]};
  EXPECT_NE(gates::MassConserved(gates::Mass(dropped), 1, 6), "");
  EXPECT_NE(gates::SameMass(dropped, 5, "test"), "");
  EXPECT_EQ(gates::SameMass(clusters, 5, "test"), "");
}

TEST(GatesTest, DRatioUsesTheReproductionBar) {
  EXPECT_EQ(gates::DRatio(1.0), "");
  EXPECT_EQ(gates::DRatio(0.55), "");
  EXPECT_EQ(gates::DRatio(1.30), "");
  EXPECT_NE(gates::DRatio(0.549), "");
  EXPECT_NE(gates::DRatio(1.301), "");
}

TEST(GatesTest, MemoryFiresOnATreeOverMOrAPeakPastTheOverdraft) {
  EXPECT_EQ(gates::Memory(110 * 1024, 80 * 1024, 80 * 1024), "");
  EXPECT_NE(gates::Memory(110 * 1024, 81 * 1024, 80 * 1024), "");
  EXPECT_NE(gates::Memory(121 * 1024, 80 * 1024, 80 * 1024), "");
}

TEST(GatesTest, KnnFiresOnDescendingDistancesOrAShortAnswer) {
  std::vector<birch::serving::CentroidNeighbor> hits = {
      {3, 0.5}, {1, 0.5}, {7, 1.25}};
  EXPECT_EQ(gates::KnnAscending(hits, 3), "");
  EXPECT_NE(gates::KnnAscending(hits, 4), "");
  hits[2].distance = 0.25;
  EXPECT_NE(gates::KnnAscending(hits, 3), "");
}

TEST(GatesTest, InputHashFiresOnADifferentHash) {
  EXPECT_EQ(gates::InputHash(42, 42), "");
  EXPECT_NE(gates::InputHash(41, 42), "");
}

TEST(GatesTest, EpochDeterminismPassesOnAPublishedEpoch) {
  birch::Dataset data(2);
  for (int i = 0; i < 2000; ++i) {
    data.Append(std::vector<double>{(i % 40) * 0.37, (i / 40) * 0.21});
  }
  birch::BirchOptions o = birch::bench::PaperDefaults(10, data.size());
  o.serving.publish_every_n = data.size() + 1;
  auto c = birch::BirchClusterer::Create(o);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.value()->AddDataset(data).ok());
  ASSERT_TRUE(c.value()->PublishSnapshot().ok());
  auto epoch = c.value()->server()->Acquire();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(gates::EpochDeterminism(*epoch, data, 3), "");
}

Config Smoke(Workload w) {
  Config c;
  c.workload = w;
  c.seed = 7;
  c.points_per_cluster = 300;
  c.query_points_per_cluster = 40;
  c.epochs = 4;
  return c;
}

TEST(InputSeedTest, InputZeroIsTheSeedAndLaterInputsDiffer) {
  EXPECT_EQ(InputSeed(7, 0), 7u);
  EXPECT_NE(InputSeed(7, 1), 7u);
  EXPECT_NE(InputSeed(7, 1), InputSeed(7, 2));
  EXPECT_NE(InputSeed(7, 1), InputSeed(8, 1));
  EXPECT_EQ(InputSeed(7, 3), InputSeed(7, 3));
}

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadTest, SmokeRepetitionPassesEveryGate) {
  const RepResult r = RunRepetition(Smoke(GetParam()), nullptr);
  for (const auto& why : r.gate_failures) ADD_FAILURE() << why;
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_GT(r.n, 0u);
  EXPECT_GT(r.run_s, 0.0);
  if (GetParam() == Workload::kServeLive) {
    EXPECT_GT(r.assign_ok, 0u);
    EXPECT_EQ(r.publish_ms.size(), 4u);
  }
}

TEST_P(WorkloadTest, TwoRepetitionsRepeatQualityAndCountsExactly) {
  const Config c = Smoke(GetParam());
  const RepResult a = RunRepetition(c, nullptr);
  TraceLog log;  // tracing must not change what the program computes
  const RepResult b = RunRepetition(c, &log);
  EXPECT_EQ(a.input_hash, b.input_hash);
  EXPECT_EQ(a.d_ratio, b.d_ratio);
  EXPECT_EQ(a.clusters_matched, b.clusters_matched);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_FALSE(a.counts.empty());
}

TEST_P(WorkloadTest, AnotherInputOfTheSeedIsAnotherInput) {
  Config c = Smoke(GetParam());
  const RepResult a = RunRepetition(c, nullptr);
  c.input = 1;
  const RepResult b = RunRepetition(c, nullptr);
  for (const auto& why : b.gate_failures) ADD_FAILURE() << why;
  EXPECT_EQ(a.n, b.n);
  EXPECT_NE(a.input_hash, b.input_hash);
}

TEST_P(WorkloadTest, TracedRepetitionRecordsEveryLayer) {
  TraceLog log;
  const RepResult r = RunRepetition(Smoke(GetParam()), &log);
  const SpanTable program = Summarize(r.program_events);
  const SpanTable bench = Summarize(log.spans());
  EXPECT_TRUE(program.count("birch/phase1"));
  EXPECT_TRUE(program.count("phase3/global"));
  EXPECT_TRUE(bench.count("AddBatch") || bench.count("Cluster"));
  if (GetParam() == Workload::kClusterSharded) {
    EXPECT_TRUE(program.count("phase1/shard"));
  }
  if (GetParam() == Workload::kServeLive) {
    EXPECT_TRUE(bench.count("PublishSnapshot"));
    EXPECT_TRUE(bench.count("Snapshot"));
    EXPECT_TRUE(bench.count("Readers"));
    EXPECT_TRUE(bench.count("Assign"));
    EXPECT_TRUE(bench.count("KNearestCentroids"));
  } else {
    EXPECT_TRUE(program.count("birch/phase4"));
  }
  for (const auto& [name, t] : bench) {
    EXPECT_GE(t.self_s, -1e-9) << name;
    EXPECT_LE(t.self_s, t.total_s + 1e-9) << name;
  }
  const std::string json = ChromeTraceJson(r.program_events, log.spans());
  EXPECT_NE(json.find("\"birch/phase1\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::Values(Workload::kClusterSerial,
                                           Workload::kClusterSharded,
                                           Workload::kServeLive),
                         [](const auto& info) {
                           std::string name = WorkloadName(info.param);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace perfbench
