// Unit tests for the chaos/soak harness itself: a small run must survive
// and report coherent totals, option validation must reject nonsense, and
// the fault-free degradation path (max_faults = 0) must still exercise
// band checks and audits.

#include "dynamic/chaos.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/failpoint.h"

namespace densest {
namespace {

ChaosOptions SmallOptions() {
  ChaosOptions opt;
  opt.schedules = 2;
  opt.seed = 77;
  opt.nodes = 40;
  opt.edges = 300;
  opt.window = 80;
  opt.checkpoint_every = 100;
  opt.snapshot_every = 50;
  opt.max_faults = 4;
  opt.batch_size = 32;
  return opt;
}

TEST(ChaosTest, SmallRunSurvivesAndReportsCoherentTotals) {
  const ChaosOptions opt = SmallOptions();
  StatusOr<ChaosReport> report = RunChaos(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failpoints_compiled_in, Failpoints::compiled_in());
  EXPECT_EQ(report->schedules, opt.schedules);
  ASSERT_EQ(report->outcomes.size(), opt.schedules);
  EXPECT_GT(report->total_band_checks, 0u);
  EXPECT_GT(report->total_invariant_audits, 0u);

  uint32_t faults = 0, kills = 0, rebuilds = 0;
  uint64_t bands = 0;
  for (uint32_t i = 0; i < opt.schedules; ++i) {
    const ChaosScheduleOutcome& o = report->outcomes[i];
    EXPECT_EQ(o.index, i);
    EXPECT_EQ(o.seed, opt.seed + i);
    EXPECT_GT(o.updates, 0u);
    EXPECT_LE(o.faults_injected, opt.max_faults);
    faults += o.faults_injected;
    kills += o.kills;
    rebuilds += o.full_rebuilds;
    bands += o.band_checks;
  }
  EXPECT_EQ(report->total_faults, faults);
  EXPECT_EQ(report->total_kills, kills);
  EXPECT_EQ(report->total_full_rebuilds, rebuilds);
  EXPECT_EQ(report->total_band_checks, bands);
}

TEST(ChaosTest, SameSeedIsDeterministic) {
  ChaosOptions opt = SmallOptions();
  opt.schedules = 1;
  StatusOr<ChaosReport> a = RunChaos(opt);
  StatusOr<ChaosReport> b = RunChaos(opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->outcomes.size(), 1u);
  ASSERT_EQ(b->outcomes.size(), 1u);
  EXPECT_EQ(a->outcomes[0].faults_injected, b->outcomes[0].faults_injected);
  EXPECT_EQ(a->outcomes[0].kills, b->outcomes[0].kills);
  EXPECT_EQ(a->outcomes[0].full_rebuilds, b->outcomes[0].full_rebuilds);
  EXPECT_EQ(a->outcomes[0].band_checks, b->outcomes[0].band_checks);
  EXPECT_EQ(a->outcomes[0].updates, b->outcomes[0].updates);
}

TEST(ChaosTest, FaultFreeSoakStillAuditsAndBandChecks) {
  ChaosOptions opt = SmallOptions();
  opt.schedules = 1;
  opt.max_faults = 0;
  StatusOr<ChaosReport> report = RunChaos(opt);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total_faults, 0u);
  EXPECT_EQ(report->total_kills, 0u);
  EXPECT_GT(report->total_band_checks, 0u);
  EXPECT_GT(report->total_invariant_audits, 0u);
}

TEST(ChaosTest, RejectsInvalidOptions) {
  {
    ChaosOptions opt = SmallOptions();
    opt.schedules = 0;
    EXPECT_FALSE(RunChaos(opt).ok());
  }
  {
    ChaosOptions opt = SmallOptions();
    opt.nodes = 1;
    EXPECT_FALSE(RunChaos(opt).ok());
  }
  {
    ChaosOptions opt = SmallOptions();
    opt.edges = 0;
    EXPECT_FALSE(RunChaos(opt).ok());
  }
  {
    // More edges than the 45 node pairs of 10 nodes.
    ChaosOptions opt = SmallOptions();
    opt.nodes = 10;
    opt.edges = 46;
    EXPECT_EQ(RunChaos(opt).status().code(), Status::Code::kInvalidArgument);
  }
  {
    ChaosOptions opt = SmallOptions();
    opt.window = 0;
    EXPECT_FALSE(RunChaos(opt).ok());
  }
  {
    ChaosOptions opt = SmallOptions();
    opt.checkpoint_every = 0;
    EXPECT_FALSE(RunChaos(opt).ok());
  }
  {
    ChaosOptions opt = SmallOptions();
    opt.snapshot_every = 0;
    EXPECT_FALSE(RunChaos(opt).ok());
  }
  {
    ChaosOptions opt = SmallOptions();
    opt.batch_size = 0;
    EXPECT_FALSE(RunChaos(opt).ok());
  }
}

TEST(ChaosTest, VerboseLoggingWritesOneLinePerSchedule) {
  ChaosOptions opt = SmallOptions();
  std::ostringstream log;
  opt.log = &log;
  ASSERT_TRUE(RunChaos(opt).ok());
  EXPECT_FALSE(log.str().empty());
}

}  // namespace
}  // namespace densest
