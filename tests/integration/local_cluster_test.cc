// End-to-end integration tests: real WordCount topologies on a
// LocalCluster — live Stream Managers, Heron Instances and acking, on
// threads, through the full §II submission pipeline.

#include "runtime/local_cluster.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/logging.h"
#include "workloads/word_count.h"

namespace heron {
namespace runtime {
namespace {

class LocalClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Logging::SetLevel(LogLevel::kWarning); }

  Config BaseConfig() {
    Config config;
    config.SetInt(config_keys::kNumContainersHint, 2);
    return config;
  }
};

TEST_F(LocalClusterTest, WordCountWithoutAcksDeliversTuples) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  spout_options.words_per_call = 8;
  auto topology = workloads::BuildWordCountTopology("wc-noack", 2, 2,
                                                    spout_options);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  ASSERT_TRUE(cluster.Submit(*topology).ok());

  // Tuples must flow from spouts through the SMGRs into the bolts.
  EXPECT_TRUE(
      cluster.WaitForCounter("instance.executed", 10000, 30000).ok());
  EXPECT_GE(cluster.SumCounter("instance.emitted"), 10000u);
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, WordCountWithAcksCompletesTupleTrees) {
  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 1000);
  LocalCluster cluster(config);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 1000;
  spout_options.words_per_call = 4;
  auto topology = workloads::BuildWordCountTopology("wc-ack", 2, 2,
                                                    spout_options);
  ASSERT_TRUE(topology.ok()) << topology.status().ToString();
  ASSERT_TRUE(cluster.Submit(*topology).ok());

  // Acks must travel back: bolt → SMGR tracker → spout.
  EXPECT_TRUE(cluster.WaitForCounter("instance.acked", 5000, 30000).ok());
  EXPECT_EQ(cluster.SumCounter("instance.failed"), 0u);
  // End-to-end latency was measured for completed trees.
  EXPECT_GT(cluster.CompleteLatencyQuantile(0.5), 0u);
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, MaxSpoutPendingBoundsInFlightTuples) {
  Config config = BaseConfig();
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 50);
  LocalCluster cluster(config);

  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 100;
  auto topology =
      workloads::BuildWordCountTopology("wc-msp", 1, 1, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.acked", 500, 30000).ok());

  // The §V-B invariant: pending never exceeds the configured cap.
  Container* c0 = cluster.GetContainer(0);
  ASSERT_NE(c0, nullptr);
  for (int probe = 0; probe < 50; ++probe) {
    for (const auto& inst : c0->instances()) {
      EXPECT_LE(inst->pending_count(), 50);
    }
  }
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, ScaleUpAddsInstancesAndKeepsFlowing) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 500;
  spout_options.words_per_call = 4;
  auto topology =
      workloads::BuildWordCountTopology("wc-scale", 1, 1, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.executed", 1000, 30000).ok());

  // Scale the bolts 1 → 3 (§IV-A repack + §IV-B onUpdate).
  ASSERT_TRUE(cluster.Scale("count", 3).ok()) << "scale failed";
  EXPECT_EQ(cluster.current_packing_plan().TasksOfComponent("count").size(),
            3u);

  const uint64_t executed_after_scale =
      cluster.SumCounter("instance.executed");
  EXPECT_TRUE(cluster
                  .WaitForCounter("instance.executed",
                                  executed_after_scale + 2000, 30000)
                  .ok());
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, RestartContainerRecovers) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 500;
  spout_options.words_per_call = 4;
  auto topology =
      workloads::BuildWordCountTopology("wc-restart", 2, 2, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.WaitForCounter("instance.executed", 1000, 30000).ok());

  ASSERT_TRUE(cluster.RestartContainer(1).ok());
  const uint64_t executed = cluster.SumCounter("instance.executed");
  EXPECT_TRUE(
      cluster.WaitForCounter("instance.executed", executed + 1000, 30000)
          .ok());
  ASSERT_TRUE(cluster.Kill().ok());
}

TEST_F(LocalClusterTest, KillStopsEverything) {
  LocalCluster cluster(BaseConfig());
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 100;
  auto topology =
      workloads::BuildWordCountTopology("wc-kill", 1, 1, spout_options);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(cluster.Submit(*topology).ok());
  ASSERT_TRUE(cluster.Kill().ok());
  EXPECT_EQ(cluster.num_live_containers(), 0);
  EXPECT_FALSE(cluster.running());
  // Re-submitting on the same cluster works after a kill.
  auto again =
      workloads::BuildWordCountTopology("wc-kill-2", 1, 1, spout_options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(cluster.Submit(*again).ok());
  EXPECT_TRUE(cluster.Kill().ok());
}

/// Final counters of one finite acking WordCount run.
struct FinalCounts {
  uint64_t emitted = 0;
  uint64_t executed = 0;
  uint64_t acked = 0;
  uint64_t failed = 0;
  int64_t pending = 0;
  bool operator==(const FinalCounts& o) const {
    return emitted == o.emitted && executed == o.executed &&
           acked == o.acked && failed == o.failed && pending == o.pending;
  }
};

/// Runs a finite acking WordCount to quiescence in `mode` ("thread",
/// "cooperative" or "step") and returns its final counters.
FinalCounts RunFiniteWordCount(const std::string& mode,
                               uint64_t emit_limit) {
  Config config;
  config.SetInt(config_keys::kNumContainersHint, 2);
  config.SetBool(config_keys::kAckingEnabled, true);
  config.SetInt(config_keys::kMaxSpoutPending, 64);
  config.SetInt(config_keys::kInstanceEmitBatchTuples, 8);
  const bool step = mode == "step";
  SimClock sim_clock(0);
  if (step) {
    config.SetBool(config_keys::kClusterStepMode, true);
  } else {
    config.Set(config_keys::kExecutionMode, mode);
  }
  LocalCluster cluster(config, step ? &sim_clock : nullptr);
  workloads::WordSpout::Options spout_options;
  spout_options.dictionary_size = 200;
  spout_options.words_per_call = 4;
  spout_options.emit_limit = emit_limit;
  auto topology = workloads::BuildWordCountTopology("wc-modes-" + mode, 2, 3,
                                                    spout_options);
  EXPECT_TRUE(topology.ok());
  EXPECT_TRUE(cluster.Submit(*topology).ok());
  const uint64_t total = 2 * emit_limit;
  if (step) {
    for (int round = 0;
         round < 20000 && cluster.SumCounter("instance.acked") < total;
         ++round) {
      cluster.StepAll();
      sim_clock.AdvanceMillis(5);
    }
  } else {
    EXPECT_TRUE(cluster.WaitForCounter("instance.acked", total, 60000).ok())
        << mode;
  }
  FinalCounts counts;
  counts.emitted = cluster.SumCounter("instance.emitted");
  counts.executed = cluster.SumCounter("instance.executed");
  counts.acked = cluster.SumCounter("instance.acked");
  counts.failed = cluster.SumCounter("instance.failed");
  for (ContainerId id = 0; id < 2; ++id) {
    Container* container = cluster.GetContainer(id);
    if (container == nullptr) continue;
    for (const auto& instance : container->instances()) {
      counts.pending += instance->pending_count();
    }
  }
  EXPECT_TRUE(cluster.Kill().ok()) << mode;
  return counts;
}

// One driver for every mode: thread-per-instance (per-loop pool workers),
// cooperative (shared workers) and step mode (no pool, StepAll) must all
// carry the same finite stream to the same final counts.
TEST_F(LocalClusterTest, ExecutionModesAgreeOnFinalCounts) {
  constexpr uint64_t kEmitLimit = 1500;
  const FinalCounts thread = RunFiniteWordCount("thread", kEmitLimit);
  const FinalCounts cooperative =
      RunFiniteWordCount("cooperative", kEmitLimit);
  const FinalCounts step = RunFiniteWordCount("step", kEmitLimit);
  EXPECT_EQ(thread.emitted, 2 * kEmitLimit);
  EXPECT_EQ(thread.executed, 2 * kEmitLimit);
  EXPECT_EQ(thread.acked, 2 * kEmitLimit);
  EXPECT_EQ(thread.failed, 0u);
  EXPECT_EQ(thread.pending, 0);
  EXPECT_TRUE(thread == cooperative);
  EXPECT_TRUE(thread == step);
}

}  // namespace
}  // namespace runtime
}  // namespace heron
