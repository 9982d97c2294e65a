// HeronInstance executor tests with a stubbed SMGR endpoint: the spout
// loop's emission/ack/flow-control behaviour and the bolt loop's
// execute/ack behaviour, observed at the serialized wire.

#include "instance/instance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "common/logging.h"
#include "packing/round_robin_packing.h"
#include "runtime/tasklet.h"
#include "workloads/word_count.h"

namespace heron {
namespace instance {
namespace {

class InstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logging::SetLevel(LogLevel::kWarning);
    workloads::WordSpout::Options spout_options;
    spout_options.dictionary_size = 50;
    auto topology = workloads::BuildWordCountTopology("inst-test", 1, 1,
                                                      spout_options);
    ASSERT_TRUE(topology.ok());
    packing::RoundRobinPacking packer;
    Config config;
    config.SetInt(config_keys::kNumContainersHint, 1);
    ASSERT_TRUE(packer.Initialize(config, *topology).ok());
    auto plan = packer.Pack();
    ASSERT_TRUE(plan.ok());
    physical_ = *proto::PhysicalPlan::Build(*topology, *plan);

    transport_ = std::make_unique<smgr::Transport>(true);
    smgr_inbound_ = std::make_unique<smgr::EnvelopeChannel>(1 << 14);
    ASSERT_TRUE(transport_->RegisterSmgr(0, smgr_inbound_.get()).ok());
    runtime::TaskletPool::Options pool_options;
    pool_options.placement = runtime::Placement::kPerLoop;
    pool_ = std::make_unique<runtime::TaskletPool>(pool_options,
                                                   RealClock::Get());
    pool_->Start();
  }

  /// Prepares `instance` and hands its loop to a dedicated pool worker, as
  /// a thread-mode Container does.
  runtime::TaskletPool::Handle* Launch(HeronInstance* instance) {
    EXPECT_TRUE(instance->Prepare().ok());
    return pool_->Add(instance->loop());
  }

  /// Retires the instance's loop from its worker, then stops it.
  void StopLaunched(HeronInstance* instance,
                    runtime::TaskletPool::Handle* handle) {
    pool_->Retire(handle);
    instance->Stop();
  }

  /// Waits until `predicate` or the deadline.
  void WaitFor(const std::function<bool()>& predicate, int64_t timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!predicate() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::shared_ptr<const proto::PhysicalPlan> physical_;
  std::unique_ptr<smgr::Transport> transport_;
  std::unique_ptr<smgr::EnvelopeChannel> smgr_inbound_;
  std::unique_ptr<runtime::TaskletPool> pool_;
};

TEST_F(InstanceTest, SpoutEmitsSerializedBatchesToLocalSmgr) {
  HeronInstance::Options options;
  options.task = 0;  // The spout.
  HeronInstance spout(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  runtime::TaskletPool::Handle* handle = Launch(&spout);
  WaitFor([&] { return smgr_inbound_->size() >= 3; }, 10000);
  StopLaunched(&spout, handle);

  auto env = smgr_inbound_->TryRecv();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->type, proto::MessageType::kTupleBatch);
  proto::TupleBatchMsg batch;
  ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
  EXPECT_EQ(batch.src_task, 0);
  EXPECT_EQ(batch.src_component, "word");
  EXPECT_EQ(batch.dest_task, -1);  // Routing is the SMGR's job.
  ASSERT_FALSE(batch.tuples.empty());
  proto::TupleDataMsg msg;
  ASSERT_TRUE(msg.ParseFromBytes(batch.tuples[0]).ok());
  EXPECT_TRUE(msg.roots.empty());  // Acking off: untracked emission.
  EXPECT_GT(spout.metrics()->GetCounter("instance.emitted")->value(), 0u);
}

TEST_F(InstanceTest, AckedSpoutStopsAtMaxPendingAndResumesOnRootEvents) {
  HeronInstance::Options options;
  options.task = 0;
  options.acking = true;
  options.max_spout_pending = 100;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance spout(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  runtime::TaskletPool::Handle* handle = Launch(&spout);

  // With nobody acking, emission halts at the cap.
  WaitFor([&] { return spout.pending_count() >= 100; }, 10000);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(spout.pending_count(), 100);

  // Collect the roots actually emitted, ack half of them.
  std::vector<api::TupleKey> roots;
  while (auto env = smgr_inbound_->TryRecv()) {
    proto::TupleBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    for (const auto& bytes : batch.tuples) {
      proto::TupleDataMsg msg;
      ASSERT_TRUE(msg.ParseFromBytes(bytes).ok());
      for (const api::TupleKey root : msg.roots) roots.push_back(root);
    }
  }
  ASSERT_EQ(roots.size(), 100u);
  for (size_t i = 0; i < 50; ++i) {
    proto::RootEventMsg event;
    // A few failures among the acks.
    event.events.push_back({roots[i], i % 10 == 9});
    ASSERT_TRUE(spout.inbound()
                    ->TrySend(proto::Envelope(
                        proto::MessageType::kRootEvent,
                        event.SerializeAsBuffer()))
                    .ok());
  }

  // The freed slots refill: new emissions arrive.
  WaitFor([&] { return smgr_inbound_->size() > 0; }, 10000);
  EXPECT_GT(smgr_inbound_->size(), 0u);
  StopLaunched(&spout, handle);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.acked")->value(), 45u);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.failed")->value(), 5u);
  EXPECT_GT(
      spout.metrics()->GetHistogram("instance.complete.latency.ns")->count(),
      0u);
}

TEST_F(InstanceTest, RootEventBatchAppliesAcksFailsAndStaleRootsInOrder) {
  HeronInstance::Options options;
  options.task = 0;
  options.acking = true;
  options.max_spout_pending = 40;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance spout(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  ASSERT_TRUE(spout.Prepare().ok());
  for (int i = 0; i < 1000 && spout.pending_count() < 40; ++i) {
    spout.loop()->RunOnce();
  }
  ASSERT_EQ(spout.pending_count(), 40);

  std::vector<api::TupleKey> roots;
  while (auto env = smgr_inbound_->TryRecv()) {
    proto::TupleBatchMsg batch;
    ASSERT_TRUE(batch.ParseFromBytes(env->payload).ok());
    for (const auto& bytes : batch.tuples) {
      proto::TupleDataMsg msg;
      ASSERT_TRUE(msg.ParseFromBytes(bytes).ok());
      for (const api::TupleKey root : msg.roots) roots.push_back(root);
    }
  }
  ASSERT_EQ(roots.size(), 40u);

  // One batch: 24 acks and 6 fails of live roots, interleaved with three
  // stale events — two roots never emitted and a repeat of a root this
  // very batch already acked.
  proto::RootEventMsg batch;
  for (size_t i = 0; i < 30; ++i) {
    batch.events.push_back({roots[i], i % 5 == 4});
    if (i == 10) batch.events.push_back({proto::MakeRootKey(0, 0xDEAD), false});
    if (i == 20) batch.events.push_back({roots[3], false});
  }
  batch.events.push_back({proto::MakeRootKey(0, 0xBEEF), true});
  const uint64_t emitted_before =
      spout.metrics()->GetCounter("instance.emitted")->value();
  ASSERT_TRUE(spout.inbound()
                  ->TrySend(proto::Envelope(proto::MessageType::kRootEvent,
                                            batch.SerializeAsBuffer()))
                  .ok());
  // One iteration applies the whole batch (the source drains before the
  // NextTuple idle worker, which may then refill one freed slot).
  spout.loop()->RunOnce();
  const int64_t refilled = static_cast<int64_t>(
      spout.metrics()->GetCounter("instance.emitted")->value() -
      emitted_before);
  EXPECT_LE(refilled, 1);
  EXPECT_EQ(spout.pending_count(), 40 - 30 + refilled);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.acked")->value(), 24u);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.failed")->value(), 6u);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.rootevent.stale")->value(),
            3u);

  // A malformed batch is dropped whole: nothing in it is applied.
  serde::Buffer truncated = [&] {
    proto::RootEventMsg rest;
    for (size_t i = 30; i < 40; ++i) rest.events.push_back({roots[i], false});
    serde::Buffer bytes = rest.SerializeAsBuffer();
    bytes.resize(bytes.size() - 3);
    return bytes;
  }();
  const int64_t pending_before = spout.pending_count();
  ASSERT_TRUE(spout.inbound()
                  ->TrySend(proto::Envelope(proto::MessageType::kRootEvent,
                                            std::move(truncated)))
                  .ok());
  spout.loop()->RunOnce();
  EXPECT_GE(spout.pending_count(), pending_before);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.acked")->value(), 24u);
  EXPECT_EQ(spout.metrics()->GetCounter("instance.rootevent.stale")->value(),
            3u);
  spout.Stop();
}

TEST_F(InstanceTest, BoltExecutesRoutedBatchesAndAcksUpstream) {
  HeronInstance::Options options;
  options.task = 1;  // The count bolt.
  options.acking = true;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance bolt(options, physical_, transport_.get(),
                     RealClock::Get(), nullptr);
  runtime::TaskletPool::Handle* handle = Launch(&bolt);

  // Hand it a routed batch of three tracked words.
  proto::TupleBatchMsg batch;
  batch.src_task = 0;
  batch.dest_task = 1;
  batch.src_component = "word";
  std::vector<api::TupleKey> roots;
  for (int i = 0; i < 3; ++i) {
    proto::TupleDataMsg msg;
    const api::TupleKey root =
        proto::MakeRootKey(0, 100 + static_cast<uint64_t>(i));
    msg.tuple_key = root;
    msg.roots.push_back(root);
    msg.values.emplace_back(std::string("hello"));
    batch.tuples.push_back(msg.SerializeAsBuffer());
    roots.push_back(root);
  }
  ASSERT_TRUE(bolt.inbound()
                  ->TrySend(proto::Envelope(
                      proto::MessageType::kTupleBatchRouted,
                      batch.SerializeAsBuffer()))
                  .ok());

  WaitFor([&] { return smgr_inbound_->size() > 0; }, 10000);
  StopLaunched(&bolt, handle);
  EXPECT_EQ(bolt.metrics()->GetCounter("instance.executed")->value(), 3u);

  // The CountBolt acks every input: one ack update per root must have
  // reached the SMGR, each carrying xor == tuple key (leaf tuples).
  std::map<api::TupleKey, api::TupleKey> updates;
  while (auto env = smgr_inbound_->TryRecv()) {
    if (env->type != proto::MessageType::kAckBatch) continue;
    proto::AckBatchMsg acks;
    ASSERT_TRUE(acks.ParseFromBytes(env->payload).ok());
    EXPECT_EQ(acks.dest_task, 0);  // Root owner.
    for (const auto& u : acks.updates) updates[u.root] = u.xor_value;
  }
  ASSERT_EQ(updates.size(), 3u);
  for (const api::TupleKey root : roots) {
    EXPECT_EQ(updates[root], root);
  }
}

TEST_F(InstanceTest, StartRejectsUnknownTask) {
  HeronInstance::Options options;
  options.task = 42;
  HeronInstance ghost(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  EXPECT_TRUE(ghost.Prepare().IsNotFound());
}

TEST_F(InstanceTest, StopIsIdempotentAndUnregisters) {
  HeronInstance::Options options;
  options.task = 0;
  HeronInstance spout(options, physical_, transport_.get(),
                      RealClock::Get(), nullptr);
  runtime::TaskletPool::Handle* handle = Launch(&spout);
  EXPECT_NE(transport_->InstanceChannel(0), nullptr);
  StopLaunched(&spout, handle);
  spout.Stop();
  EXPECT_EQ(transport_->InstanceChannel(0), nullptr);
}

/// A routed batch of one tracked word for the count bolt (task 1).
proto::Envelope OneWordBatch(uint64_t seq) {
  proto::TupleBatchMsg batch;
  batch.src_task = 0;
  batch.dest_task = 1;
  batch.src_component = "word";
  proto::TupleDataMsg msg;
  msg.tuple_key = proto::MakeRootKey(0, 100 + seq);
  msg.roots.push_back(msg.tuple_key);
  msg.values.emplace_back(std::string("hello"));
  batch.tuples.push_back(msg.SerializeAsBuffer());
  return proto::Envelope(proto::MessageType::kTupleBatchRouted,
                         batch.SerializeAsBuffer());
}

// Step mode, exact counts: output that cannot reach a full SMGR channel
// parks in the outbox, and while it is parked the instance takes no new
// input. Draining the SMGR reopens the gate, one envelope at a time.
TEST_F(InstanceTest, ParkedOutputGatesInboundUntilSmgrDrains) {
  smgr::EnvelopeChannel smgr_channel(1);
  ASSERT_TRUE(transport_->UnregisterSmgr(0).ok());
  ASSERT_TRUE(transport_->RegisterSmgr(0, &smgr_channel).ok());
  ASSERT_TRUE(smgr_channel
                  .TrySend(proto::Envelope(proto::MessageType::kControl,
                                           serde::Buffer()))
                  .ok());  // Full: the bolt's first ack batch must park.

  HeronInstance::Options options;
  options.task = 1;
  options.acking = true;
  options.config.SetBool(config_keys::kAckingEnabled, true);
  HeronInstance bolt(options, physical_, transport_.get(), RealClock::Get(),
                     nullptr);
  ASSERT_TRUE(bolt.Prepare().ok());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(bolt.inbound()->TrySend(OneWordBatch(i)).ok());
  }
  const auto executed = [&] {
    return bolt.metrics()->GetCounter("instance.executed")->value();
  };

  // The first batch executes; its ack batch parks and shuts the gate.
  bolt.loop()->RunOnce();
  EXPECT_EQ(executed(), 1u);
  EXPECT_EQ(bolt.inbound()->size(), 2u);
  for (int i = 0; i < 5; ++i) bolt.loop()->RunOnce();
  EXPECT_EQ(executed(), 1u);
  EXPECT_EQ(bolt.inbound()->size(), 2u);

  // The SMGR drains: the backlog retry ships the parked ack batch (the gate
  // is checked before the retry, so no input yet) ...
  ASSERT_EQ(smgr_channel.TryRecv()->type, proto::MessageType::kControl);
  bolt.loop()->RunOnce();
  EXPECT_EQ(executed(), 1u);
  EXPECT_EQ(smgr_channel.size(), 1u);
  // ... and the next iteration takes exactly one batch, whose ack parks.
  bolt.loop()->RunOnce();
  EXPECT_EQ(executed(), 2u);
  EXPECT_EQ(bolt.inbound()->size(), 1u);

  // Keep draining: every batch executes, every ack batch arrives in order.
  int acks = 0;
  for (int i = 0; i < 20 && acks < 3; ++i) {
    if (auto env = smgr_channel.TryRecv()) {
      ASSERT_EQ(env->type, proto::MessageType::kAckBatch);
      ++acks;
    }
    bolt.loop()->RunOnce();
  }
  EXPECT_EQ(acks, 3);
  EXPECT_EQ(executed(), 3u);
  EXPECT_EQ(bolt.inbound()->size(), 0u);
  bolt.Stop();
  ASSERT_TRUE(transport_->UnregisterSmgr(0).ok());
}

// Graceful Stop and hard Kill with parked output, under every placement a
// pool offers. A spout emitting one-tuple batches into a 4-slot SMGR
// channel nobody drains parks its fifth batch and then emits nothing more
// (the input gate's spout half). Stop() must ship the parked batch once
// the SMGR drains again; Kill() must return at once and ship nothing.
TEST_F(InstanceTest, StopShipsParkedOutputAndKillDropsItUnderEveryPlacement) {
  constexpr size_t kSmgrSlots = 4;
  for (const runtime::Placement placement :
       {runtime::Placement::kPerLoop, runtime::Placement::kShared,
        runtime::Placement::kInline}) {
    for (const bool graceful : {true, false}) {
      SCOPED_TRACE(std::string(graceful ? "Stop" : "Kill") + " placement " +
                   std::to_string(static_cast<int>(placement)));
      smgr::EnvelopeChannel smgr_channel(kSmgrSlots);
      ASSERT_TRUE(transport_->UnregisterSmgr(0).ok());
      ASSERT_TRUE(transport_->RegisterSmgr(0, &smgr_channel).ok());
      runtime::TaskletPool::Options pool_options;
      pool_options.workers = 1;
      pool_options.placement = placement;
      runtime::TaskletPool pool(pool_options, RealClock::Get());
      pool.Start();

      HeronInstance::Options options;
      options.task = 0;
      options.emit_batch_tuples = 1;
      HeronInstance spout(options, physical_, transport_.get(),
                          RealClock::Get(), nullptr);
      ASSERT_TRUE(spout.Prepare().ok());
      runtime::TaskletPool::Handle* handle = pool.Add(spout.loop());
      const auto emitted = [&] {
        return spout.metrics()->GetCounter("instance.emitted")->value();
      };
      WaitFor(
          [&] {
            if (placement == runtime::Placement::kInline) pool.DriveAll();
            return emitted() > kSmgrSlots;
          },
          10000);
      ASSERT_EQ(smgr_channel.size(), kSmgrSlots);
      // One batch parked, and the spout stays paused behind it.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (placement == runtime::Placement::kInline) {
        for (int i = 0; i < 50; ++i) pool.DriveAll();
      }
      ASSERT_EQ(emitted(), kSmgrSlots + 1);

      pool.Retire(handle);
      if (graceful) {
        std::atomic<bool> stopped{false};
        size_t received = 0;
        std::thread smgr([&] {
          while (!stopped.load() || smgr_channel.size() > 0) {
            if (smgr_channel.TryRecv().has_value()) {
              ++received;
            } else {
              std::this_thread::yield();
            }
          }
        });
        spout.Stop();
        stopped.store(true);
        smgr.join();
        EXPECT_EQ(received, emitted());
      } else {
        const auto start = std::chrono::steady_clock::now();
        spout.Kill();
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::milliseconds(100));
        EXPECT_EQ(smgr_channel.size(), kSmgrSlots);
        spout.Stop();  // Idempotent after Kill: ships nothing.
        EXPECT_EQ(smgr_channel.size(), kSmgrSlots);
      }
      pool.Stop();
      ASSERT_TRUE(transport_->UnregisterSmgr(0).ok());
      ASSERT_TRUE(transport_->RegisterSmgr(0, smgr_inbound_.get()).ok());
    }
  }
}

}  // namespace
}  // namespace instance
}  // namespace heron
