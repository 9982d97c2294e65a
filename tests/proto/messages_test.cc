#include "proto/messages.h"

#include <gtest/gtest.h>

#include "api/grouping.h"
#include "common/random.h"

namespace heron {
namespace proto {
namespace {

TupleDataMsg MakeTuple(uint64_t seed = 3) {
  Random rng(seed);
  TupleDataMsg msg;
  msg.tuple_key = rng.NextUint64();
  msg.roots.push_back(MakeRootKey(2, rng.NextUint64()));
  msg.roots.push_back(MakeRootKey(3, rng.NextUint64()));
  msg.emit_time_nanos = static_cast<int64_t>(rng.NextBelow(1ull << 60));
  msg.values.emplace_back(std::string("alpha"));
  msg.values.emplace_back(int64_t{-99});
  msg.values.emplace_back(true);
  msg.values.emplace_back(2.75);
  return msg;
}

TEST(MessagesTest, TupleDataRoundTrip) {
  const TupleDataMsg original = MakeTuple();
  TupleDataMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(original.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed.tuple_key, original.tuple_key);
  EXPECT_EQ(parsed.roots, original.roots);
  EXPECT_EQ(parsed.emit_time_nanos, original.emit_time_nanos);
  EXPECT_EQ(parsed.values, original.values);
}

TEST(MessagesTest, TupleDataToFromTuple) {
  const TupleDataMsg msg = MakeTuple();
  api::Tuple tuple;
  msg.ToTuple("word", "default", 7, &tuple);
  EXPECT_EQ(tuple.source_component(), "word");
  EXPECT_EQ(tuple.source_task(), 7);
  EXPECT_EQ(tuple.values(), msg.values);
  EXPECT_EQ(tuple.tuple_key(), msg.tuple_key);
  EXPECT_EQ(tuple.roots(), msg.roots);

  TupleDataMsg back;
  back.FromTuple(tuple);
  EXPECT_EQ(back.tuple_key, msg.tuple_key);
  EXPECT_EQ(back.values, msg.values);
}

TEST(MessagesTest, TupleBatchRoundTrip) {
  TupleBatchMsg batch;
  batch.src_task = 4;
  batch.dest_task = 9;
  batch.stream = "default";
  batch.src_component = "word";
  batch.tuples.push_back(MakeTuple(1).SerializeAsBuffer());
  batch.tuples.push_back(MakeTuple(2).SerializeAsBuffer());

  TupleBatchMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(batch.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed.src_task, 4);
  EXPECT_EQ(parsed.dest_task, 9);
  EXPECT_EQ(parsed.stream, "default");
  EXPECT_EQ(parsed.src_component, "word");
  EXPECT_EQ(parsed.tuples, batch.tuples);
}

TEST(MessagesTest, PeekDestTaskMatchesFullParse) {
  TupleBatchMsg batch;
  batch.src_task = 1;
  batch.dest_task = 42;
  batch.src_component = "c";
  batch.tuples.push_back(MakeTuple().SerializeAsBuffer());
  const serde::Buffer bytes = batch.SerializeAsBuffer();
  EXPECT_EQ(*PeekDestTask(bytes), 42);
}

TEST(MessagesTest, PeekDestTaskRejectsGarbage) {
  EXPECT_FALSE(PeekDestTask("not a batch").ok());
}

TEST(MessagesTest, ParseTupleBatchViewIsZeroCopy) {
  TupleBatchMsg batch;
  batch.src_task = 3;
  batch.dest_task = -1;
  batch.stream = "s";
  batch.src_component = "word";
  batch.tuples.push_back(MakeTuple(5).SerializeAsBuffer());
  batch.tuples.push_back(MakeTuple(6).SerializeAsBuffer());
  const serde::Buffer bytes = batch.SerializeAsBuffer();

  TupleBatchView view;
  ASSERT_TRUE(ParseTupleBatchView(bytes, &view).ok());
  EXPECT_EQ(view.src_task, 3);
  EXPECT_EQ(view.dest_task, -1);
  EXPECT_EQ(view.stream, "s");
  EXPECT_EQ(view.src_component, "word");
  ASSERT_EQ(view.tuples.size(), 2u);
  // Views must point inside the original buffer.
  for (const auto& t : view.tuples) {
    EXPECT_GE(t.data(), bytes.data());
    EXPECT_LE(t.data() + t.size(), bytes.data() + bytes.size());
  }
  // And parse back to the same tuples.
  TupleDataMsg t0;
  ASSERT_TRUE(t0.ParseFromBytes(view.tuples[0]).ok());
  EXPECT_EQ(t0.values, MakeTuple(5).values);
}

TEST(MessagesTest, OverwriteDestTaskInPlaceSameWidth) {
  TupleBatchMsg batch;
  batch.src_task = 1;
  batch.dest_task = 10;  // Single-byte zigzag varint.
  batch.src_component = "c";
  serde::Buffer bytes = batch.SerializeAsBuffer();
  ASSERT_TRUE(OverwriteDestTaskInPlace(&bytes, 25));  // Also single byte.
  EXPECT_EQ(*PeekDestTask(bytes), 25);
  // Everything else intact.
  TupleBatchMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(bytes).ok());
  EXPECT_EQ(parsed.src_task, 1);
  EXPECT_EQ(parsed.src_component, "c");
}

TEST(MessagesTest, OverwriteDestTaskRefusesWidthChange) {
  TupleBatchMsg batch;
  batch.dest_task = 10;  // 1-byte varint.
  serde::Buffer bytes = batch.SerializeAsBuffer();
  EXPECT_FALSE(OverwriteDestTaskInPlace(&bytes, 100000));  // Needs 3 bytes.
  EXPECT_EQ(*PeekDestTask(bytes), 10);  // Untouched.
}

TEST(MessagesTest, PeekTupleKeyAndRootsStopsEarly) {
  const TupleDataMsg msg = MakeTuple();
  api::TupleKey key = 0;
  std::vector<api::TupleKey> roots;
  ASSERT_TRUE(
      PeekTupleKeyAndRoots(msg.SerializeAsBuffer(), &key, &roots).ok());
  EXPECT_EQ(key, msg.tuple_key);
  EXPECT_EQ(roots, msg.roots);
}

TEST(MessagesTest, PeekFieldsHashEqualsRouterKeyHash) {
  // The core §V-A equivalence: hashing serialized byte ranges must route
  // exactly like hashing decoded values.
  Random rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    TupleDataMsg msg;
    msg.tuple_key = rng.NextUint64();
    msg.values.emplace_back(std::string("w") + std::to_string(trial));
    msg.values.emplace_back(static_cast<int64_t>(rng.NextUint64()));
    msg.values.emplace_back(rng.NextDouble());

    const api::Fields schema({"word", "num", "score"});
    for (const auto& selected :
         std::vector<std::vector<std::string>>{{"word"},
                                               {"num"},
                                               {"word", "num"},
                                               {"word", "num", "score"}}) {
      api::Router router(api::GroupingKind::kFields, schema,
                         api::Fields(selected), {0, 1, 2, 3});
      std::vector<int> indices;
      for (const auto& name : selected) indices.push_back(schema.IndexOf(name));
      std::sort(indices.begin(), indices.end());
      const auto lazy = PeekFieldsHash(msg.SerializeAsBuffer(), indices);
      ASSERT_TRUE(lazy.ok());
      EXPECT_EQ(*lazy, router.KeyHash(msg.values)) << "trial " << trial;
    }
  }
}

TEST(MessagesTest, PeekFieldsHashRejectsOutOfRangeIndex) {
  const TupleDataMsg msg = MakeTuple();
  EXPECT_FALSE(PeekFieldsHash(msg.SerializeAsBuffer(), {99}).ok());
}

TEST(MessagesTest, AckBatchRoundTrip) {
  AckBatchMsg batch;
  batch.dest_task = 12;
  batch.updates.push_back({MakeRootKey(12, 5), 0xDEAD, false});
  batch.updates.push_back({MakeRootKey(12, 6), 0, true});
  AckBatchMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(batch.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed.dest_task, 12);
  EXPECT_EQ(parsed.updates, batch.updates);
  EXPECT_EQ(*PeekAckBatchDest(batch.SerializeAsBuffer()), 12);
}

/// A root-event batch of `n` events for spout task 9, every third failed.
RootEventMsg MakeRootEvents(int n) {
  RootEventMsg msg;
  for (int i = 0; i < n; ++i) {
    msg.events.push_back({MakeRootKey(9, 0x1234 + static_cast<uint64_t>(i)),
                          i % 3 == 2});
  }
  return msg;
}

TEST(MessagesTest, RootEventBatchRoundTrip) {
  for (const int n : {0, 1, 300}) {
    const RootEventMsg msg = MakeRootEvents(n);
    RootEventMsg parsed;
    ASSERT_TRUE(parsed.ParseFromBytes(msg.SerializeAsBuffer()).ok()) << n;
    EXPECT_EQ(parsed.events, msg.events) << n;
  }
  // Order and flags survive exactly: completion order is what the spout
  // applies.
  RootEventMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(MakeRootEvents(4).SerializeAsBuffer())
                  .ok());
  ASSERT_EQ(parsed.events.size(), 4u);
  EXPECT_EQ(parsed.events[0].root, MakeRootKey(9, 0x1234));
  EXPECT_FALSE(parsed.events[1].fail);
  EXPECT_TRUE(parsed.events[2].fail);
  EXPECT_EQ(parsed.events[3].root, MakeRootKey(9, 0x1237));
}

TEST(MessagesTest, TruncatedRootEventBatchIsRejectedWhole) {
  // Every strict prefix fails to parse, event boundaries included: the
  // leading count makes a batch cut between two events detectable.
  for (const int n : {0, 1, 300}) {
    const serde::Buffer bytes = MakeRootEvents(n).SerializeAsBuffer();
    for (size_t len = 0; len < bytes.size(); ++len) {
      RootEventMsg parsed;
      EXPECT_FALSE(
          parsed.ParseFromBytes(serde::BytesView(bytes.data(), len)).ok())
          << "n=" << n << " len=" << len;
    }
  }
}

TEST(MessagesTest, TMasterLocationRoundTrip) {
  TMasterLocationMsg msg;
  msg.topology = "wc";
  msg.host = "host-1";
  msg.port = 8899;
  msg.controller_port = 8900;
  TMasterLocationMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(msg.SerializeAsBuffer()).ok());
  EXPECT_EQ(parsed, msg);
}

TEST(MessagesTest, RootKeyEmbedsTask) {
  for (const TaskId task : {0, 1, 77, 1023, 65535}) {
    const api::TupleKey root = MakeRootKey(task, 0xFFFFFFFFFFFFULL);
    EXPECT_EQ(RootKeyTask(root), task);
  }
}

TEST(MessagesTest, UnknownFieldsAreSkipped) {
  // Forward compatibility: a message with extra fields still parses —
  // the module-evolution requirement of §II.
  serde::Buffer bytes = MakeTuple().SerializeAsBuffer();
  serde::WireEncoder enc(&bytes);
  enc.WriteStringField(15, "from-a-newer-version");
  enc.WriteUint64Field(16, 777);
  TupleDataMsg parsed;
  ASSERT_TRUE(parsed.ParseFromBytes(bytes).ok());
  EXPECT_EQ(parsed.values, MakeTuple().values);
}

TEST(MessagesTest, ClearResetsEverything) {
  TupleDataMsg msg = MakeTuple();
  msg.Clear();
  EXPECT_EQ(msg.tuple_key, 0u);
  EXPECT_TRUE(msg.roots.empty());
  EXPECT_TRUE(msg.values.empty());
  EXPECT_EQ(msg.emit_time_nanos, 0);
}

}  // namespace
}  // namespace proto
}  // namespace heron
