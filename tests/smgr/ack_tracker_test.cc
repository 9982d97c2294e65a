// XOR ack-tracking algebra: the invariant is that a tree completes exactly
// when every tuple key has been folded in twice, in any order.

#include "smgr/ack_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"
#include "proto/messages.h"

namespace heron {
namespace smgr {
namespace {

constexpr int64_t kTimeout = 1000;

TEST(AckTrackerTest, SingleTupleTreeCompletes) {
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(1, 0xAA);
  tracker.Register(root, root, /*now=*/0);
  EXPECT_EQ(tracker.pending(), 1u);
  // The bolt acks the spout tuple: k_in == root, no children.
  auto done = tracker.Update(root, root, false);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->root, root);
  EXPECT_FALSE(done->fail);
  EXPECT_EQ(tracker.pending(), 0u);
}

TEST(AckTrackerTest, ChainTreeCompletesAfterEveryAck) {
  // spout → boltA (emits child) → boltB.
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(0, 0x1);
  const api::TupleKey child = 0xCAFEBABE;
  tracker.Register(root, root, 0);
  // boltA acks the spout tuple having emitted `child` anchored to root.
  EXPECT_FALSE(tracker.Update(root, root ^ child, false).has_value());
  // boltB acks the child (leaf).
  auto done = tracker.Update(root, child, false);
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->fail);
}

TEST(AckTrackerTest, OrderDoesNotMatter) {
  AckTracker t1(kTimeout);
  AckTracker t2(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(0, 0x2);
  const api::TupleKey c1 = 111, c2 = 222;
  for (AckTracker* t : {&t1, &t2}) t->Register(root, root, 0);
  // Updates: spout-ack-with-children, leaf c1, leaf c2 — two orders.
  EXPECT_FALSE(t1.Update(root, root ^ c1 ^ c2, false).has_value());
  EXPECT_FALSE(t1.Update(root, c1, false).has_value());
  EXPECT_TRUE(t1.Update(root, c2, false).has_value());

  EXPECT_FALSE(t2.Update(root, c2, false).has_value());
  EXPECT_FALSE(t2.Update(root, c1, false).has_value());
  EXPECT_TRUE(t2.Update(root, root ^ c1 ^ c2, false).has_value());
}

TEST(AckTrackerTest, FailCompletesImmediately) {
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(0, 0x3);
  tracker.Register(root, root, 0);
  auto done = tracker.Update(root, 0, true);
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->fail);
  // Subsequent updates for the dead root are stale no-ops.
  EXPECT_FALSE(tracker.Update(root, root, false).has_value());
}

TEST(AckTrackerTest, StaleUpdateForUnknownRootIgnored) {
  AckTracker tracker(kTimeout);
  EXPECT_FALSE(tracker.Update(12345, 1, false).has_value());
}

TEST(AckTrackerTest, TimeoutsExpireOverdueRoots) {
  AckTracker tracker(kTimeout);
  const api::TupleKey r1 = proto::MakeRootKey(0, 1);
  const api::TupleKey r2 = proto::MakeRootKey(0, 2);
  tracker.Register(r1, r1, /*now=*/0);
  tracker.Register(r2, r2, /*now=*/500);
  EXPECT_EQ(tracker.NextDeadlineNanos(), kTimeout);

  auto expired = tracker.ExpireTimeouts(/*now=*/kTimeout);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].root, r1);
  EXPECT_TRUE(expired[0].fail);
  EXPECT_EQ(tracker.pending(), 1u);

  // r2 still completes normally before its deadline.
  EXPECT_TRUE(tracker.Update(r2, r2, false).has_value());
  EXPECT_EQ(tracker.ExpireTimeouts(10 * kTimeout).size(), 0u);
}

TEST(AckTrackerTest, ExpiryFollowsRegistrationOrderWithEqualDeadlines) {
  AckTracker tracker(kTimeout);
  // Key order runs against registration order, and pairs share a
  // registration time (equal deadlines).
  std::vector<api::TupleKey> roots;
  for (uint64_t i = 0; i < 6; ++i) {
    const api::TupleKey root = proto::MakeRootKey(0, 0xFFFF - i * 0x101);
    roots.push_back(root);
    tracker.Register(root, root, /*now=*/static_cast<int64_t>(i / 2) * 10);
  }
  EXPECT_EQ(tracker.ExpireTimeouts(kTimeout - 1).size(), 0u);
  const auto expired = tracker.ExpireTimeouts(kTimeout + 20);
  ASSERT_EQ(expired.size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(expired[i].root, roots[i]) << i;
    EXPECT_TRUE(expired[i].fail);
  }
  EXPECT_EQ(tracker.pending(), 0u);
}

/// Registers four roots 100 ns apart, in reverse key order.
std::vector<api::TupleKey> RegisterFour(AckTracker& tracker) {
  std::vector<api::TupleKey> roots;
  for (uint64_t i = 0; i < 4; ++i) {
    roots.push_back(proto::MakeRootKey(0, 100 - i));
    tracker.Register(roots.back(), roots.back(),
                     static_cast<int64_t>(i) * 100);
  }
  return roots;
}

TEST(AckTrackerTest, NextDeadlinePrunesCompletedRoots) {
  AckTracker tracker(kTimeout);
  const auto roots = RegisterFour(tracker);
  // A root completed behind a live front leaves the deadline alone; once
  // the front three are done, pruning skips all of their records.
  EXPECT_TRUE(tracker.Update(roots[1], roots[1], false).has_value());
  EXPECT_EQ(tracker.NextDeadlineNanos(), kTimeout);
  EXPECT_TRUE(tracker.Update(roots[0], 0, true).has_value());
  EXPECT_TRUE(tracker.Update(roots[2], roots[2], false).has_value());
  EXPECT_EQ(tracker.NextDeadlineNanos(), 300 + kTimeout);
  // With every tree complete, pruning alone empties the index: no expiry
  // pass runs, and the SMGR's expiry service can go idle.
  EXPECT_TRUE(tracker.Update(roots[3], roots[3], false).has_value());
  EXPECT_EQ(tracker.NextDeadlineNanos(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(tracker.pending(), 0u);
}

TEST(AckTrackerTest, ExpiryAfterPruningReturnsOnlyLiveRoots) {
  AckTracker tracker(kTimeout);
  const auto roots = RegisterFour(tracker);
  EXPECT_TRUE(tracker.Update(roots[1], roots[1], false).has_value());
  EXPECT_TRUE(tracker.Update(roots[0], 0, true).has_value());
  EXPECT_TRUE(tracker.Update(roots[2], roots[2], false).has_value());
  EXPECT_EQ(tracker.NextDeadlineNanos(), 300 + kTimeout);
  // Only the live root expires; the pruned records never resurface.
  const auto expired = tracker.ExpireTimeouts(10 * kTimeout);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].root, roots[3]);
  EXPECT_EQ(tracker.NextDeadlineNanos(),
            std::numeric_limits<int64_t>::max());
}

TEST(AckTrackerTest, StaleRecordDoesNotExpireLaterRegistration) {
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(1, 0x7);
  tracker.Register(root, root, /*now=*/0);
  EXPECT_TRUE(tracker.Update(root, root, false).has_value());
  // The same key comes back later; its first record is stale.
  tracker.Register(root, root, /*now=*/500);
  EXPECT_EQ(tracker.NextDeadlineNanos(), 500 + kTimeout);
  EXPECT_EQ(tracker.ExpireTimeouts(500 + kTimeout - 1).size(), 0u);
  EXPECT_EQ(tracker.pending(), 1u);
  const auto expired = tracker.ExpireTimeouts(500 + kTimeout);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].root, root);
}

TEST(AckTrackerTest, RootRegisteredTwiceKeepsFirstDeadline) {
  AckTracker tracker(kTimeout);
  const api::TupleKey root = proto::MakeRootKey(2, 0x42);
  const api::TupleKey other = 0xBEEF;
  tracker.Register(root, root, /*now=*/0);
  tracker.Register(root, other, /*now=*/500);
  EXPECT_EQ(tracker.pending(), 1u);
  EXPECT_EQ(tracker.NextDeadlineNanos(), kTimeout);
  // Both keys were folded in: the tree closes only when both are acked.
  EXPECT_FALSE(tracker.Update(root, root, false).has_value());
  const auto expired = tracker.ExpireTimeouts(kTimeout);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].root, root);
  EXPECT_EQ(tracker.NextDeadlineNanos(),
            std::numeric_limits<int64_t>::max());
}

TEST(AckTrackerTest, ClockSteppingBackKeepsDeadlinesSorted) {
  AckTracker tracker(kTimeout);
  const api::TupleKey r1 = proto::MakeRootKey(0, 1);
  const api::TupleKey r2 = proto::MakeRootKey(0, 2);
  tracker.Register(r1, r1, /*now=*/500);
  tracker.Register(r2, r2, /*now=*/0);  // Clamped up to r1's deadline.
  EXPECT_EQ(tracker.NextDeadlineNanos(), 500 + kTimeout);
  EXPECT_EQ(tracker.ExpireTimeouts(500 + kTimeout - 1).size(), 0u);
  const auto expired = tracker.ExpireTimeouts(500 + kTimeout);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].root, r1);
  EXPECT_EQ(expired[1].root, r2);
}

/// Property: random tuple trees complete exactly at the last ack,
/// regardless of delivery order.
class AckTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AckTreeProperty, RandomTreeCompletesOnlyAtLastAck) {
  Random rng(GetParam());
  AckTracker tracker(1ll << 60);
  const api::TupleKey root = proto::MakeRootKey(0, rng.NextUint64());
  tracker.Register(root, root, 0);

  // Build a random tree: each node gets a key; each node's ack update is
  // its key XOR its children's keys.
  struct Node {
    api::TupleKey key;
    std::vector<size_t> children;
  };
  std::vector<Node> nodes;
  nodes.push_back({root, {}});
  const size_t total = 2 + rng.NextBelow(30);
  for (size_t i = 1; i < total; ++i) {
    const size_t parent = rng.NextBelow(nodes.size());
    nodes.push_back({rng.NextUint64() | 1, {}});
    nodes[parent].children.push_back(i);
  }
  std::vector<api::TupleKey> updates;
  for (const auto& node : nodes) {
    api::TupleKey update = node.key;
    for (const size_t child : node.children) {
      update ^= nodes[child].key;
    }
    updates.push_back(update);
  }
  // Deliver in shuffled order.
  for (size_t i = updates.size(); i > 1; --i) {
    std::swap(updates[i - 1], updates[rng.NextBelow(i)]);
  }
  for (size_t i = 0; i < updates.size(); ++i) {
    auto done = tracker.Update(root, updates[i], false);
    if (i + 1 < updates.size()) {
      EXPECT_FALSE(done.has_value()) << "completed early at " << i;
    } else {
      EXPECT_TRUE(done.has_value()) << "did not complete at last ack";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckTreeProperty,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace smgr
}  // namespace heron
