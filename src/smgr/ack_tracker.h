#ifndef HERON_SMGR_ACK_TRACKER_H_
#define HERON_SMGR_ACK_TRACKER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/tuple.h"

namespace heron {
namespace smgr {

/// \brief XOR-rotation ack tracking for the tuple trees rooted at this
/// container's spouts.
///
/// The classic Storm/Heron algorithm: every tuple key is folded into its
/// root's XOR state exactly twice — once when the tuple enters the tree
/// (spout registration for roots, anchored-emit contribution inside the
/// acking bolt's update) and once when it is acked. The state returns to
/// zero exactly when every tuple in the tree has been acked, regardless
/// of order or interleaving. A `fail` update or a timeout completes the
/// root immediately with fail=true.
///
/// Single-threaded by design: owned and driven by one Stream Manager loop.
class AckTracker {
 public:
  struct Completion {
    api::TupleKey root = 0;
    bool fail = false;
  };

  /// \param timeout_nanos  per-root deadline from registration; a root not
  ///        completing in time is failed (topology message timeout, §V-B).
  explicit AckTracker(int64_t timeout_nanos) : timeout_nanos_(timeout_nanos) {}

  /// Starts tracking `root` with the spout tuple's key folded in. A root
  /// registered again keeps its first deadline.
  void Register(api::TupleKey root, api::TupleKey spout_tuple_key,
                int64_t now_nanos);

  /// Applies one XOR update; returns the completion when the tree closed
  /// (XOR hit zero) or the update carried fail. Stale updates for unknown
  /// roots (already completed / timed out) are ignored.
  std::optional<Completion> Update(api::TupleKey root, api::TupleKey xor_value,
                                   bool fail);

  /// Fails every root whose deadline passed, in registration order.
  std::vector<Completion> ExpireTimeouts(int64_t now_nanos);

  /// Earliest pending deadline, or INT64_MAX when nothing is tracked.
  /// Prunes stale deadline records as a side effect.
  int64_t NextDeadlineNanos();

  size_t pending() const { return entries_.size(); }

 private:
  struct Entry {
    api::TupleKey xor_state = 0;
    int64_t deadline_nanos = 0;
  };

  int64_t timeout_nanos_;
  std::unordered_map<api::TupleKey, Entry> entries_;
  /// Deadline index: a FIFO of (deadline, root) in registration order.
  /// The timeout is constant and the clock monotonic, so deadlines never
  /// decrease along the FIFO; Register clamps a new deadline up to the
  /// tail's so it stays sorted even under a clock that steps back. A
  /// completed root leaves its record behind, and a record only counts
  /// while the root is still tracked under that same deadline, so expiry
  /// and pruning pop the front in O(1) without touching the middle.
  std::deque<std::pair<int64_t, api::TupleKey>> by_deadline_;
};

}  // namespace smgr
}  // namespace heron

#endif  // HERON_SMGR_ACK_TRACKER_H_
