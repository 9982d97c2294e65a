#include "smgr/ack_tracker.h"

#include <algorithm>
#include <limits>

namespace heron {
namespace smgr {

void AckTracker::Register(api::TupleKey root, api::TupleKey spout_tuple_key,
                          int64_t now_nanos) {
  auto [it, inserted] = entries_.try_emplace(root);
  it->second.xor_state ^= spout_tuple_key;
  if (inserted) {
    int64_t deadline = now_nanos + timeout_nanos_;
    if (!by_deadline_.empty()) {
      deadline = std::max(deadline, by_deadline_.back().first);
    }
    it->second.deadline_nanos = deadline;
    by_deadline_.emplace_back(deadline, root);
  }
}

std::optional<AckTracker::Completion> AckTracker::Update(
    api::TupleKey root, api::TupleKey xor_value, bool fail) {
  const auto it = entries_.find(root);
  if (it == entries_.end()) return std::nullopt;  // Stale update.
  if (fail) {
    entries_.erase(it);
    return Completion{root, true};
  }
  it->second.xor_state ^= xor_value;
  if (it->second.xor_state == 0) {
    entries_.erase(it);
    return Completion{root, false};
  }
  return std::nullopt;
}

std::vector<AckTracker::Completion> AckTracker::ExpireTimeouts(
    int64_t now_nanos) {
  std::vector<Completion> expired;
  while (!by_deadline_.empty() && by_deadline_.front().first <= now_nanos) {
    const auto [deadline, root] = by_deadline_.front();
    by_deadline_.pop_front();
    // Roots already completed leave stale records; skipping them here is
    // what keeps Update O(1) without deadline-index surgery. The deadline
    // check keeps a stale record from expiring a later registration of
    // the same key.
    const auto it = entries_.find(root);
    if (it != entries_.end() && it->second.deadline_nanos == deadline) {
      entries_.erase(it);
      expired.push_back({root, true});
    }
  }
  return expired;
}

int64_t AckTracker::NextDeadlineNanos() {
  // Drop stale records for completed roots as they surface, so repeated
  // calls stay O(1) amortized instead of rescanning the backlog.
  while (!by_deadline_.empty()) {
    const auto [deadline, root] = by_deadline_.front();
    const auto it = entries_.find(root);
    if (it != entries_.end() && it->second.deadline_nanos == deadline) {
      return deadline;
    }
    by_deadline_.pop_front();
  }
  return std::numeric_limits<int64_t>::max();
}

}  // namespace smgr
}  // namespace heron
