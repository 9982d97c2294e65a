#include "observability/journal.h"

#include <algorithm>
#include <cstring>

namespace heron {
namespace observability {

const char* JournalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kBackpressureStart:
      return "backpressure_start";
    case JournalEventType::kBackpressureStop:
      return "backpressure_stop";
    case JournalEventType::kRemoteThrottleOn:
      return "remote_throttle_on";
    case JournalEventType::kRemoteThrottleOff:
      return "remote_throttle_off";
    case JournalEventType::kCheckpointTriggered:
      return "checkpoint_triggered";
    case JournalEventType::kCheckpointComplete:
      return "checkpoint_complete";
    case JournalEventType::kCheckpointAborted:
      return "checkpoint_aborted";
    case JournalEventType::kCheckpointRestore:
      return "checkpoint_restore";
    case JournalEventType::kScalingDecision:
      return "scaling_decision";
    case JournalEventType::kContainerStart:
      return "container_start";
    case JournalEventType::kContainerDead:
      return "container_dead";
    case JournalEventType::kContainerRestored:
      return "container_restored";
    case JournalEventType::kPlanSwap:
      return "plan_swap";
    case JournalEventType::kChaosKill:
      return "chaos_kill";
  }
  return "unknown";
}

void EventJournal::Record(JournalEventType type, int32_t origin, int32_t task,
                          int64_t at_nanos, int64_t arg0, int64_t arg1,
                          const char* detail) {
  Packed packed{at_nanos, arg0, arg1, origin, task, {}, type};
  if (detail != nullptr) {
    // NUL-padded, so unpacking stops at the first zero byte.
    std::memcpy(packed.detail, detail,
                std::min(std::strlen(detail), kJournalDetailBytes));
  }
  ring_.Record(packed);
}

std::vector<JournalEvent> EventJournal::Snapshot() const {
  return ring_.Snapshot<JournalEvent>([](uint64_t index,
                                         const Packed& packed) {
    JournalEvent e;
    e.seq = index;
    e.type = packed.type;
    e.origin = packed.origin;
    e.task = packed.task;
    e.at_nanos = packed.at_nanos;
    e.arg0 = packed.arg0;
    e.arg1 = packed.arg1;
    e.detail.assign(packed.detail,
                    std::find(packed.detail,
                              packed.detail + kJournalDetailBytes, '\0'));
    return e;
  });
}

}  // namespace observability
}  // namespace heron
