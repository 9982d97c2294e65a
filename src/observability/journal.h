#ifndef HERON_OBSERVABILITY_JOURNAL_H_
#define HERON_OBSERVABILITY_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "observability/seq_ring.h"

namespace heron {
namespace observability {

/// \brief The control-plane transitions the flight recorder captures.
///
/// Everything an operator asks "why did the engine do that?" about:
/// backpressure episodes, checkpoint barriers, scaling verdicts, container
/// lifecycle and plan swaps. Data-path tuples never land here — they have
/// their own sampled span rings (trace.h); the journal is always-on
/// precisely because control-plane events are rare enough to record all
/// of them.
enum class JournalEventType : uint8_t {
  kBackpressureStart = 0,   ///< Local SMGR tripped its high watermark.
  kBackpressureStop = 1,    ///< Local episode ended (arg0 = duration ns).
  kRemoteThrottleOn = 2,    ///< Peer SMGR announced start (arg0 = initiator).
  kRemoteThrottleOff = 3,   ///< Peer SMGR announced stop (arg0 = initiator).
  kCheckpointTriggered = 4, ///< Coordinator opened a barrier (arg0 = id).
  kCheckpointComplete = 5,  ///< All tasks snapshotted (arg0 = id).
  kCheckpointAborted = 6,   ///< In-flight checkpoint abandoned (arg0 = id).
  kCheckpointRestore = 7,   ///< Global rollback began (arg0 = id).
  kScalingDecision = 8,     ///< Engine verdict (detail = component,
                            ///< arg0 = from parallelism, arg1 = to).
  kContainerStart = 9,      ///< Container (re)started.
  kContainerDead = 10,      ///< Liveness monitor declared death.
  kContainerRestored = 11,  ///< Recovery brought the container back.
  kPlanSwap = 12,           ///< New physical plan installed (detail = why).
  kChaosKill = 13,          ///< Fault injection pulled the trigger.
};

inline constexpr size_t kNumJournalEventTypes = 14;

/// Short stable name for dumps and JSON ("backpressure_start", ...).
const char* JournalEventTypeName(JournalEventType type);

/// Fixed payload budget for the human-readable detail tag. Anything
/// longer is truncated at Record() time — the journal never allocates.
inline constexpr size_t kJournalDetailBytes = 16;

/// \brief One recorded control-plane event.
struct JournalEvent {
  /// Global record index within its ring — a per-ring monotonic sequence
  /// that survives wraparound (it keeps counting past capacity).
  uint64_t seq = 0;
  JournalEventType type = JournalEventType::kBackpressureStart;
  /// Originating container id; -1 for control-plane components (TMaster,
  /// coordinator, scaling engine, cluster runtime).
  int32_t origin = -1;
  /// Task id when the event is task-scoped; -1 otherwise.
  int32_t task = -1;
  int64_t at_nanos = 0;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  /// Short tag (component name, reason); at most kJournalDetailBytes.
  std::string detail;

  bool operator==(const JournalEvent& o) const {
    return seq == o.seq && type == o.type && origin == o.origin &&
           task == o.task && at_nanos == o.at_nanos && arg0 == o.arg0 &&
           arg1 == o.arg1 && detail == o.detail;
  }
};

/// \brief Bounded flight recorder: one ring per container plus one for
/// the control plane, a SeqRing (seq_ring.h) of packed events.
///
/// Record() claims a slot and publishes it with no lock and no allocation,
/// so it is safe from any thread including inside other components'
/// critical sections. On wrap the oldest events are overwritten and
/// counted in dropped().
///
/// Snapshot() returns the retained events oldest-first; slots caught
/// mid-overwrite are detected through the stamp and skipped, so concurrent
/// Record/Snapshot is TSan-clean (every shared word is atomic).
class EventJournal {
 public:
  explicit EventJournal(size_t capacity) : ring_(capacity) {}

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Callable from any thread. detail may be nullptr; it is truncated to
  /// kJournalDetailBytes.
  void Record(JournalEventType type, int32_t origin, int32_t task,
              int64_t at_nanos, int64_t arg0, int64_t arg1,
              const char* detail = nullptr);

  /// Retained events oldest-first in record order.
  std::vector<JournalEvent> Snapshot() const;

  /// Events ever recorded (including overwritten ones).
  uint64_t total_recorded() const { return ring_.total_recorded(); }
  /// Events lost to ring wraparound.
  uint64_t dropped() const { return ring_.dropped(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  /// JournalEvent without its index and with the detail tag inline, so
  /// the record is trivially copyable.
  struct Packed {
    int64_t at_nanos;
    int64_t arg0;
    int64_t arg1;
    int32_t origin;
    int32_t task;
    char detail[kJournalDetailBytes];
    JournalEventType type;
  };

  SeqRing<Packed> ring_;
};

/// \brief One scheduler slice: tasklet `tasklet` ran on worker
/// `worker` from `start_nanos` for `dur_nanos`. Only slices that made
/// progress are recorded — idle passes would drown the ring.
struct SchedSlice {
  int32_t worker = -1;
  int32_t tasklet = -1;  ///< Pool-assigned ordinal; names live in the pool.
  int64_t start_nanos = 0;
  int64_t dur_nanos = 0;

  bool operator==(const SchedSlice& o) const {
    return worker == o.worker && tasklet == o.tasklet &&
           start_nanos == o.start_nanos && dur_nanos == o.dur_nanos;
  }
};

/// \brief Bounded ring of scheduler slices, a SeqRing (seq_ring.h). One
/// per TaskletPool; workers record concurrently, the timeline exporter
/// snapshots live.
class SliceRing {
 public:
  explicit SliceRing(size_t capacity) : ring_(capacity) {}

  SliceRing(const SliceRing&) = delete;
  SliceRing& operator=(const SliceRing&) = delete;

  /// Callable from any pool worker.
  void Record(int32_t worker, int32_t tasklet, int64_t start_nanos,
              int64_t dur_nanos) {
    ring_.Record(SchedSlice{worker, tasklet, start_nanos, dur_nanos});
  }

  /// Retained slices oldest-first in record order.
  std::vector<SchedSlice> Snapshot() const { return ring_.Snapshot(); }

  uint64_t total_recorded() const { return ring_.total_recorded(); }
  uint64_t dropped() const { return ring_.dropped(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  SeqRing<SchedSlice> ring_;
};

}  // namespace observability
}  // namespace heron

#endif  // HERON_OBSERVABILITY_JOURNAL_H_
