#ifndef HERON_OBSERVABILITY_SEQ_RING_H_
#define HERON_OBSERVABILITY_SEQ_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace heron {
namespace observability {

/// \brief Bounded multi-writer ring of fixed-size records: the one
/// claim/stamp ring behind SpanCollector, EventJournal and SliceRing.
///
/// A record is a trivially copyable `T`, stored as atomic 64-bit words so
/// a concurrent Snapshot never races a plain field (TSan-clean). Each slot
/// carries a sequence stamp: 0 = empty, `2 * (index + 1)` = record
/// `index` published, `2 * index + 1` = record `index` being written.
///
/// Record(index i):
///  1. **Claim** the slot with a CAS from the stamp it last published to
///     the odd "writing i" value. Two writers a lap apart (i and i + cap)
///     can only meet in a slot when one stalls mid-record; the claim keeps
///     them from interleaving fields under one valid stamp. The older
///     writer loses the claim and its record is lost — it is already
///     below the retained window, so dropped()'s wraparound term counts
///     it. A newer writer that finds an older one mid-record yields until
///     that record is published, then overwrites it; the ring therefore
///     always ends up holding the newest `capacity` records.
///  2. A **release fence** after the claim: the relaxed field stores that
///     follow cannot become visible before the odd stamp.
///  3. Relaxed word stores, then the even stamp with release order.
///
/// Snapshot() reads the stamp (acquire), the words (relaxed), then issues
/// an **acquire fence** before re-reading the stamp: if any word it read
/// came from a newer writer, the fence pairs with that writer's release
/// fence and the re-read sees the newer stamp, so the torn copy is
/// skipped. Record is wait-free except for the lap-behind yield above.
template <typename T>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "SeqRing records are copied as raw words");

 public:
  explicit SeqRing(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(new Slot[capacity_]) {}

  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  /// Callable from any thread.
  void Record(const T& value) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    const uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[index % capacity_];
    const uint64_t writing = 2 * index + 1;
    uint64_t stamp = slot.stamp.load(std::memory_order_acquire);
    for (;;) {
      // (stamp - 1) / 2 is the index of the record holding (odd) or last
      // published into (even) the slot.
      if (stamp != 0 && (stamp - 1) / 2 > index) return;  // Lost the claim.
      if ((stamp & 1) != 0) {
        std::this_thread::yield();  // A lap behind is mid-record.
        stamp = slot.stamp.load(std::memory_order_acquire);
        continue;
      }
      if (slot.stamp.compare_exchange_weak(stamp, writing,
                                           std::memory_order_acquire,
                                           std::memory_order_acquire)) {
        break;
      }
    }
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t w = 0; w < kWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_relaxed);
    }
    slot.stamp.store(writing + 1, std::memory_order_release);
  }

  /// Retained records oldest-first in record order, each mapped through
  /// `fn(index, record)` (index = global record index).
  template <typename Out, typename Fn>
  std::vector<Out> Snapshot(Fn fn) const {
    const uint64_t total = next_.load(std::memory_order_acquire);
    const uint64_t retained = std::min<uint64_t>(total, capacity_);
    std::vector<Out> out;
    out.reserve(retained);
    for (uint64_t index = total - retained; index < total; ++index) {
      const Slot& slot = slots_[index % capacity_];
      const uint64_t published = 2 * (index + 1);
      if (slot.stamp.load(std::memory_order_acquire) != published) {
        continue;  // Not yet published, or overwritten.
      }
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != published) {
        continue;  // Overwritten while copying.
      }
      T value;
      std::memcpy(&value, words, sizeof(T));
      out.push_back(fn(index, value));
    }
    return out;
  }
  /// Retained records oldest-first in record order.
  std::vector<T> Snapshot() const {
    return Snapshot<T>([](uint64_t, const T& value) { return value; });
  }

  /// Records ever recorded (including overwritten ones).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_acquire);
  }
  /// Records no longer retrievable: everything below the newest
  /// `capacity` — overwritten on wrap, or lost a claim to a lap ahead.
  uint64_t dropped() const {
    const uint64_t total = next_.load(std::memory_order_acquire);
    return total > capacity_ ? total - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;

  struct Slot {
    std::atomic<uint64_t> stamp{0};
    std::atomic<uint64_t> words[kWords] = {};
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace observability
}  // namespace heron

#endif  // HERON_OBSERVABILITY_SEQ_RING_H_
