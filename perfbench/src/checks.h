#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// word -> times counted.
using WordCounts = std::unordered_map<std::string, uint64_t>;

/// \brief A spout's record of its own message ids: one bit per emitted
/// sequence number, set by the first Ack. Kept by the benchmark's spout,
/// apart from the engine's ack tracker, so a lost, doubled or failed tree
/// shows even when the engine's own counters agree with themselves.
class AckLedger {
 public:
  void OnEmit(uint64_t seq);
  void OnAck(uint64_t seq);
  void OnFail(uint64_t seq) {
    (void)seq;
    ++fails_;
  }

  uint64_t emitted() const { return emitted_; }
  uint64_t acked_once() const { return acked_once_; }
  uint64_t dup_acks() const { return dup_acks_; }
  uint64_t unknown_acks() const { return unknown_acks_; }
  uint64_t fails() const { return fails_; }

 private:
  std::vector<uint64_t> bits_;
  uint64_t emitted_ = 0;
  uint64_t acked_once_ = 0;
  uint64_t dup_acks_ = 0;
  uint64_t unknown_acks_ = 0;
  uint64_t fails_ = 0;
};

struct AckReport {
  uint64_t never_acked = 0;
  uint64_t dup_acks = 0;
  uint64_t unknown_acks = 0;
  uint64_t fails = 0;
  /// Message ids that were not acked exactly once.
  uint64_t bad() const { return never_acked + dup_acks + unknown_acks + fails; }
  bool ok() const { return bad() == 0; }
};

/// Every emitted id acked exactly once, none failed or timed out.
AckReport CheckAcks(const AckLedger& ledger);

struct CountReport {
  uint64_t expected_total = 0;   ///< Words the tally saw.
  uint64_t counted_total = 0;    ///< Words the sinks counted.
  uint64_t missing = 0;          ///< Sum of shortfalls over words.
  uint64_t surplus = 0;          ///< Sum of excesses over words.
  uint64_t unknown_words = 0;    ///< Words counted that were never sent.
  uint64_t split_words = 0;      ///< Words counted at more than one sink.
  bool ok() const {
    return missing == 0 && surplus == 0 && unknown_words == 0 &&
           split_words == 0;
  }
};

/// Per-word counts at the sinks equal the independent tally, and the
/// fields grouping sent each word to exactly one sink.
CountReport CheckCounts(const WordCounts& tally,
                        const std::vector<const WordCounts*>& sinks);

struct CutReport {
  uint64_t spout_cursors = 0;  ///< Words emitted before the barrier.
  uint64_t sink_totals = 0;    ///< Words counted before the barrier.
  bool ok() const { return spout_cursors == sink_totals; }
};

/// A checkpoint is a consistent cut when the count-bolt snapshot totals
/// sum to the spout snapshot cursors.
CutReport CheckCut(const std::vector<uint64_t>& spout_cursors,
                   const std::vector<uint64_t>& sink_totals);

// Snapshot encodings of the benchmark's own operators. The sink encodes
// its table sorted by word so equal state gives equal bytes.
void EncodeSpoutSnapshot(uint64_t cursor, std::string* out);
bool DecodeSpoutSnapshot(std::string_view bytes, uint64_t* cursor);
void EncodeSinkSnapshot(const WordCounts& counts, std::string* out);
/// `counts` may be null when only the total is wanted.
bool DecodeSinkSnapshot(std::string_view bytes, WordCounts* counts,
                        uint64_t* total);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
