#ifndef PERFBENCH_BENCH_TOPOLOGY_H_
#define PERFBENCH_BENCH_TOPOLOGY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/topology.h"
#include "checks.h"
#include "span_log.h"

namespace perfbench {

/// splitmix64 finalizer: the benchmark's only source of randomness.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// \brief `size` distinct pseudo-words of 4-12 lowercase letters, drawn
/// from `seed` (the paper's 450K-word list is not published).
class Dictionary {
 public:
  Dictionary(size_t size, uint64_t seed);
  const std::string& at(size_t i) const { return words_[i]; }
  size_t size() const { return words_.size(); }

 private:
  std::vector<std::string> words_;
};

/// \brief The input of one spout: the dictionary index of its seq-th word,
/// uniform over the dictionary. A pure function of (seed, spout, seq), so
/// the reference tally regenerates any prefix without the engine.
class KeyStream {
 public:
  KeyStream(uint64_t seed, int spout_index, size_t dict_size)
      : key_(Mix64(seed * 1000003ULL + static_cast<uint64_t>(spout_index))),
        n_(dict_size) {}
  size_t At(uint64_t seq) const {
    return static_cast<size_t>(Mix64(key_ ^ (seq * 0xD6E8FEB86659FD93ULL)) %
                               n_);
  }

 private:
  uint64_t key_;
  size_t n_;
};

/// Single-threaded reference WordCount over the first `cursors[i]` words
/// of spout i's stream.
WordCounts Tally(const Dictionary& dict, uint64_t seed,
                 const std::vector<uint64_t>& cursors);

inline constexpr int kMaxSpouts = 8;
inline constexpr int kMaxSinks = 16;

/// What a spout hands back when the topology is killed.
struct SpoutOutcome {
  int index = 0;
  AckLedger ledger;
  /// Scheduled send -> Ack, for sampled ids due in the window.
  std::vector<int64_t> ack_latency_ns;
  /// Actual send - scheduled send, for sampled words due in the window.
  std::vector<int64_t> lateness_ns;
  std::vector<Span> spans;
};

/// What a count bolt hands back when the topology is killed.
struct SinkOutcome {
  int index = 0;
  WordCounts counts;
  /// Generator stamp -> Execute, for sampled tuples stamped in the window.
  std::vector<int64_t> latency_ns;
  std::vector<Span> spans;
};

/// \brief State shared between the driver and the operators of one
/// submission. The factories capture it; operators publish their outcome
/// into it from Close/Cleanup, after their engine thread has stopped.
struct RunShared {
  // -- Inputs, fixed before Submit. --
  const Dictionary* dict = nullptr;
  uint64_t seed = 0;
  bool acking = true;
  /// Words/s offered by each spout, on a fixed schedule.
  double rate_per_spout = 0;
  /// Spouts time every n-th id from scheduled send to Ack and record how
  /// late it was sent; sinks time every n-th tuple from its stamp to
  /// Execute.
  uint64_t sample_every = 8;
  /// Traced run: tuples carry their id, and every `span_every`-th tuple
  /// records spans at each operator.
  bool traced = false;
  uint64_t span_every = 256;

  // -- Control, written by the driver. --
  std::atomic<bool> stop{false};
  /// Latency samples are kept for words stamped in [start, end).
  std::atomic<int64_t> window_start_ns{INT64_MAX};
  std::atomic<int64_t> window_end_ns{INT64_MAX};
  /// Time of the first Execute at any sink (0 until then).
  std::atomic<int64_t> first_count_ns{0};

  // -- Live counters, one writer each. --
  struct alignas(64) Counter {
    std::atomic<uint64_t> v{0};
    void Bump() { v.store(v.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed); }
    uint64_t Get() const { return v.load(std::memory_order_relaxed); }
  };
  std::array<Counter, kMaxSpouts> emitted;
  std::array<Counter, kMaxSpouts> acked;  ///< Distinct ids acked.
  std::array<Counter, kMaxSinks> counted;

  uint64_t TotalEmitted() const;
  uint64_t TotalAcked() const;
  uint64_t TotalCounted() const;

  // -- Outcomes, published at Close/Cleanup. --
  std::mutex mu;
  std::vector<SpoutOutcome> spouts;
  std::vector<SinkOutcome> sinks;
};

/// Builds WordCount: `spouts` "word" spouts, fields-grouped on the word
/// into `sinks` "count" bolts.
std::shared_ptr<const heron::api::Topology> BuildTopology(
    const std::string& name, int spouts, int sinks,
    std::shared_ptr<RunShared> shared, const heron::Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_TOPOLOGY_H_
