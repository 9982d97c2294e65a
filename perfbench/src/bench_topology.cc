#include "bench_topology.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "api/bolt.h"
#include "api/context.h"
#include "api/spout.h"

namespace perfbench {

using heron::Config;
using heron::api::Tuple;
using heron::api::Value;
using heron::api::Values;

Dictionary::Dictionary(size_t size, uint64_t seed) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz";
  std::unordered_set<std::string> seen;
  seen.reserve(size * 2);
  words_.reserve(size);
  uint64_t state = Mix64(seed);
  while (words_.size() < size) {
    state = Mix64(state);
    const size_t length = 4 + state % 9;
    std::string word;
    word.reserve(length);
    uint64_t letters = Mix64(state ^ 0x5851F42D4C957F2DULL);
    for (size_t c = 0; c < length; ++c) {
      if (c == 12) letters = Mix64(letters);
      word.push_back(kAlphabet[letters % 26]);
      letters /= 26;
    }
    if (seen.insert(word).second) words_.push_back(std::move(word));
  }
}

WordCounts Tally(const Dictionary& dict, uint64_t seed,
                 const std::vector<uint64_t>& cursors) {
  WordCounts tally;
  tally.reserve(dict.size());
  for (size_t i = 0; i < cursors.size(); ++i) {
    const KeyStream stream(seed, static_cast<int>(i), dict.size());
    for (uint64_t seq = 0; seq < cursors[i]; ++seq) {
      ++tally[dict.at(stream.At(seq))];
    }
  }
  return tally;
}

uint64_t RunShared::TotalEmitted() const {
  uint64_t n = 0;
  for (const Counter& c : emitted) n += c.Get();
  return n;
}

uint64_t RunShared::TotalAcked() const {
  uint64_t n = 0;
  for (const Counter& c : acked) n += c.Get();
  return n;
}

uint64_t RunShared::TotalCounted() const {
  uint64_t n = 0;
  for (const Counter& c : counted) n += c.Get();
  return n;
}

namespace {

bool InWindow(const RunShared& s, int64_t stamp) {
  return stamp >= s.window_start_ns.load(std::memory_order_relaxed) &&
         stamp < s.window_end_ns.load(std::memory_order_relaxed);
}

/// Traced tuples carry their id as a third field: spout index in the top
/// 16 bits, sequence number below.
uint64_t TraceId(int spout_index, uint64_t seq) {
  return (static_cast<uint64_t>(spout_index) << 48) | seq;
}

/// Most words one NextTuple sends when the generator has fallen behind,
/// so a late spout still returns to its ack processing.
constexpr uint64_t kMaxBurst = 64;

/// \brief Replays one KeyStream open loop: every word has a scheduled send
/// time; a late generator catches up in bursts and its lateness is
/// recorded.
class BenchSpout final : public heron::api::IStatefulSpout {
 public:
  explicit BenchSpout(std::shared_ptr<RunShared> shared)
      : s_(std::move(shared)) {}

  void Open(const Config& config, heron::api::TopologyContext* context,
            heron::api::ISpoutOutputCollector* collector) override {
    collector_ = collector;
    out_.index = context->component_index();
    task_ = context->task_id();
    stream_ = KeyStream(s_->seed, out_.index, s_->dict->size());
    period_ns_ = 1e9 / s_->rate_per_spout;
  }

  void NextTuple() override {
    if (s_->stop.load(std::memory_order_relaxed)) return;
    const int64_t now = NowNs();
    if (epoch_ns_ == 0) epoch_ns_ = now;
    const uint64_t due =
        static_cast<uint64_t>(static_cast<double>(now - epoch_ns_) /
                              period_ns_) + 1;
    if (due <= next_seq_) return;
    const uint64_t n = std::min(kMaxBurst, due - next_seq_);
    for (uint64_t i = 0; i < n; ++i) EmitOne();
  }

  void Ack(int64_t message_id) override {
    const uint64_t seq = static_cast<uint64_t>(message_id - 1);
    int32_t span = -1;
    if (s_->traced && seq % s_->span_every == 0) {
      span = spans_.Begin(SpanName::kSpoutAck, TraceId(out_.index, seq), task_);
    }
    const uint64_t before = out_.ledger.acked_once();
    out_.ledger.OnAck(seq);
    if (out_.ledger.acked_once() != before) s_->acked[out_.index].Bump();
    const int64_t due = Scheduled(seq);
    if (seq % s_->sample_every == 0 && InWindow(*s_, due)) {
      out_.ack_latency_ns.push_back(NowNs() - due);
    }
    if (span >= 0) spans_.End(span);
  }

  void Fail(int64_t message_id) override {
    out_.ledger.OnFail(static_cast<uint64_t>(message_id - 1));
  }

  void Close() override {
    out_.spans = spans_.Take();
    std::lock_guard<std::mutex> lock(s_->mu);
    s_->spouts.push_back(std::move(out_));
  }

  void SnapshotState(std::string* out) override {
    EncodeSpoutSnapshot(next_seq_, out);
  }
  void RestoreState(std::string_view state) override {
    uint64_t cursor = 0;
    if (DecodeSpoutSnapshot(state, &cursor)) next_seq_ = cursor;
  }

 private:
  int64_t Scheduled(uint64_t seq) const {
    return epoch_ns_ + static_cast<int64_t>(static_cast<double>(seq) *
                                            period_ns_);
  }

  void EmitOne() {
    const uint64_t seq = next_seq_++;
    const std::string& word = s_->dict->at(stream_.At(seq));
    const int64_t now = NowNs();
    const int64_t due = Scheduled(seq);
    if (seq % s_->sample_every == 0 && InWindow(*s_, due)) {
      out_.lateness_ns.push_back(now - due);
    }
    Values values{Value(word), Value(now)};
    const uint64_t trace = TraceId(out_.index, seq);
    if (s_->traced) values.emplace_back(static_cast<int64_t>(trace));
    std::optional<int64_t> message_id;
    if (s_->acking) {
      message_id = static_cast<int64_t>(seq + 1);
      out_.ledger.OnEmit(seq);
    }
    int32_t span = -1;
    if (s_->traced && seq % s_->span_every == 0) {
      span = spans_.Begin(SpanName::kSpoutEmit, trace, task_);
    }
    collector_->Emit(std::move(values), message_id);
    if (span >= 0) spans_.End(span);
    s_->emitted[out_.index].Bump();
  }

  std::shared_ptr<RunShared> s_;
  heron::api::ISpoutOutputCollector* collector_ = nullptr;
  SpoutOutcome out_;
  SpanBuffer spans_;
  int task_ = -1;
  KeyStream stream_{0, 0, 1};
  double period_ns_ = 0;
  int64_t epoch_ns_ = 0;
  uint64_t next_seq_ = 0;
};

/// \brief The counting sink: tallies words, samples stamp -> Execute
/// latency, and acks when acking is on. Its table is its checkpoint state.
class CountSink final : public heron::api::IStatefulBolt {
 public:
  explicit CountSink(std::shared_ptr<RunShared> shared)
      : s_(std::move(shared)) {}

  void Prepare(const Config& config, heron::api::TopologyContext* context,
               heron::api::IBoltOutputCollector* collector) override {
    collector_ = collector;
    task_ = context->task_id();
    out_.index = context->component_index();
    out_.counts.reserve(2 * s_->dict->size() /
                        static_cast<size_t>(context->parallelism()));
  }

  void Execute(const Tuple& input) override {
    // Traced tuples carry their id in field 2.
    const uint64_t trace =
        s_->traced ? static_cast<uint64_t>(input.GetInt64(2)) : 0;
    const bool spanned =
        s_->traced && (trace & ((uint64_t{1} << 48) - 1)) % s_->span_every == 0;
    const int32_t root =
        spanned ? spans_.Begin(SpanName::kSinkExecute, trace, task_) : -1;
    ++out_.counts[input.GetString(0)];
    s_->counted[out_.index].Bump();
    if (s_->first_count_ns.load(std::memory_order_relaxed) == 0) {
      int64_t expected = 0;
      s_->first_count_ns.compare_exchange_strong(expected, NowNs());
    }
    if (++executed_ % s_->sample_every == 0) {
      const int64_t stamp = input.GetInt64(1);
      if (InWindow(*s_, stamp)) out_.latency_ns.push_back(NowNs() - stamp);
    }
    if (s_->acking) {
      const int32_t ack =
          spanned ? spans_.Begin(SpanName::kSinkAck, trace, task_, root) : -1;
      collector_->Ack(input);
      if (ack >= 0) spans_.End(ack);
    }
    if (root >= 0) spans_.End(root);
  }

  void Cleanup() override {
    out_.spans = spans_.Take();
    std::lock_guard<std::mutex> lock(s_->mu);
    s_->sinks.push_back(std::move(out_));
  }

  void SnapshotState(std::string* out) override {
    EncodeSinkSnapshot(out_.counts, out);
  }
  void RestoreState(std::string_view state) override {
    uint64_t total = 0;
    out_.counts.clear();
    DecodeSinkSnapshot(state, &out_.counts, &total);
  }

 private:
  std::shared_ptr<RunShared> s_;
  heron::api::IBoltOutputCollector* collector_ = nullptr;
  SinkOutcome out_;
  SpanBuffer spans_;
  int task_ = -1;
  uint64_t executed_ = 0;
};

}  // namespace

std::shared_ptr<const heron::api::Topology> BuildTopology(
    const std::string& name, int spouts, int sinks,
    std::shared_ptr<RunShared> shared, const Config& config) {
  // Operators index the live counters by component index.
  if (spouts > kMaxSpouts || sinks > kMaxSinks) return nullptr;
  heron::api::TopologyBuilder builder(name);
  *builder.mutable_config() = config;
  builder
      .SetSpout(
          "word", [shared] { return std::make_unique<BenchSpout>(shared); },
          spouts)
      .OutputFields(shared->traced ? heron::api::Fields{"word", "stamp", "id"}
                                   : heron::api::Fields{"word", "stamp"});
  builder
      .SetBolt(
          "count", [shared] { return std::make_unique<CountSink>(shared); },
          sinks)
      .FieldsGrouping("word", {"word"});
  auto topology = builder.Build();
  if (!topology.ok()) return nullptr;
  return *topology;
}

}  // namespace perfbench
