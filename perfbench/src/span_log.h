#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times from its own code. Each span
/// wraps one call from the benchmark into the engine (or one engine
/// callback into the benchmark).
enum class SpanName : uint8_t {
  kSubmit,         ///< LocalCluster::Submit.
  kColdStart,      ///< Submit start -> first tuple counted at a sink.
  kPack,           ///< IPacking::Pack.
  kKill,           ///< LocalCluster::Kill.
  kCheckpoint,     ///< TriggerCheckpoint -> coordinator reports complete.
  kSpoutEmit,      ///< Spout collector Emit.
  kSpoutAck,       ///< Spout Ack callback.
  kSinkExecute,    ///< Count bolt Execute (parent of ack).
  kSinkAck,        ///< Count bolt collector Ack.
};

const char* SpanNameString(SpanName name);

/// One recorded interval. `parent` indexes the same buffer (-1 = root);
/// spans of one tuple share `trace_id` (the spout's message identity).
struct Span {
  SpanName name = SpanName::kSubmit;
  int32_t parent = -1;
  int32_t task = -1;
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Spans of one thread of control, kept in memory until the run
/// ends. Not thread-safe: each spout, bolt and the driver own one.
class SpanBuffer {
 public:
  int32_t Begin(SpanName name, uint64_t trace_id, int32_t task,
                int32_t parent = -1) {
    spans_.push_back(Span{name, parent, task, trace_id, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> Take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
};

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part covered by child spans).
struct SelfTime {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  double mean_total_ns() const { return count ? total_ns / count : 0; }
  double mean_self_ns() const { return count ? self_ns / count : 0; }
};

/// Folds one buffer (parents index into it) into per-name self times.
/// Children are clipped to their parent's interval and their union is
/// subtracted, so overlapping children are not counted twice.
void AccumulateSelfTimes(const std::vector<Span>& spans,
                         std::map<SpanName, SelfTime>* out);

/// Appends `spans` as JSON lines ({"name":..,"trace":..,...}) to `text`;
/// `buffer` tags which buffer they came from so parent indices resolve.
void AppendSpansJson(const std::vector<Span>& spans, int buffer,
                     std::string* text);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
