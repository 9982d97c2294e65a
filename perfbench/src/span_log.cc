#include "span_log.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSubmit: return "submit";
    case SpanName::kColdStart: return "cold_start";
    case SpanName::kPack: return "pack";
    case SpanName::kKill: return "kill";
    case SpanName::kCheckpoint: return "checkpoint";
    case SpanName::kSpoutEmit: return "spout.emit";
    case SpanName::kSpoutAck: return "spout.ack";
    case SpanName::kSinkExecute: return "sink.execute";
    case SpanName::kSinkAck: return "sink.ack";
  }
  return "unknown";
}

void AccumulateSelfTimes(const std::vector<Span>& spans,
                         std::map<SpanName, SelfTime>* out) {
  // Children per parent, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t duration = std::max<int64_t>(s.end_ns - s.start_ns, 0);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    SelfTime& t = (*out)[s.name];
    ++t.count;
    t.total_ns += static_cast<double>(duration);
    t.self_ns += static_cast<double>(std::max<int64_t>(duration - covered, 0));
  }
}

void AppendSpansJson(const std::vector<Span>& spans, int buffer,
                     std::string* text) {
  char line[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "{\"buffer\":%d,\"index\":%zu,\"name\":\"%s\",\"parent\":%d,"
                  "\"task\":%d,\"trace\":%llu,\"start_ns\":%lld,"
                  "\"end_ns\":%lld}\n",
                  buffer, i, SpanNameString(s.name), s.parent, s.task,
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    text->append(line);
  }
}

}  // namespace perfbench
