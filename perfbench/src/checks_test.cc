// Feeds the output checks corrupted results and expects each corruption
// to be reported as a failure (and the clean results to pass). Exits
// non-zero on the first expectation that does not hold.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_topology.h"
#include "checks.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

/// Sinks as a fields grouping would fill them: word i at sink i % n.
std::vector<WordCounts> Route(const WordCounts& tally, int sinks) {
  std::vector<WordCounts> out(static_cast<size_t>(sinks));
  size_t i = 0;
  for (const auto& [word, n] : tally) out[i++ % out.size()][word] = n;
  return out;
}

std::vector<const WordCounts*> Views(const std::vector<WordCounts>& sinks) {
  std::vector<const WordCounts*> v;
  for (const WordCounts& s : sinks) v.push_back(&s);
  return v;
}

}  // namespace

int main() {
  const Dictionary dict(2000, 7);
  const std::vector<uint64_t> cursors = {5000, 3000};
  const WordCounts tally = Tally(dict, 7, cursors);
  {
    const auto sinks = Route(tally, 4);
    Expect(CheckCounts(tally, Views(sinks)).ok(), "clean counts pass");
  }
  {
    auto sinks = Route(tally, 4);
    auto it = sinks[1].begin();
    --it->second;
    const CountReport r = CheckCounts(tally, Views(sinks));
    Expect(!r.ok() && r.missing == 1, "a dropped word fails");
  }
  {
    auto sinks = Route(tally, 4);
    ++sinks[2].begin()->second;
    const CountReport r = CheckCounts(tally, Views(sinks));
    Expect(!r.ok() && r.surplus == 1, "a duplicated word fails");
  }
  {
    auto sinks = Route(tally, 4);
    const std::string word = sinks[0].begin()->first;
    const uint64_t n = sinks[0].begin()->second;
    sinks[0][word] = n - 1;
    sinks[3][word] = 1;
    const CountReport r = CheckCounts(tally, Views(sinks));
    Expect(!r.ok() && r.split_words == 1,
           "a word counted at two sinks fails even when the sum is right");
  }
  {
    auto sinks = Route(tally, 4);
    sinks[0]["not-a-sent-word"] = 1;
    Expect(!CheckCounts(tally, Views(sinks)).ok(), "an unknown word fails");
  }
  {
    // Snapshots round-trip and a consistent cut passes; a cut whose sink
    // totals disagree with the spout cursors fails.
    const auto sinks = Route(tally, 3);
    std::vector<uint64_t> totals;
    for (const WordCounts& s : sinks) {
      std::string bytes;
      EncodeSinkSnapshot(s, &bytes);
      WordCounts decoded;
      uint64_t total = 0;
      Expect(DecodeSinkSnapshot(bytes, &decoded, &total) && decoded == s,
             "sink snapshot round-trips");
      totals.push_back(total);
    }
    std::vector<uint64_t> spout_cursors;
    for (uint64_t c : cursors) {
      std::string bytes;
      EncodeSpoutSnapshot(c, &bytes);
      uint64_t decoded = 0;
      Expect(DecodeSpoutSnapshot(bytes, &decoded) && decoded == c,
             "spout snapshot round-trips");
      spout_cursors.push_back(decoded);
    }
    Expect(CheckCut(spout_cursors, totals).ok(), "a consistent cut passes");
    totals[1] += 1;
    Expect(!CheckCut(spout_cursors, totals).ok(),
           "a cut whose sums disagree fails");
    std::string truncated;
    EncodeSinkSnapshot(sinks[0], &truncated);
    truncated.pop_back();
    uint64_t total = 0;
    Expect(!DecodeSinkSnapshot(truncated, nullptr, &total),
           "a truncated sink snapshot is rejected");
  }
  {
    AckLedger ledger;
    for (uint64_t seq = 0; seq < 100; ++seq) ledger.OnEmit(seq);
    for (uint64_t seq = 0; seq < 100; ++seq) ledger.OnAck(seq);
    Expect(CheckAcks(ledger).ok(), "every id acked once passes");
    ledger.OnAck(42);
    const AckReport r = CheckAcks(ledger);
    Expect(!r.ok() && r.dup_acks == 1, "a duplicate ack fails");
  }
  {
    AckLedger ledger;
    for (uint64_t seq = 0; seq < 100; ++seq) ledger.OnEmit(seq);
    for (uint64_t seq = 1; seq < 100; ++seq) ledger.OnAck(seq);
    Expect(CheckAcks(ledger).never_acked == 1, "a never-acked id fails");
    ledger.OnFail(0);
    Expect(CheckAcks(ledger).fails == 1, "a failed tree fails");
    ledger.OnAck(500);
    Expect(CheckAcks(ledger).unknown_acks == 1, "an ack for an unsent id fails");
  }
  {
    // The tally is a pure function of (seed, cursors).
    Expect(Tally(dict, 7, cursors) == tally, "the tally is reproducible");
    Expect(!(Tally(dict, 8, cursors) == tally), "another seed gives other input");
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
