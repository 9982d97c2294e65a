#include "checks.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace perfbench {

void AckLedger::OnEmit(uint64_t seq) {
  if (seq >= emitted_) emitted_ = seq + 1;
  const size_t words = static_cast<size_t>(emitted_ / 64 + 1);
  if (bits_.size() < words) bits_.resize(std::max(words, bits_.size() * 2));
}

void AckLedger::OnAck(uint64_t seq) {
  if (seq >= emitted_) {
    ++unknown_acks_;
    return;
  }
  uint64_t& word = bits_[static_cast<size_t>(seq / 64)];
  const uint64_t bit = uint64_t{1} << (seq % 64);
  if ((word & bit) != 0) {
    ++dup_acks_;
    return;
  }
  word |= bit;
  ++acked_once_;
}

AckReport CheckAcks(const AckLedger& ledger) {
  AckReport r;
  r.never_acked = ledger.emitted() - ledger.acked_once();
  r.dup_acks = ledger.dup_acks();
  r.unknown_acks = ledger.unknown_acks();
  r.fails = ledger.fails();
  return r;
}

CountReport CheckCounts(const WordCounts& tally,
                        const std::vector<const WordCounts*>& sinks) {
  CountReport r;
  for (const auto& [word, n] : tally) r.expected_total += n;
  WordCounts merged;
  merged.reserve(tally.size());
  for (const WordCounts* sink : sinks) {
    for (const auto& [word, n] : *sink) {
      if (n == 0) continue;
      r.counted_total += n;
      auto [it, fresh] = merged.emplace(word, n);
      if (!fresh) {
        ++r.split_words;
        it->second += n;
      }
    }
  }
  for (const auto& [word, n] : merged) {
    const auto it = tally.find(word);
    if (it == tally.end()) {
      ++r.unknown_words;
      r.surplus += n;
    } else if (n > it->second) {
      r.surplus += n - it->second;
    } else {
      r.missing += it->second - n;
    }
  }
  for (const auto& [word, n] : tally) {
    if (n > 0 && merged.find(word) == merged.end()) r.missing += n;
  }
  return r;
}

CutReport CheckCut(const std::vector<uint64_t>& spout_cursors,
                   const std::vector<uint64_t>& sink_totals) {
  CutReport r;
  for (uint64_t c : spout_cursors) r.spout_cursors += c;
  for (uint64_t t : sink_totals) r.sink_totals += t;
  return r;
}

namespace {

void PutU64(uint64_t v, std::string* out) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void PutU32(uint32_t v, std::string* out) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

}  // namespace

void EncodeSpoutSnapshot(uint64_t cursor, std::string* out) {
  PutU64(cursor, out);
}

bool DecodeSpoutSnapshot(std::string_view bytes, uint64_t* cursor) {
  if (bytes.size() != 8) return false;
  std::memcpy(cursor, bytes.data(), 8);
  return true;
}

void EncodeSinkSnapshot(const WordCounts& counts, std::string* out) {
  std::vector<std::pair<std::string_view, uint64_t>> sorted;
  sorted.reserve(counts.size());
  for (const auto& [word, n] : counts) sorted.emplace_back(word, n);
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [word, n] : sorted) {
    PutU32(static_cast<uint32_t>(word.size()), out);
    out->append(word);
    PutU64(n, out);
  }
}

bool DecodeSinkSnapshot(std::string_view bytes, WordCounts* counts,
                        uint64_t* total) {
  *total = 0;
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 4) return false;
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    pos += 4;
    if (bytes.size() - pos < static_cast<size_t>(len) + 8) return false;
    const std::string_view word = bytes.substr(pos, len);
    pos += len;
    uint64_t n = 0;
    std::memcpy(&n, bytes.data() + pos, 8);
    pos += 8;
    *total += n;
    if (counts != nullptr) (*counts)[std::string(word)] = n;
  }
  return true;
}

}  // namespace perfbench
