// Unit tests for the flight recorder: the SeqRing every ring is built on
// (torn-record detection with writers laps apart on a tiny ring), the
// EventJournal ring (ordering, wraparound accounting, detail truncation,
// concurrent Record/Snapshot — the TSan lane runs these), the SliceRing,
// the journal snapshot digest and the Chrome trace_event timeline export.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "observability/journal.h"
#include "observability/json.h"
#include "observability/seq_ring.h"
#include "observability/snapshot.h"
#include "observability/trace_export.h"

namespace heron {
namespace observability {
namespace {

// -- SeqRing ---------------------------------------------------------------

/// Every field derives from `seed`, so a record mixing two writes is
/// detectable.
struct Stamped {
  uint64_t seed;
  uint64_t mixed;
  int32_t low;
  uint8_t tag;

  static Stamped From(uint64_t seed) {
    return Stamped{seed, seed * 0x9E3779B97F4A7C15ull ^ 0xA5A5A5A5u,
                   static_cast<int32_t>(seed & 0x7FFFFFFF),
                   static_cast<uint8_t>(seed % 251)};
  }
  bool SelfConsistent() const {
    const Stamped want = From(seed);
    return mixed == want.mixed && low == want.low && tag == want.tag;
  }
};

// A 6-slot ring with more writers than most hosts have cores, released
// together: a writer preempted mid-record meets writers a lap ahead in its
// slot, which is where a ring without a claim interleaves two records'
// fields under one valid stamp. Every snapshotted record must be whole and
// in record order, and the accounting must add up.
using Indexed = std::pair<uint64_t, Stamped>;

std::vector<Indexed> IndexedSnapshot(const SeqRing<Stamped>& ring) {
  return ring.Snapshot<Indexed>(
      [](uint64_t index, const Stamped& value) { return Indexed{index, value}; });
}

TEST(SeqRingTest, WritersLapsApartNeverTearARecord) {
  constexpr int kWriters = 8;
  constexpr uint64_t kPerWriter = 20000;
  SeqRing<Stamped> ring(6);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<Indexed> entries = IndexedSnapshot(ring);
      ASSERT_LE(entries.size(), ring.capacity());
      for (size_t i = 0; i < entries.size(); ++i) {
        ASSERT_TRUE(entries[i].second.SelfConsistent())
            << "torn record at index " << entries[i].first;
        if (i > 0) {
          ASSERT_LT(entries[i - 1].first, entries[i].first);
        }
      }
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, &go, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Record(Stamped::From((static_cast<uint64_t>(w) << 40) | i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots.load(), 0u);

  // Quiescent: the newest `capacity` records are all retained, and every
  // other record is accounted for as dropped.
  const std::vector<Indexed> entries = IndexedSnapshot(ring);
  EXPECT_EQ(ring.total_recorded(), kWriters * kPerWriter);
  EXPECT_EQ(entries.size(), ring.capacity());
  EXPECT_EQ(entries.size() + ring.dropped(), ring.total_recorded());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE(entries[i].second.SelfConsistent());
    EXPECT_EQ(entries[i].first, ring.total_recorded() - ring.capacity() + i);
  }
}

// -- EventJournal ----------------------------------------------------------

TEST(EventJournalTest, RecordsAndSnapshotsInOrder) {
  EventJournal ring(8);
  ring.Record(JournalEventType::kBackpressureStart, 1, -1, 100, 7, 9);
  ring.Record(JournalEventType::kBackpressureStop, 1, -1, 200, 100, 0);
  ring.Record(JournalEventType::kCheckpointTriggered, -1, -1, 300, 1, 4);

  const std::vector<JournalEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].type, JournalEventType::kBackpressureStart);
  EXPECT_EQ(events[0].origin, 1);
  EXPECT_EQ(events[0].at_nanos, 100);
  EXPECT_EQ(events[0].arg0, 7);
  EXPECT_EQ(events[0].arg1, 9);
  EXPECT_EQ(events[1].type, JournalEventType::kBackpressureStop);
  EXPECT_EQ(events[2].type, JournalEventType::kCheckpointTriggered);
  EXPECT_EQ(events[2].origin, -1);
  EXPECT_EQ(ring.total_recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(EventJournalTest, WraparoundKeepsNewestAndCountsDropped) {
  EventJournal ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Record(JournalEventType::kPlanSwap, -1, -1, 1000 + i, i, 0);
  }
  const std::vector<JournalEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The newest four survive, oldest-first, seq counting past capacity.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, static_cast<uint64_t>(6 + i));
    EXPECT_EQ(events[i].arg0, 6 + i);
    EXPECT_EQ(events[i].at_nanos, 1006 + i);
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(EventJournalTest, DetailRoundTripsAndTruncates) {
  EventJournal ring(4);
  ring.Record(JournalEventType::kScalingDecision, -1, -1, 1, 2, 4, "bolt");
  ring.Record(JournalEventType::kScalingDecision, -1, -1, 2, 2, 4,
              "a-component-name-too-long-for-the-ring");
  ring.Record(JournalEventType::kScalingDecision, -1, -1, 3, 2, 4, nullptr);

  const std::vector<JournalEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].detail, "bolt");
  EXPECT_EQ(events[1].detail.size(), kJournalDetailBytes);
  EXPECT_EQ(events[1].detail,
            std::string("a-component-name-too-long").substr(
                0, kJournalDetailBytes));
  EXPECT_EQ(events[2].detail, "");
}

TEST(EventJournalTest, ZeroCapacityClampsToOne) {
  EventJournal ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.Record(JournalEventType::kChaosKill, 2, -1, 5, 0, 0);
  ring.Record(JournalEventType::kChaosKill, 3, -1, 6, 0, 0);
  const std::vector<JournalEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].origin, 3);
  EXPECT_EQ(ring.dropped(), 1u);
}

// Concurrent writers + a live reader: every snapshotted event must be
// internally consistent (origin encodes the writer, arg0 its sequence and
// at_nanos a function of both), proving torn slots are never returned.
// The TSan cooperative lane runs this test for the data-race proof.
TEST(EventJournalTest, ConcurrentRecordSnapshotIsConsistent) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  EventJournal ring(256);
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const JournalEvent& e : ring.Snapshot()) {
        ASSERT_GE(e.origin, 0);
        ASSERT_LT(e.origin, kWriters);
        ASSERT_EQ(e.at_nanos, e.origin * 1000000 + e.arg0);
        ASSERT_EQ(e.type, JournalEventType::kRemoteThrottleOn);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        ring.Record(JournalEventType::kRemoteThrottleOn, w, -1,
                    w * 1000000 + i, i, 0);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.total_recorded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(ring.dropped(),
            static_cast<uint64_t>(kWriters) * kPerWriter - 256);
  EXPECT_EQ(ring.Snapshot().size(), 256u);
}

// -- SliceRing -------------------------------------------------------------

TEST(SliceRingTest, WraparoundKeepsNewestAndCountsDropped) {
  SliceRing ring(4);
  for (int i = 0; i < 7; ++i) {
    ring.Record(/*worker=*/i % 2, /*tasklet=*/i, 100 * i, 50);
  }
  const std::vector<SchedSlice> slices = ring.Snapshot();
  ASSERT_EQ(slices.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(slices[i].tasklet, 3 + i);
    EXPECT_EQ(slices[i].start_nanos, 100 * (3 + i));
    EXPECT_EQ(slices[i].dur_nanos, 50);
  }
  EXPECT_EQ(ring.total_recorded(), 7u);
  EXPECT_EQ(ring.dropped(), 3u);
}

TEST(SliceRingTest, ConcurrentRecordSnapshotIsConsistent) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  SliceRing ring(128);
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const SchedSlice& s : ring.Snapshot()) {
        ASSERT_GE(s.worker, 0);
        ASSERT_LT(s.worker, kWriters);
        ASSERT_EQ(s.start_nanos, s.worker * 1000000 + s.tasklet);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        ring.Record(w, i, w * 1000000 + i, 10);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.total_recorded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
}

// -- Journal digest --------------------------------------------------------

TEST(SummarizeJournalTest, CountsByTypeInEnumOrder) {
  std::vector<JournalEvent> events;
  JournalEvent e;
  e.type = JournalEventType::kBackpressureStop;
  events.push_back(e);
  e.type = JournalEventType::kBackpressureStart;
  events.push_back(e);
  events.push_back(e);

  const TopologySnapshot::JournalSummary summary =
      SummarizeJournal(events, /*recorded=*/5, /*dropped=*/2);
  EXPECT_EQ(summary.events, 3u);
  EXPECT_EQ(summary.recorded, 5u);
  EXPECT_EQ(summary.dropped, 2u);
  ASSERT_EQ(summary.by_type.size(), 2u);
  EXPECT_EQ(summary.by_type[0].type, "backpressure_start");
  EXPECT_EQ(summary.by_type[0].count, 2u);
  EXPECT_EQ(summary.by_type[1].type, "backpressure_stop");
  EXPECT_EQ(summary.by_type[1].count, 1u);
}

TEST(SnapshotJournalTest, JournalAndSchedulerSectionsRoundTrip) {
  TopologySnapshot snap;
  snap.topology = "t";
  snap.journal.events = 12;
  snap.journal.recorded = 20;
  snap.journal.dropped = 8;
  snap.journal.by_type.push_back({"backpressure_start", 6});
  snap.journal.by_type.push_back({"plan_swap", 6});
  snap.scheduler.workers = 3;
  snap.scheduler.tasklets = 9;
  snap.scheduler.slices = 1234;
  snap.scheduler.overruns = 5;
  snap.scheduler.occupancy = 0.5;
  snap.scheduler.busy_ms = 10;
  snap.scheduler.wall_ms = 20;
  snap.scheduler.slice_events = 100;
  snap.scheduler.dropped_slices = 7;

  const auto parsed = TopologySnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->journal == snap.journal);
  EXPECT_TRUE(parsed->scheduler == snap.scheduler);
}

// -- Timeline export -------------------------------------------------------

TimelineInput SampleInput() {
  TimelineInput input;
  input.spans.push_back({/*trace_id=*/7, TraceStage::kSpoutEmit,
                         /*location=*/1, /*at_nanos=*/1000});
  input.spans.push_back({7, TraceStage::kSmgrRoute, 0, 2000});
  input.spans.push_back({7, TraceStage::kExecute, 2, 3500});
  JournalEvent e;
  e.seq = 0;
  e.type = JournalEventType::kBackpressureStart;
  e.origin = 0;
  e.at_nanos = 1500;
  e.arg0 = 9;
  input.events.push_back(e);
  e.seq = 1;
  e.type = JournalEventType::kScalingDecision;
  e.origin = -1;
  e.at_nanos = 4000;
  e.detail = "bolt";
  input.events.push_back(e);
  input.slices.push_back({/*worker=*/0, /*tasklet=*/1, 1200, 300});
  input.tasklet_names = {"smgr-0", "task-2"};
  return input;
}

TEST(TraceExportTest, ProducesValidJsonWithAllTrackKinds) {
  const std::string doc = BuildChromeTrace(SampleInput());
  const auto parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_metadata = false, saw_duration = false, saw_instant = false;
  bool saw_worker_slice = false, saw_control = false;
  for (const json::Value& e : events->array) {
    const std::string ph = e.StringOr("ph", "");
    if (ph == "M") {
      saw_metadata = true;
      continue;
    }
    if (ph == "X") saw_duration = true;
    if (ph == "i") saw_instant = true;
    const int pid = static_cast<int>(e.NumberOr("pid", -1));
    if (pid >= 2000 && e.StringOr("name", "") == "task-2") {
      saw_worker_slice = true;  // Slice named via tasklet_names[1].
    }
    if (pid == 0 && e.StringOr("name", "") == "scaling_decision") {
      saw_control = true;
    }
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_duration);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_worker_slice);
  EXPECT_TRUE(saw_control);
}

TEST(TraceExportTest, TimestampsAreMonotonicPerTrack) {
  const auto parsed = json::Parse(BuildChromeTrace(SampleInput()));
  ASSERT_TRUE(parsed.ok());
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::pair<int, double>> last_per_pid;
  for (const json::Value& e : events->array) {
    if (e.StringOr("ph", "") == "M") continue;
    const int pid = static_cast<int>(e.NumberOr("pid", -1));
    const double ts = e.NumberOr("ts", -1);
    bool found = false;
    for (auto& [p, last] : last_per_pid) {
      if (p != pid) continue;
      EXPECT_GE(ts, last) << "track " << pid << " went backwards";
      last = ts;
      found = true;
    }
    if (!found) last_per_pid.push_back({pid, ts});
  }
  EXPECT_FALSE(last_per_pid.empty());
}

TEST(TraceExportTest, DeterministicForIdenticalInput) {
  EXPECT_EQ(BuildChromeTrace(SampleInput()), BuildChromeTrace(SampleInput()));
}

TEST(TraceExportTest, SpanSlicesTelescope) {
  const auto parsed = json::Parse(BuildChromeTrace(SampleInput()));
  ASSERT_TRUE(parsed.ok());
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // smgr_route spans spout_emit→route (1.0µs..2.0µs); execute spans
  // route→execute (2.0µs..3.5µs). Together they tile emit→execute.
  for (const json::Value& e : events->array) {
    const std::string name = e.StringOr("name", "");
    if (name == "smgr_route") {
      EXPECT_DOUBLE_EQ(e.NumberOr("ts", 0), 1.0);
      EXPECT_DOUBLE_EQ(e.NumberOr("dur", 0), 1.0);
    } else if (name == "execute") {
      EXPECT_DOUBLE_EQ(e.NumberOr("ts", 0), 2.0);
      EXPECT_DOUBLE_EQ(e.NumberOr("dur", 0), 1.5);
    }
  }
}

}  // namespace
}  // namespace observability
}  // namespace heron
