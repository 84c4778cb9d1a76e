// Unit tests for common/event_log.h: JSONL rendering, the fixed-size
// flight-recorder ring, per-type counters, the streaming sink, counter
// rebasing, and multi-threaded emission (the TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/event_log.h"

namespace kvmatch {
namespace {

TEST(EventLogTest, RendersOneJsonLinePerEvent) {
  EventLog log;
  log.Emit(Event{kEventEpochCommit, "sensor1"}
               .Num("epoch", 7)
               .Num("bytes", 4096)
               .FNum("total_ms", 1.5)
               .Str("kind", "append"));

  const auto lines = log.RingLines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"epoch_commit\""), std::string::npos);
  EXPECT_NE(line.find("\"series\":\"sensor1\""), std::string::npos);
  EXPECT_NE(line.find("\"epoch\":7"), std::string::npos);
  EXPECT_NE(line.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(line.find("\"total_ms\":1.5"), std::string::npos);
  EXPECT_NE(line.find("\"kind\":\"append\""), std::string::npos);
}

TEST(EventLogTest, OmitsEmptySeries) {
  EventLog log;
  log.Emit(Event{kEventOrphanSweep}.Str("prefix", "series/x/e3/"));
  const auto lines = log.RingLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find("\"series\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"prefix\":\"series/x/e3/\""),
            std::string::npos);
}

TEST(EventLogTest, EscapesStringFields) {
  EventLog log;
  log.Emit(Event{kEventSeriesDrop, "a\"b\\c"}.Str("note", "tab\there"));
  const auto lines = log.RingLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"series\":\"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"note\":\"tab\\there\""), std::string::npos);
}

TEST(EventLogTest, JsonMembersAreAppendedVerbatimAfterStrings) {
  EventLog log;
  log.Emit(Event{kEventSlowQuery, "s0"}
               .Json("spans", "[{\"name\":\"probe\"}]")
               .Str("status", "ok"));
  const auto lines = log.RingLines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"event\":\"slow_query\",\"series\":\"s0\","
                          "\"status\":\"ok\","
                          "\"spans\":[{\"name\":\"probe\"}]}"),
            std::string::npos)
      << lines[0];
}

TEST(EventLogTest, RingKeepsTheNewestLinesOldestFirst) {
  EventLog log(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.Emit(Event{kEventEviction}.Num("i", static_cast<uint64_t>(i)));
  }
  const auto lines = log.RingLines();
  ASSERT_EQ(lines.size(), 4u);
  // The ring holds events 6..9; seq is global, so the wrap is visible.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(lines[i].find("\"seq\":" + std::to_string(6 + i)),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"i\":" + std::to_string(6 + i)),
              std::string::npos)
        << lines[i];
  }
  EXPECT_EQ(log.TotalEvents(), 10u);  // counters see every emission
}

TEST(EventLogTest, CountsByType) {
  EventLog log;
  log.Emit(Event{kEventEpochCommit, "a"});
  log.Emit(Event{kEventEpochCommit, "b"});
  log.Emit(Event{kEventCompaction});
  EXPECT_EQ(log.TotalEvents(), 3u);
  const auto counts = log.CountsByType();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, std::string(kEventCompaction));
  EXPECT_EQ(counts[0].second, 1u);
  EXPECT_EQ(counts[1].first, std::string(kEventEpochCommit));
  EXPECT_EQ(counts[1].second, 2u);
}

TEST(EventLogTest, SinkReceivesEveryLineAsEmitted) {
  EventLog log;
  std::vector<std::string> seen;
  log.SetSink([&seen](const std::string& line) { seen.push_back(line); });
  log.Emit(Event{kEventEpochCommit, "s"});
  log.Emit(Event{kEventEviction, "s"});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], log.RingLines()[0]);
  EXPECT_EQ(seen[1], log.RingLines()[1]);
  log.SetSink(nullptr);
  log.Emit(Event{kEventEviction, "s"});  // must not crash
  EXPECT_EQ(seen.size(), 2u);
}

TEST(EventLogTest, DumpJsonLinesJoinsWithNewlines) {
  EventLog log;
  EXPECT_EQ(log.DumpJsonLines(), "");
  log.Emit(Event{kEventEpochCommit, "a"});
  log.Emit(Event{kEventEviction, "b"});
  const std::string dump = log.DumpJsonLines();
  EXPECT_EQ(dump, log.RingLines()[0] + "\n" + log.RingLines()[1] + "\n");
}

// The TSan target: emitters on 8 threads hammer one log (whose ring is
// smaller than the event count, so wrap-around races are exercised too)
// while a reader thread snapshots concurrently.
TEST(EventLogTest, ConcurrentEmittersAndReaders) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  EventLog log(/*ring_capacity=*/64);
  std::atomic<uint64_t> sink_calls{0};
  log.SetSink([&sink_calls](const std::string&) {
    sink_calls.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Emit(Event{kEventEpochCommit, "t" + std::to_string(t)}
                     .Num("i", static_cast<uint64_t>(i)));
      }
    });
  }
  threads.emplace_back([&log] {
    for (int i = 0; i < 200; ++i) {
      (void)log.RingLines();
      (void)log.CountsByType();
      (void)log.TotalEvents();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(log.TotalEvents(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink_calls.load(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.RingLines().size(), 64u);
  const auto counts = log.CountsByType();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].second, static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace kvmatch
