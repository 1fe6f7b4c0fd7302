#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dlion::obs {
namespace {

TEST(Tracer, TrackFindOrCreate) {
  Tracer tr;
  const TrackId a = tr.track("workers", "worker 0");
  const TrackId b = tr.track("workers", "worker 1");
  const TrackId a2 = tr.track("workers", "worker 0");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(tr.track_count(), 2u);
}

TEST(Tracer, RecycledArgsReuseBuffersOfEventsNotRetained) {
  Tracer tr;
  const TrackId t = tr.track("network", "link 0->1");
  EXPECT_EQ(tr.recycled_args().capacity(), 0u);  // nothing spare yet
  // Retained: the tracer keeps the buffer, so none is spare.
  tr.complete(t, "tx", 0.0, 1.0, {{"bytes", 8.0}, {"mbps", 100.0}});
  EXPECT_EQ(tr.recycled_args().capacity(), 0u);
  // Not retained (outside any full-fidelity window): the buffer comes back.
  tr.set_retain_all(false);
  tr.complete(t, "tx", 1.0, 2.0, {{"bytes", 8.0}, {"mbps", 100.0}});
  tr.instant(t, "drop", 2.0, {{"bytes", 8.0}});
  std::vector<Tracer::Arg> a = tr.recycled_args();
  std::vector<Tracer::Arg> b = tr.recycled_args();
  EXPECT_TRUE(a.empty() && b.empty());
  EXPECT_GE(a.capacity() + b.capacity(), 3u);
  EXPECT_EQ(tr.recycled_args().capacity(), 0u);
  ASSERT_EQ(tr.spans().size(), 1u);  // only the retained span
  EXPECT_EQ(tr.spans()[0].args.size(), 2u);
  EXPECT_EQ(tr.admitted_events(), 3u);
}

TEST(Tracer, BeginEndNestLifoPerTrack) {
  Tracer tr;
  const TrackId t = tr.track("p", "t");
  tr.begin(t, "outer", 0.0);
  tr.begin(t, "inner", 1.0);
  EXPECT_EQ(tr.open_spans(), 2u);
  tr.end(t, 2.0);  // closes inner
  tr.end(t, 3.0);  // closes outer
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[0].name, "inner");
  EXPECT_DOUBLE_EQ(tr.spans()[0].t0, 1.0);
  EXPECT_DOUBLE_EQ(tr.spans()[0].t1, 2.0);
  EXPECT_EQ(tr.spans()[1].name, "outer");
  EXPECT_DOUBLE_EQ(tr.spans()[1].t0, 0.0);
  EXPECT_DOUBLE_EQ(tr.spans()[1].t1, 3.0);
  EXPECT_EQ(tr.open_spans(), 0u);
}

TEST(Tracer, UnmatchedEndIsIgnored) {
  Tracer tr;
  const TrackId t = tr.track("p", "t");
  tr.end(t, 1.0);
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Tracer, InvalidTrackIsIgnored) {
  Tracer tr;
  tr.begin(0, "x", 0.0);
  tr.complete(99, "x", 0.0, 1.0);
  tr.instant(0, "x", 0.0);
  tr.counter(7, "x", 0.0, 1.0);
  EXPECT_EQ(tr.event_count(), 0u);
}

TEST(Tracer, OpenSpansAreDroppedAtExport) {
  Tracer tr;
  const TrackId t = tr.track("p", "t");
  tr.begin(t, "never-ends", 0.0);
  tr.complete(t, "done", 0.0, 1.0);
  EXPECT_EQ(tr.open_spans(), 1u);
  const std::string json = tr.chrome_json();
  EXPECT_EQ(json.find("never-ends"), std::string::npos);
  EXPECT_NE(json.find("done"), std::string::npos);
}

TEST(Tracer, ClearResetsEventsButKeepsTracks) {
  Tracer tr;
  const TrackId t = tr.track("p", "t");
  tr.begin(t, "open", 0.0);
  tr.complete(t, "done", 0.0, 1.0);
  tr.instant(t, "i", 0.5);
  tr.counter(t, "c", 0.5, 1.0);
  tr.clear();
  EXPECT_EQ(tr.event_count(), 0u);
  EXPECT_EQ(tr.open_spans(), 0u);
  EXPECT_EQ(tr.track_count(), 1u);
  EXPECT_EQ(tr.track("p", "t"), t);
}

// Golden-file test: the exact Chrome trace-event JSON for a tiny hand-built
// trace. Any byte change here is an export-format change — update the
// golden string deliberately and re-check that Perfetto still loads it.
TEST(Tracer, ChromeJsonGolden) {
  Tracer tr;
  const TrackId w0 = tr.track("workers", "worker 0");
  const TrackId link = tr.track("network", "link 0->1");
  tr.complete(w0, "compute", 0.0, 0.5, {{"iter", 1.0}});
  tr.begin(w0, "stall", 0.5);
  tr.end(w0, 0.75);
  tr.instant(link, "drop", 0.6, {{"bytes", 64.0}});
  tr.counter(w0, "lbs", 1.0, 32.0);

  const std::string expected = std::string("{\"traceEvents\":[") +
      // Metadata: process names sorted by process, then per-track threads.
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"network\"}},\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"workers\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"worker 0\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":2,"
      "\"args\":{\"name\":\"link 0->1\"}},\n"
      // Spans in recording order (ts/dur in microseconds).
      "{\"ph\":\"X\",\"name\":\"compute\",\"ts\":0.000,\"dur\":500000.000,"
      "\"pid\":1,\"tid\":1,\"args\":{\"iter\":1}},\n"
      "{\"ph\":\"X\",\"name\":\"stall\",\"ts\":500000.000,"
      "\"dur\":250000.000,\"pid\":1,\"tid\":1,\"args\":{}},\n"
      // Instants, then counter samples.
      "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"drop\",\"ts\":600000.000,"
      "\"pid\":2,\"tid\":2,\"args\":{\"bytes\":64}},\n"
      "{\"ph\":\"C\",\"name\":\"lbs\",\"ts\":1000000.000,\"pid\":1,"
      "\"tid\":1,\"args\":{\"value\":32}}"
      "\n]}";
  EXPECT_EQ(tr.chrome_json(), expected);
}

TEST(Tracer, ChromeJsonFlowEventsGolden) {
  Tracer tr;
  const TrackId w0 = tr.track("workers", "worker 0");
  const TrackId link = tr.track("network", "link 0->1");
  const TrackId w1 = tr.track("workers", "worker 1");
  // A send -> transfer -> deliver chain with a deterministic 64-bit id
  // ((src+1) << 40 | seq, here src=0 seq=3).
  const std::uint64_t id = (1ull << 40) | 3ull;
  tr.flow(w0, Tracer::FlowPhase::kStart, "GradientUpdate", 0.1, id);
  tr.flow(link, Tracer::FlowPhase::kStep, "GradientUpdate", 0.2, id);
  tr.flow(w1, Tracer::FlowPhase::kEnd, "GradientUpdate", 0.3, id);

  const std::string expected = std::string("{\"traceEvents\":[") +
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"network\"}},\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"workers\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"worker 0\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":2,"
      "\"args\":{\"name\":\"link 0->1\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":3,"
      "\"args\":{\"name\":\"worker 1\"}},\n"
      // Flow points in recording order; the id renders as a hex string and
      // the finish event binds to its enclosing slice (bp:"e").
      "{\"ph\":\"s\",\"cat\":\"flow\",\"name\":\"GradientUpdate\","
      "\"id\":\"0x10000000003\",\"ts\":100000.000,\"pid\":1,\"tid\":1},\n"
      "{\"ph\":\"t\",\"cat\":\"flow\",\"name\":\"GradientUpdate\","
      "\"id\":\"0x10000000003\",\"ts\":200000.000,\"pid\":2,\"tid\":2},\n"
      "{\"ph\":\"f\",\"cat\":\"flow\",\"name\":\"GradientUpdate\","
      "\"id\":\"0x10000000003\",\"ts\":300000.000,\"pid\":1,\"tid\":3,"
      "\"bp\":\"e\"}"
      "\n]}";
  EXPECT_EQ(tr.chrome_json(), expected);
}

TEST(Tracer, JsonEscapesSpecialCharacters) {
  Tracer tr;
  const TrackId t = tr.track("p\"q", "t\\u");
  tr.instant(t, "line\nbreak", 0.0);
  const std::string json = tr.chrome_json();
  EXPECT_NE(json.find("p\\\"q"), std::string::npos);
  EXPECT_NE(json.find("t\\\\u"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

}  // namespace
}  // namespace dlion::obs
