// Streaming trace sink and deterministic sampling (DESIGN.md,
// "Observability at scale"): streamed events must be byte-identical to
// their batch-exported twins, and every sampling decision must be a pure
// function of track names / flow sequence numbers — never entropy — so a
// sampled trace is reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_lite.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"

namespace dlion::obs {
namespace {

using jsonlite::Json;
using jsonlite::JsonParser;

bool parses(const std::string& text, Json& out) {
  return JsonParser(text).parse(out);
}

// Split a {"traceEvents":[...]} file into its raw per-record byte strings,
// dropping the "ph":"M" metadata records (batch sorts those; streaming
// emits them as tracks appear).
std::vector<std::string> event_records(const std::string& trace) {
  const std::string head = "{\"traceEvents\":[";
  const std::string tail = "\n]}";
  EXPECT_EQ(trace.rfind(head, 0), 0u);
  EXPECT_EQ(trace.substr(trace.size() - tail.size()), tail);
  std::vector<std::string> out;
  std::size_t pos = head.size();
  const std::size_t end = trace.size() - tail.size();
  while (pos < end) {
    std::size_t next = trace.find(",\n", pos);
    if (next == std::string::npos || next > end) next = end;
    std::string rec = trace.substr(pos, next - pos);
    if (rec.rfind("{\"ph\":\"M\"", 0) != 0) out.push_back(std::move(rec));
    pos = next + 2;
  }
  return out;
}

// ----------------------------------------------------------- ChromeStreamSink

TEST(ChromeStreamSink, StreamedOutputMatchesBatchExport) {
  // The batch exporter groups records by type (metadata, spans, flows,
  // instants, samples) while the stream preserves recording order — but
  // every individual event record must be byte-identical between the two,
  // because both are built by obs/trace_format.h.
  Tracer batch;
  std::ostringstream stream_out;
  Tracer streamed;
  ChromeStreamSink sink(stream_out);
  streamed.set_sink(&sink);

  for (Tracer* tr : {&batch, &streamed}) {
    const TrackId w0 = tr->track("workers", "worker 0000");
    const TrackId w1 = tr->track("workers", "worker 0001");
    const TrackId net = tr->track("network", "link 0000->0001");
    tr->complete(w0, "compute", 0.0, 1.5, {{"iters", 3.0}});
    tr->begin(w1, "compute", 0.5);
    tr->end(w1, 2.0);
    tr->instant(w0, "apply", 2.25, {{"seq", 1.0}});
    tr->counter(net, "queue", 0.75, 4.0);
    tr->flow(w0, Tracer::FlowPhase::kStart, "grad", 1.5, 7);
    tr->flow(net, Tracer::FlowPhase::kStep, "grad", 1.75, 7);
    tr->flow(w1, Tracer::FlowPhase::kEnd, "grad", 2.0, 7);
  }
  streamed.finish();

  std::vector<std::string> from_stream = event_records(stream_out.str());
  std::vector<std::string> from_batch = event_records(batch.chrome_json());
  ASSERT_EQ(from_stream.size(), from_batch.size());
  std::sort(from_stream.begin(), from_stream.end());
  std::sort(from_batch.begin(), from_batch.end());
  EXPECT_EQ(from_stream, from_batch);

  EXPECT_EQ(sink.bytes_written(), stream_out.str().size());
  // events_written counts every record emitted, metadata included
  // (2 process_name + 3 thread_name here).
  EXPECT_EQ(sink.events_written(), batch.event_count() + 5u);

  Json doc;
  ASSERT_TRUE(parses(stream_out.str(), doc));
  ASSERT_NE(doc.find("traceEvents"), nullptr);
}

TEST(ChromeStreamSink, EmptyTraceIsValidJson) {
  std::ostringstream out;
  {
    Tracer tracer;
    ChromeStreamSink sink(out);
    tracer.set_sink(&sink);
    tracer.finish();
    tracer.finish();  // idempotent
  }
  Json doc;
  ASSERT_TRUE(parses(out.str(), doc));
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->array.empty());
}

TEST(ChromeStreamSink, ChecksumIsDeterministic) {
  auto record = [] {
    std::ostringstream out;
    ChromeStreamSink sink(out);
    Tracer tracer;
    tracer.set_sink(&sink);
    const TrackId t = tracer.track("workers", "worker 0000");
    for (int i = 0; i < 10; ++i) {
      tracer.complete(t, "step", i * 1.0, i * 1.0 + 0.5);
    }
    tracer.finish();
    return sink.checksum();
  };
  EXPECT_EQ(record(), record());
  // And it actually covers the payload: a different recording differs.
  std::ostringstream out;
  ChromeStreamSink sink(out);
  Tracer tracer;
  tracer.set_sink(&sink);
  tracer.complete(tracer.track("workers", "worker 0000"), "other", 0.0, 1.0);
  tracer.finish();
  EXPECT_NE(sink.checksum(), record());
}

TEST(ChromeStreamSink, AttachingLateReplaysKnownTracks) {
  Tracer tracer;
  const TrackId t = tracer.track("workers", "worker 0000");
  tracer.complete(t, "early", 0.0, 1.0);  // before any sink: retained only

  std::ostringstream out;
  ChromeStreamSink sink(out);
  tracer.set_sink(&sink);  // replays the track table
  tracer.complete(t, "late", 1.0, 2.0);
  tracer.finish();

  Json doc;
  ASSERT_TRUE(parses(out.str(), doc));
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_meta = false, saw_late = false, saw_early = false;
  for (const Json& e : events->array) {
    const Json* name = e.find("name");
    if (name == nullptr) continue;
    if (name->str == "thread_name") saw_meta = true;
    if (name->str == "late") saw_late = true;
    if (name->str == "early") saw_early = true;
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_late);
  EXPECT_FALSE(saw_early);  // streamed from attach time, not replayed
}

// ------------------------------------------------------------------ sampling

TEST(TraceSampling, TrackStrideKeysOffTheNumericId) {
  Tracer tracer;
  TraceSampleConfig cfg;
  cfg.track_stride = 2;
  tracer.set_sampling(cfg);
  const TrackId w0 = tracer.track("workers", "worker 0000");
  const TrackId w1 = tracer.track("workers", "worker 0001");
  const TrackId w2 = tracer.track("workers", "worker 0002");
  const TrackId ctl = tracer.track("fabric", "control");  // no digits
  tracer.complete(w0, "s", 0.0, 1.0);
  tracer.complete(w1, "s", 0.0, 1.0);
  tracer.complete(w2, "s", 0.0, 1.0);
  tracer.complete(ctl, "s", 0.0, 1.0);
  // ids 0 and 2 pass (0 % 2 == 0, 2 % 2 == 0); id 1 is sampled out;
  // the digit-free control lane is always kept.
  EXPECT_EQ(tracer.admitted_events(), 3u);
  EXPECT_EQ(tracer.sampled_out_events(), 1u);
  EXPECT_EQ(tracer.spans().size(), 3u);
}

TEST(TraceSampling, HeadBudgetKeepsTheStartOfSampledOutTracks) {
  Tracer tracer;
  TraceSampleConfig cfg;
  cfg.track_stride = 2;
  cfg.head_events_per_track = 2;
  tracer.set_sampling(cfg);
  const TrackId w1 = tracer.track("workers", "worker 0001");  // sampled out
  for (int i = 0; i < 5; ++i) tracer.instant(w1, "e", i * 1.0);
  EXPECT_EQ(tracer.admitted_events(), 2u);  // the head
  EXPECT_EQ(tracer.sampled_out_events(), 3u);
}

TEST(TraceSampling, FlowStrideKeepsChainsWhole) {
  Tracer tracer;
  TraceSampleConfig cfg;
  cfg.flow_stride = 2;
  tracer.set_sampling(cfg);
  const TrackId t = tracer.track("workers", "worker 0000");
  // Flow ids in comm layout: (src+1) << 40 | seq. The stride applies to
  // the masked seq, so chains keep or drop as a unit regardless of source.
  const std::uint64_t src_bits = std::uint64_t{3} << 40;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    const std::uint64_t id = src_bits | seq;
    tracer.flow(t, Tracer::FlowPhase::kStart, "g", seq * 1.0, id);
    tracer.flow(t, Tracer::FlowPhase::kEnd, "g", seq * 1.0 + 0.5, id);
  }
  // seq 0 and 2 kept (both points each), 1 and 3 dropped entirely.
  EXPECT_EQ(tracer.flows().size(), 4u);
  EXPECT_EQ(tracer.sampled_out_events(), 4u);
  for (const Tracer::Flow& f : tracer.flows()) {
    EXPECT_EQ((f.id & ((std::uint64_t{1} << 40) - 1)) % 2, 0u);
  }
}

TEST(TraceSampling, FullFidelityWindowOverridesTheStrides) {
  Tracer tracer;
  TraceSampleConfig cfg;
  cfg.track_stride = 1000;  // samples out every numeric lane
  cfg.full_t0 = 10.0;
  cfg.full_t1 = 20.0;
  tracer.set_sampling(cfg);
  tracer.set_retain_all(false);
  const TrackId w1 = tracer.track("workers", "worker 0001");
  tracer.complete(w1, "before", 0.0, 1.0);    // outside: dropped
  tracer.complete(w1, "straddle", 9.0, 11.0); // overlaps: kept
  tracer.complete(w1, "inside", 12.0, 13.0);  // inside: kept
  tracer.complete(w1, "after", 25.0, 26.0);   // outside: dropped
  EXPECT_EQ(tracer.admitted_events(), 2u);
  EXPECT_EQ(tracer.sampled_out_events(), 2u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[0].name, "straddle");
  EXPECT_EQ(tracer.spans()[1].name, "inside");
}

TEST(TraceSampling, RetainOffStoresOnlyTheWindowButStreamsEverything) {
  std::ostringstream out;
  ChromeStreamSink sink(out);
  Tracer tracer;
  tracer.set_sink(&sink);
  TraceSampleConfig cfg;
  cfg.full_t0 = 10.0;
  cfg.full_t1 = 20.0;
  tracer.set_sampling(cfg);
  tracer.set_retain_all(false);
  const TrackId w = tracer.track("workers", "worker 0000");
  for (int i = 0; i < 30; ++i) {
    tracer.complete(w, "step", i * 1.0, i * 1.0 + 0.5);
  }
  tracer.finish();
  // Everything admitted (track_stride 1) and streamed; storage holds only
  // the spans overlapping [10, 20).
  EXPECT_EQ(tracer.admitted_events(), 30u);
  EXPECT_EQ(sink.events_written(), 32u);  // 30 spans + 2 metadata records
  EXPECT_EQ(tracer.spans().size(), 10u);
  EXPECT_GT(tracer.retained_bytes(), 0u);
  EXPECT_LT(tracer.retained_bytes(), 10u * 200u);  // O(window), not O(run)
}

TEST(TraceSampling, ClearResetsCountersAndBytes) {
  Tracer tracer;
  TraceSampleConfig cfg;
  cfg.track_stride = 2;
  tracer.set_sampling(cfg);
  const TrackId w1 = tracer.track("workers", "worker 0001");
  tracer.complete(w1, "s", 0.0, 1.0);
  const TrackId w0 = tracer.track("workers", "worker 0000");
  tracer.complete(w0, "s", 0.0, 1.0);
  EXPECT_GT(tracer.retained_bytes(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.admitted_events(), 0u);
  EXPECT_EQ(tracer.sampled_out_events(), 0u);
  EXPECT_EQ(tracer.retained_bytes(), 0u);
  // Sampling state survives clear(): worker 0001 is still sampled out.
  tracer.complete(w1, "s", 0.0, 1.0);
  EXPECT_EQ(tracer.sampled_out_events(), 1u);
}

TEST(TraceSampling, UnconfiguredTracerRetainsEverything) {
  Tracer tracer;
  const TrackId w = tracer.track("workers", "worker 0001");
  for (int i = 0; i < 5; ++i) tracer.instant(w, "e", i * 1.0);
  EXPECT_EQ(tracer.admitted_events(), 5u);
  EXPECT_EQ(tracer.sampled_out_events(), 0u);
  EXPECT_EQ(tracer.instants().size(), 5u);
}

}  // namespace
}  // namespace dlion::obs
