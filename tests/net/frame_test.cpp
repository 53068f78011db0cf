// ARPF frame codec tests: every byte of the wire format (DESIGN.md §11) is
// pinned here — encode/decode round-trips for all seven types, header-field
// rejection, truncation at every byte, and arbitrary packetization.  The
// fuzz harness (fuzz/fuzz_netframe.cpp) extends this with coverage-guided
// garbage; these tests keep the *intended* behavior from drifting.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace aropuf::net {
namespace {

Frame decode_one(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_TRUE(decoder.next(&frame));
  EXPECT_EQ(decoder.buffered(), 0u);
  return frame;
}

FrameErrc decode_errc(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  try {
    (void)decoder.next(&frame);
  } catch (const FrameError& e) {
    return e.code();
  }
  ADD_FAILURE() << "decode did not throw";
  return FrameErrc::kBadMagic;
}

TEST(FrameTest, HeaderLayoutIsExactlyTwelveLittleEndianBytes) {
  const std::string bytes = encode_frame(FrameType::kHeartbeat, "{}");
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 2);
  EXPECT_EQ(bytes.substr(0, 4), "ARPF");
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), kProtocolVersion & 0xff);
  EXPECT_EQ(static_cast<unsigned char>(bytes[5]), kProtocolVersion >> 8);
  EXPECT_EQ(static_cast<unsigned char>(bytes[6]),
            static_cast<unsigned char>(FrameType::kHeartbeat));
  EXPECT_EQ(bytes[7], '\0');                                  // reserved
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 2);         // length LE
  EXPECT_EQ(bytes[9], '\0');
  EXPECT_EQ(bytes[10], '\0');
  EXPECT_EQ(bytes[11], '\0');
  EXPECT_EQ(bytes.substr(kFrameHeaderSize), "{}");
}

TEST(FrameTest, AllTypesRoundTrip) {
  const std::vector<FrameType> types = {FrameType::kHello,  FrameType::kJob,
                                        FrameType::kHeartbeat, FrameType::kResult,
                                        FrameType::kError,  FrameType::kBye,
                                        FrameType::kMetrics};
  for (const FrameType type : types) {
    const std::string payload =
        type == FrameType::kBye ? "" : std::string("payload-") + frame_type_name(type);
    const Frame frame = decode_one(encode_frame(type, payload));
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(FrameTest, ResultPayloadMayBeArbitraryBinary) {
  std::string blob(4096, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<char>(i * 31);
  const Frame frame = decode_one(encode_frame(FrameType::kResult, blob));
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, blob);
}

TEST(FrameTest, TruncationAtEveryByteNeedsMoreAndNeverThrows) {
  const std::string whole = encode_frame(FrameType::kJob, R"({"probe": 1})");
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(whole.substr(0, cut));
    Frame frame;
    EXPECT_FALSE(decoder.next(&frame)) << "cut at " << cut;
    // The remainder completes the frame: nothing was consumed or corrupted.
    decoder.feed(whole.substr(cut));
    EXPECT_TRUE(decoder.next(&frame)) << "cut at " << cut;
    EXPECT_EQ(frame.payload, R"({"probe": 1})");
  }
}

TEST(FrameTest, ByteByByteFeedingDecodesIdentically) {
  const std::string a = encode_frame(FrameType::kHello, R"({"worker": "w"})");
  const std::string b = encode_frame(FrameType::kBye, "");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const char c : a + b) {
    decoder.feed(&c, 1);
    Frame frame;
    while (decoder.next(&frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[1].type, FrameType::kBye);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, MultipleFramesInOneFeed) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(FrameType::kHeartbeat, "{}") + encode_frame(FrameType::kBye, "") +
               encode_frame(FrameType::kResult, "raw"));
  Frame frame;
  ASSERT_TRUE(decoder.next(&frame));
  EXPECT_EQ(frame.type, FrameType::kHeartbeat);
  ASSERT_TRUE(decoder.next(&frame));
  EXPECT_EQ(frame.type, FrameType::kBye);
  ASSERT_TRUE(decoder.next(&frame));
  EXPECT_EQ(frame.type, FrameType::kResult);
  EXPECT_EQ(frame.payload, "raw");
  EXPECT_FALSE(decoder.next(&frame));
}

TEST(FrameTest, BadMagicFailsFastEvenOnAPartialHeader) {
  // A poisoned stream must not wait for 12 bytes that will never arrive.
  EXPECT_EQ(decode_errc("HTTP"), FrameErrc::kBadMagic);
  EXPECT_EQ(decode_errc("A@"), FrameErrc::kBadMagic);
  EXPECT_EQ(decode_errc(std::string("\0\0\0\0", 4)), FrameErrc::kBadMagic);
}

TEST(FrameTest, HeaderFieldRejection) {
  std::string bytes = encode_frame(FrameType::kJob, "{}");
  bytes[4] = 0x7f;  // version
  EXPECT_EQ(decode_errc(bytes), FrameErrc::kUnsupportedVersion);

  bytes = encode_frame(FrameType::kJob, "{}");
  bytes[6] = 0x00;  // type below range
  EXPECT_EQ(decode_errc(bytes), FrameErrc::kBadType);
  bytes[6] = 0x08;  // type above range (0x07 became METRICS in §11.8)
  EXPECT_EQ(decode_errc(bytes), FrameErrc::kBadType);

  bytes = encode_frame(FrameType::kJob, "{}");
  bytes[7] = 0x01;  // reserved byte
  EXPECT_EQ(decode_errc(bytes), FrameErrc::kReservedNonzero);
}

TEST(FrameTest, DeclaredLengthOverCapIsRejectedBeforeBuffering) {
  // A control frame claiming a 16 MiB payload must die on header validation —
  // the decoder never waits for (or allocates) the phantom payload.
  std::string bytes = encode_frame(FrameType::kHeartbeat, "{}");
  bytes[10] = 0x01;  // length byte 2: declared length = 2 + (1 << 16) ... still small
  bytes[11] = 0x01;  // length byte 3: + (1 << 24) — now far over the 1 MiB cap
  EXPECT_EQ(decode_errc(bytes), FrameErrc::kOversizedPayload);
}

TEST(FrameTest, EncodeRejectsOversizedControlPayload) {
  const std::string big(kMaxControlPayload + 1, 'x');
  EXPECT_THROW((void)encode_frame(FrameType::kError, big), FrameError);
  // The same size is fine for RESULT, whose cap is the 1 GiB container bound.
  EXPECT_NO_THROW((void)encode_frame(FrameType::kResult, big));
}

TEST(FrameTest, PayloadJsonRejectsGarbageAndNonObjects) {
  Frame frame;
  frame.type = FrameType::kHello;
  frame.payload = "not json";
  EXPECT_THROW((void)frame_payload_json(frame), FrameError);
  frame.payload = "[1, 2]";
  EXPECT_THROW((void)frame_payload_json(frame), FrameError);
  frame.payload = R"({"ok": true})";
  EXPECT_TRUE(frame_payload_json(frame).is_object());
  // RESULT payloads are opaque container bytes: JSON access is a layering
  // violation, even when the bytes happen to parse.
  frame.type = FrameType::kResult;
  frame.payload = "{}";
  EXPECT_THROW((void)frame_payload_json(frame), FrameError);
}

TEST(FrameTest, HelloRoundTripAndSchemaEnforcement) {
  HelloMsg msg;
  msg.worker = "host:1234";
  msg.threads = 8;
  const Frame frame = decode_one(encode_hello(msg));
  ASSERT_EQ(frame.type, FrameType::kHello);
  const HelloMsg back = hello_from_json(frame_payload_json(frame));
  EXPECT_EQ(back.protocol, kProtocolVersion);
  EXPECT_EQ(back.worker, "host:1234");
  EXPECT_EQ(back.threads, 8);

  EXPECT_THROW((void)hello_from_json(JsonValue::parse(R"({"worker": "w"})")), FrameError);
  EXPECT_THROW((void)hello_from_json(JsonValue::parse(R"({"protocol": 1})")), FrameError);
}

TEST(FrameTest, JobRoundTripAndValidation) {
  JobMsg msg;
  msg.shard = 2;
  msg.shards = 5;
  msg.chips = 100;
  msg.seed = 2014;
  msg.checkpoints = {1.0, 2.5, 10.0};
  msg.run = "fleet_study";
  msg.format = "binary";
  msg.attempt = 3;
  const Frame frame = decode_one(encode_job(msg));
  ASSERT_EQ(frame.type, FrameType::kJob);
  const JobMsg back = job_from_json(frame_payload_json(frame));
  EXPECT_EQ(back.shard, 2);
  EXPECT_EQ(back.shards, 5);
  EXPECT_EQ(back.chips, 100);
  EXPECT_EQ(back.seed, 2014u);
  EXPECT_EQ(back.checkpoints, msg.checkpoints);
  EXPECT_EQ(back.run, "fleet_study");
  EXPECT_EQ(back.format, "binary");
  EXPECT_EQ(back.attempt, 3);

  // Out-of-range coordinates and unknown formats are schema violations.
  JobMsg bad = msg;
  bad.shard = 5;  // == shards
  EXPECT_THROW((void)job_from_json(job_to_json(bad)), FrameError);
  bad = msg;
  bad.chips = 1;
  EXPECT_THROW((void)job_from_json(job_to_json(bad)), FrameError);
  bad = msg;
  bad.checkpoints.clear();
  EXPECT_THROW((void)job_from_json(job_to_json(bad)), FrameError);
  bad = msg;
  bad.format = "xml";
  EXPECT_THROW((void)job_from_json(job_to_json(bad)), FrameError);
}

TEST(FrameTest, EnrollJobRoundTripAndKindDefault) {
  JobMsg msg;
  msg.kind = "enroll";
  msg.shard = 1;
  msg.shards = 4;
  msg.seed = 2014;
  msg.devices = 1000000;
  msg.bits = 128;
  msg.model = "synthetic";
  const JsonValue doc = job_to_json(msg);
  // Study-only keys stay off an enroll JOB's wire document.
  EXPECT_FALSE(doc.contains("chips"));
  EXPECT_FALSE(doc.contains("checkpoints"));
  const JobMsg back = job_from_json(frame_payload_json(decode_one(encode_job(msg))));
  EXPECT_EQ(back.kind, "enroll");
  EXPECT_EQ(back.shard, 1);
  EXPECT_EQ(back.shards, 4);
  EXPECT_EQ(back.seed, 2014u);
  EXPECT_EQ(back.devices, 1000000u);
  EXPECT_EQ(back.bits, 128);
  EXPECT_EQ(back.model, "synthetic");

  JobMsg bad = msg;
  bad.devices = 0;
  EXPECT_THROW((void)job_from_json(job_to_json(bad)), FrameError);
  bad = msg;
  bad.model = "arbiter";
  EXPECT_THROW((void)job_from_json(job_to_json(bad)), FrameError);
  bad = msg;
  bad.kind = "render";
  EXPECT_THROW((void)job_from_json(job_to_json(bad)), FrameError);

  // A JOB without "kind" predates enrollment jobs: it decodes as a study.
  const JobMsg old = job_from_json(JsonValue::parse(
      R"({"shard": 0, "shards": 1, "chips": 8, "seed": 1, "checkpoints": [1],)"
      R"( "run": "r", "format": "json"})"));
  EXPECT_EQ(old.kind, "study");
  EXPECT_EQ(old.chips, 8);
}

TEST(HeartbeatTest, JsonRoundTrip) {
  telemetry::Heartbeat beat;
  beat.ts_unix_ms = 1722945600123;
  beat.shard = 3;
  beat.stage = "e2.aro.y10";
  beat.done = 7;
  beat.total = 22;
  beat.elapsed_ms = 451.25;
  const telemetry::Heartbeat back = heartbeat_from_json(heartbeat_to_json(beat));
  EXPECT_EQ(back.ts_unix_ms, beat.ts_unix_ms);
  EXPECT_EQ(back.shard, beat.shard);
  EXPECT_EQ(back.stage, beat.stage);
  EXPECT_EQ(back.done, beat.done);
  EXPECT_EQ(back.total, beat.total);
  EXPECT_EQ(back.elapsed_ms, beat.elapsed_ms);
}

TEST(HeartbeatTest, RejectsOutOfRangeFields) {
  telemetry::Heartbeat beat;
  beat.stage = "x";
  beat.done = 5;
  beat.total = 3;  // done > total
  EXPECT_THROW((void)heartbeat_from_json(heartbeat_to_json(beat)), std::exception);
  beat.done = 1;
  beat.total = 3;
  beat.shard = -2;
  EXPECT_THROW((void)heartbeat_from_json(heartbeat_to_json(beat)), std::exception);
}

TEST(HeartbeatTest, SchemaViolationsAreTypedFrameErrors) {
  const auto reject = [](const std::string& json) {
    try {
      (void)heartbeat_from_json(JsonValue::parse(json));
      ADD_FAILURE() << "accepted " << json;
    } catch (const FrameError& e) {
      EXPECT_EQ(e.code(), FrameErrc::kBadPayload) << json;
    }
  };
  reject(R"({"shard": 0, "stage": "s", "done": 0, "total": 1})");  // no ts_unix_ms
  reject(R"({"ts_unix_ms": 1, "shard": 0, "done": 0, "total": 1})");  // no stage
  reject(R"({"ts_unix_ms": 1, "shard": 0, "stage": 7, "done": 0, "total": 1})");
  reject(R"({"ts_unix_ms": 1e300, "shard": 0, "stage": "s", "done": 0, "total": 1})");
  reject(R"({"ts_unix_ms": 1, "shard": 1.5, "stage": "s", "done": 0, "total": 1})");
  reject(R"({"ts_unix_ms": 1, "shard": 0, "stage": "s", "done": -1, "total": 1})");
  reject(R"({"ts_unix_ms": 1, "shard": 0, "stage": "s", "done": 0, "total": 1e300})");
  reject(R"({"ts_unix_ms": 1, "shard": 0, "stage": "s", "done": 0, "total": 1,)"
         R"( "elapsed_ms": "soon"})");
  const telemetry::Heartbeat beat = heartbeat_from_json(frame_payload_json(decode_one(
      encode_heartbeat({1722945600123, 2, "e3", 4, 9, 12.5}))));
  EXPECT_EQ(beat.shard, 2);
  EXPECT_EQ(beat.done, 4);
  EXPECT_EQ(beat.total, 9);
}

/// The decode must fail as FrameError(kBadPayload): the one exception type
/// the coordinator maps to a protocol error.
template <typename Decode>
void expect_bad_payload(Decode decode, const std::string& json) {
  try {
    (void)decode(JsonValue::parse(json));
    ADD_FAILURE() << "accepted " << json;
  } catch (const FrameError& e) {
    EXPECT_EQ(e.code(), FrameErrc::kBadPayload) << json;
  }
}

TEST(FrameTest, IntegerFieldsMustBeIntegralAndInRange) {
  // None of these may reach a static_cast of an unchecked JSON double: a
  // HELLO protocol of 65537 or 1.9 would decode as 1 and pass the version
  // check, and the out-of-range values would be float-to-int overflow (UB).
  const auto hello = [](const JsonValue& doc) { return hello_from_json(doc); };
  expect_bad_payload(hello, R"({"protocol": 65537, "worker": "w"})");
  expect_bad_payload(hello, R"({"protocol": 1.9, "worker": "w"})");
  expect_bad_payload(hello, R"({"protocol": -1, "worker": "w"})");
  expect_bad_payload(hello, R"({"protocol": "1", "worker": "w"})");
  expect_bad_payload(hello, R"({"protocol": 1, "worker": "w", "threads": 1e300})");
  expect_bad_payload(hello, R"({"protocol": 1, "worker": "w", "threads": "8"})");
  expect_bad_payload(hello, R"({"protocol": 1, "worker": "w", "ts_unix_ms": 1e300})");
  expect_bad_payload(hello, R"({"protocol": 1, "worker": 5})");

  const auto job = [](const JsonValue& doc) { return job_from_json(doc); };
  const std::string study = R"("kind": "study", "chips": 8, "checkpoints": [1],)"
                            R"( "run": "r", "format": "json")";
  const auto study_job = [&](const std::string& fields) {
    return "{" + study + ", " + fields + "}";
  };
  expect_bad_payload(job, study_job(R"("shard": 1e300, "shards": 2, "seed": 1)"));
  expect_bad_payload(job, study_job(R"("shard": 0.5, "shards": 2, "seed": 1)"));
  expect_bad_payload(job, study_job(R"("shard": 0, "shards": 1e300, "seed": 1)"));
  expect_bad_payload(job, study_job(R"("shard": 0, "shards": 2, "seed": -5)"));
  expect_bad_payload(job, study_job(R"("shard": 0, "shards": 2, "seed": 1e300)"));
  expect_bad_payload(job, study_job(R"("shard": 0, "shards": 2, "seed": 1, "attempt": 1e300)"));
  expect_bad_payload(job, study_job(R"("shard": 0, "shards": 2, "seed": 1, "trace_id": 7)"));
  expect_bad_payload(job, R"({"shard": 0, "shards": 2, "seed": 1, "chips": -1e30,)"
                          R"( "checkpoints": [1], "run": "r", "format": "json"})");
  expect_bad_payload(job, R"({"kind": 5, "shard": 0, "shards": 2, "seed": 1})");
  const std::string enroll = R"({"kind": "enroll", "shard": 0, "shards": 1, "seed": 1,)"
                             R"( "bits": 64, "model": "synthetic", "devices": )";
  expect_bad_payload(job, enroll + "-1e30}");
  expect_bad_payload(job, enroll + "10.5}");
  expect_bad_payload(job, R"({"kind": "enroll", "shard": 0, "shards": 1, "seed": 1,)"
                          R"( "bits": 1e300, "model": "synthetic", "devices": 10})");

  const auto error = [](const JsonValue& doc) { return error_from_json(doc); };
  expect_bad_payload(error, R"({"code": "job-failed", "shard": 1e300})");
  expect_bad_payload(error, R"({"code": "job-failed", "shard": -2})");
  expect_bad_payload(error, R"({"code": "job-failed", "message": 3})");

  const auto metrics = [](const JsonValue& doc) { return metrics_from_json(doc); };
  expect_bad_payload(metrics, R"({"ts_unix_ms": 1e300, "metrics": {}})");
  expect_bad_payload(metrics, R"({"ts_unix_ms": 1.5, "metrics": {}})");
  expect_bad_payload(metrics, R"({"ts_unix_ms": 1, "metrics": {}, "seq": 1e300})");
  expect_bad_payload(metrics, R"({"ts_unix_ms": 1, "metrics": {}, "jobs_done": 1e300})");
  expect_bad_payload(metrics, R"({"ts_unix_ms": 1, "metrics": {}, "jobs_in_flight": 0.5})");
  expect_bad_payload(metrics, R"({"ts_unix_ms": 1, "metrics": {}, "trace_epoch_unix_ms": "x"})");
}

TEST(FrameTest, SeedsAndFleetSizesStopBelowTwoToThe53) {
  // A JOB's seed and an enroll JOB's device count travel as JSON numbers
  // (IEEE doubles): 2^53 + 1 would arrive as 2^53, so 2^53 and above are
  // rejected instead of silently changed.
  const auto job = [](const JsonValue& doc) { return job_from_json(doc); };
  const std::string head = R"({"shard": 0, "shards": 1, "chips": 8, "checkpoints": [1],)"
                           R"( "run": "r", "format": "json", "seed": )";
  expect_bad_payload(job, head + "9007199254740992}");
  expect_bad_payload(job, head + "9007199254740993}");
  expect_bad_payload(job, R"({"kind": "enroll", "shard": 0, "shards": 1, "seed": 1,)"
                          R"( "bits": 64, "model": "sim", "devices": 9007199254740992})");

  JobMsg msg;
  msg.chips = 8;
  msg.checkpoints = {1.0};
  msg.run = "r";
  msg.format = "json";
  msg.seed = 9007199254740991ULL;  // 2^53 - 1: the largest seed the wire carries
  EXPECT_EQ(job_from_json(frame_payload_json(decode_one(encode_job(msg)))).seed,
            9007199254740991ULL);
  msg.kind = "enroll";
  msg.bits = 64;
  msg.model = "sim";
  msg.devices = 9007199254740991ULL;
  EXPECT_EQ(job_from_json(job_to_json(msg)).devices, 9007199254740991ULL);
}

TEST(FrameTest, ErrorRoundTripWithDefaults) {
  ErrorMsg msg;
  msg.code = "job-failed";
  msg.message = "shard study threw";
  msg.shard = 4;
  const ErrorMsg back = error_from_json(frame_payload_json(decode_one(encode_error(msg))));
  EXPECT_EQ(back.code, "job-failed");
  EXPECT_EQ(back.message, "shard study threw");
  EXPECT_EQ(back.shard, 4);
  // `code` is the only required field.
  const ErrorMsg minimal = error_from_json(JsonValue::parse(R"({"code": "bad-frame"})"));
  EXPECT_EQ(minimal.code, "bad-frame");
  EXPECT_EQ(minimal.message, "");
  EXPECT_EQ(minimal.shard, -1);
  EXPECT_THROW((void)error_from_json(JsonValue::parse(R"({"message": "no code"})")),
               FrameError);
}

TEST(FrameTest, HelloCarriesOptionalSenderClock) {
  HelloMsg msg;
  msg.worker = "w";
  msg.threads = 1;
  msg.ts_unix_ms = 1754700000123;
  const HelloMsg back = hello_from_json(frame_payload_json(decode_one(encode_hello(msg))));
  EXPECT_EQ(back.ts_unix_ms, 1754700000123);
  // Pre-observability HELLOs omit the clock entirely; decode must not require it.
  const HelloMsg old = hello_from_json(
      JsonValue::parse(R"({"protocol": 1, "worker": "w", "threads": 2})"));
  EXPECT_EQ(old.ts_unix_ms, 0);
}

TEST(FrameTest, JobCarriesOptionalTraceContext) {
  JobMsg msg;
  msg.shard = 0;
  msg.shards = 1;
  msg.chips = 8;
  msg.checkpoints = {1.0};
  msg.run = "fleet_study";
  msg.format = "json";
  msg.trace_id = "deadbeefcafef00d";
  msg.parent_span = "dispatch/0#1";
  const JobMsg back = job_from_json(frame_payload_json(decode_one(encode_job(msg))));
  EXPECT_EQ(back.trace_id, "deadbeefcafef00d");
  EXPECT_EQ(back.parent_span, "dispatch/0#1");
  // Without trace context the keys are absent from the wire document and the
  // decoded fields stay empty — old coordinators keep producing old JOBs.
  msg.trace_id.clear();
  msg.parent_span.clear();
  const JsonValue doc = job_to_json(msg);
  EXPECT_FALSE(doc.contains("trace_id"));
  EXPECT_FALSE(doc.contains("parent_span"));
  EXPECT_TRUE(job_from_json(doc).trace_id.empty());
}

TEST(FrameTest, MetricsRoundTrip) {
  MetricsMsg msg;
  msg.ts_unix_ms = 1754700001000;
  msg.seq = 7;
  msg.trace_epoch_unix_ms = 1754699990000.5;
  msg.jobs_done = 3;
  msg.jobs_in_flight = 1;
  JsonValue::Object counters;
  counters["fleet.jobs_run"] = JsonValue(3);
  JsonValue::Object metrics;
  metrics["counters"] = JsonValue(std::move(counters));
  msg.metrics = JsonValue(std::move(metrics));
  JsonValue::Object span;
  span["name"] = JsonValue(std::string("fleet.job"));
  span["ph"] = JsonValue(std::string("X"));
  span["ts"] = JsonValue(12.0);
  span["dur"] = JsonValue(34.0);
  msg.spans.push_back(JsonValue(std::move(span)));

  const Frame frame = decode_one(encode_metrics(msg));
  ASSERT_EQ(frame.type, FrameType::kMetrics);
  const MetricsMsg back = metrics_from_json(frame_payload_json(frame));
  EXPECT_EQ(back.ts_unix_ms, 1754700001000);
  EXPECT_EQ(back.seq, 7);
  EXPECT_DOUBLE_EQ(back.trace_epoch_unix_ms, 1754699990000.5);
  EXPECT_EQ(back.jobs_done, 3);
  EXPECT_EQ(back.jobs_in_flight, 1);
  EXPECT_DOUBLE_EQ(back.metrics.at("counters").number_or("fleet.jobs_run", 0.0), 3.0);
  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_EQ(back.spans[0].at("name").as_string(), "fleet.job");
}

TEST(FrameTest, MetricsSchemaEnforcement) {
  const auto reject = [](const std::string& json) {
    EXPECT_THROW((void)metrics_from_json(JsonValue::parse(json)), FrameError) << json;
  };
  reject(R"({"metrics": {}})");                            // missing ts_unix_ms
  reject(R"({"ts_unix_ms": 1})");                          // missing metrics object
  reject(R"({"ts_unix_ms": 1, "metrics": [1, 2]})");       // metrics not an object
  reject(R"({"ts_unix_ms": 0, "metrics": {}})");           // ts out of range
  reject(R"({"ts_unix_ms": 1, "metrics": {}, "seq": -1})");
  reject(R"({"ts_unix_ms": 1, "metrics": {}, "jobs_done": -2})");
  reject(R"({"ts_unix_ms": 1, "metrics": {}, "jobs_in_flight": -1})");
  reject(R"({"ts_unix_ms": 1, "metrics": {}, "trace_epoch_unix_ms": -5})");
  reject(R"({"ts_unix_ms": 1, "metrics": {}, "spans": {"not": "array"}})");
  reject(R"({"ts_unix_ms": 1, "metrics": {}, "spans": [42]})");  // span not object
  // Minimal valid document: everything beyond ts + metrics is optional.
  const MetricsMsg minimal =
      metrics_from_json(JsonValue::parse(R"({"ts_unix_ms": 1, "metrics": {}})"));
  EXPECT_EQ(minimal.seq, 0);
  EXPECT_TRUE(minimal.spans.empty());
}

TEST(FrameTest, MetricsTruncationAtEveryByteNeedsMoreAndNeverThrows) {
  MetricsMsg msg;
  msg.ts_unix_ms = 1754700001000;
  msg.metrics = JsonValue(JsonValue::Object{});
  const std::string whole = encode_metrics(msg);
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(whole.substr(0, cut));
    Frame frame;
    EXPECT_FALSE(decoder.next(&frame)) << "cut at " << cut;
    decoder.feed(whole.substr(cut));
    EXPECT_TRUE(decoder.next(&frame)) << "cut at " << cut;
    EXPECT_EQ(frame.type, FrameType::kMetrics);
    EXPECT_NO_THROW((void)metrics_from_json(frame_payload_json(frame)));
  }
}

TEST(FrameTest, UnknownJsonKeysAreIgnoredForForwardCompatibility) {
  const JsonValue doc = JsonValue::parse(
      R"({"protocol": 1, "worker": "w", "threads": 2, "future_field": [1, 2, 3]})");
  EXPECT_EQ(hello_from_json(doc).worker, "w");
}

}  // namespace
}  // namespace aropuf::net
