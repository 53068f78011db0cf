#include "net/frame.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/wire.hpp"

namespace aropuf::net {

namespace {

/// The decoder reads the header only once all 12 bytes are buffered, so a
/// cursor shortfall there is a bug in this file, not bad input.
[[noreturn]] void header_shortfall(const char* what, std::size_t, std::size_t, std::size_t) {
  throw std::logic_error(std::string("ARPF header read past the buffered bytes: ") + what);
}

bool valid_type(std::uint8_t byte) {
  return byte >= static_cast<std::uint8_t>(FrameType::kHello) &&
         byte <= static_cast<std::uint8_t>(FrameType::kMetrics);
}

std::uint32_t payload_cap(FrameType type) {
  return type == FrameType::kResult ? kMaxResultPayload : kMaxControlPayload;
}

[[noreturn]] void bad_payload(const std::string& what) {
  throw FrameError(FrameErrc::kBadPayload, what);
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Field accessors for control payloads.  Every field a codec reads goes
/// through one of these, so each schema violation -- a missing required key,
/// a wrong JSON type, a non-integral or out-of-range number -- is kBadPayload:
/// never an untyped throw, never a float-to-int cast of an unchecked double.
/// A `fallback` stands in for an absent optional key.
const JsonValue* field(const JsonValue& doc, const char* key, bool (JsonValue::*is)() const,
                       bool optional = false) {
  if (!doc.contains(key)) {
    if (!optional) bad_payload(std::string("missing field '") + key + "'");
    return nullptr;
  }
  if (!(doc.at(key).*is)()) bad_payload(std::string("wrong JSON type for field '") + key + "'");
  return &doc.at(key);
}

/// An integral JSON number within [lo, hi] (DESIGN.md §11.3).
std::int64_t int_field(const JsonValue& doc, const char* key, std::int64_t lo, std::int64_t hi,
                       std::optional<std::int64_t> fallback = std::nullopt) {
  const JsonValue* value = field(doc, key, &JsonValue::is_number, fallback.has_value());
  if (value == nullptr) return *fallback;
  const std::optional<std::int64_t> n = value->integer_in(lo, hi);
  if (!n) bad_payload(std::string("field '") + key + "' is not an integer in range");
  return *n;
}

double number_field(const JsonValue& doc, const char* key, double fallback) {
  const JsonValue* value = field(doc, key, &JsonValue::is_number, true);
  return value != nullptr ? value->as_number() : fallback;
}

std::string string_field(const JsonValue& doc, const char* key,
                         std::optional<std::string> fallback = std::nullopt) {
  const JsonValue* value = field(doc, key, &JsonValue::is_string, fallback.has_value());
  return value != nullptr ? value->as_string() : *fallback;
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kJob: return "JOB";
    case FrameType::kHeartbeat: return "HEARTBEAT";
    case FrameType::kResult: return "RESULT";
    case FrameType::kError: return "ERROR";
    case FrameType::kBye: return "BYE";
    case FrameType::kMetrics: return "METRICS";
  }
  return "?";
}

const char* frame_errc_name(FrameErrc code) {
  switch (code) {
    case FrameErrc::kBadMagic: return "bad_magic";
    case FrameErrc::kUnsupportedVersion: return "unsupported_version";
    case FrameErrc::kBadType: return "bad_type";
    case FrameErrc::kReservedNonzero: return "reserved_nonzero";
    case FrameErrc::kOversizedPayload: return "oversized_payload";
    case FrameErrc::kBadPayload: return "bad_payload";
  }
  return "unknown";
}

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > payload_cap(type)) {
    throw FrameError(FrameErrc::kOversizedPayload,
                     std::string(frame_type_name(type)) + " payload of " +
                         std::to_string(payload.size()) + " bytes exceeds the cap");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kFrameMagic, sizeof kFrameMagic);
  wire::append_le(out, kProtocolVersion);
  wire::append_le(out, static_cast<std::uint8_t>(type));
  wire::append_le(out, std::uint8_t{0});  // reserved
  wire::append_le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

bool FrameDecoder::next(Frame* frame) {
  // Validate whatever magic prefix exists so a poisoned stream fails on the
  // first bytes, not after buffering a phantom "payload".
  const std::size_t have = std::min(buffer_.size(), sizeof kFrameMagic);
  if (std::memcmp(buffer_.data(), kFrameMagic, have) != 0) {
    throw FrameError(FrameErrc::kBadMagic, "stream does not start with ARPF");
  }
  if (buffer_.size() < kFrameHeaderSize) return false;
  wire::ByteCursor cur(buffer_, &header_shortfall);
  (void)cur.bytes(sizeof kFrameMagic, "magic");  // checked above
  const auto version = cur.read<std::uint16_t>("protocol version");
  if (version != kProtocolVersion) {
    throw FrameError(FrameErrc::kUnsupportedVersion,
                     "protocol version " + std::to_string(version) + " (reader knows " +
                         std::to_string(kProtocolVersion) + ")");
  }
  const auto type_byte = cur.read<std::uint8_t>("message type");
  if (!valid_type(type_byte)) {
    throw FrameError(FrameErrc::kBadType, "type byte " + std::to_string(type_byte));
  }
  if (cur.read<std::uint8_t>("reserved") != 0) {
    throw FrameError(FrameErrc::kReservedNonzero, "reserved byte must be zero");
  }
  const auto type = static_cast<FrameType>(type_byte);
  const auto length = cur.read<std::uint32_t>("payload length");
  if (length > payload_cap(type)) {
    throw FrameError(FrameErrc::kOversizedPayload,
                     std::string(frame_type_name(type)) + " declares " + std::to_string(length) +
                         " payload bytes, over the cap");
  }
  if (buffer_.size() < kFrameHeaderSize + length) return false;
  frame->type = type;
  frame->payload.assign(buffer_, kFrameHeaderSize, length);
  buffer_.erase(0, kFrameHeaderSize + length);
  return true;
}

JsonValue frame_payload_json(const Frame& frame) {
  if (frame.type == FrameType::kResult) {
    bad_payload("RESULT payload is an opaque shard-manifest container, not JSON");
  }
  JsonValue doc;
  try {
    doc = JsonValue::parse(frame.payload);
  } catch (const std::exception& e) {
    bad_payload(std::string(frame_type_name(frame.type)) + " payload is not valid JSON: " +
                e.what());
  }
  if (!doc.is_object()) {
    bad_payload(std::string(frame_type_name(frame.type)) + " payload root must be an object");
  }
  return doc;
}

// --- typed control messages -------------------------------------------------

JsonValue hello_to_json(const HelloMsg& msg) {
  JsonValue::Object obj;
  obj["protocol"] = JsonValue(static_cast<std::uint64_t>(msg.protocol));
  obj["worker"] = JsonValue(msg.worker);
  obj["threads"] = JsonValue(msg.threads);
  if (msg.ts_unix_ms > 0) obj["ts_unix_ms"] = JsonValue(static_cast<double>(msg.ts_unix_ms));
  return JsonValue(std::move(obj));
}

HelloMsg hello_from_json(const JsonValue& doc) {
  HelloMsg msg;
  msg.protocol = static_cast<std::uint16_t>(
      int_field(doc, "protocol", 0, std::numeric_limits<std::uint16_t>::max()));
  msg.worker = string_field(doc, "worker");
  msg.threads = static_cast<int>(int_field(doc, "threads", 0, kIntMax, 0));
  msg.ts_unix_ms = int_field(doc, "ts_unix_ms", 0, kJsonMaxExactInteger, 0);
  return msg;
}

JsonValue job_to_json(const JobMsg& msg) {
  JsonValue::Object obj;
  obj["kind"] = JsonValue(msg.kind);
  obj["shard"] = JsonValue(msg.shard);
  obj["shards"] = JsonValue(msg.shards);
  obj["seed"] = JsonValue(msg.seed);
  if (msg.kind == "enroll") {
    obj["devices"] = JsonValue(msg.devices);
    obj["bits"] = JsonValue(msg.bits);
    obj["model"] = JsonValue(msg.model);
  } else {
    obj["chips"] = JsonValue(msg.chips);
    JsonValue::Array checkpoints;
    checkpoints.reserve(msg.checkpoints.size());
    for (const double y : msg.checkpoints) checkpoints.emplace_back(y);
    obj["checkpoints"] = JsonValue(std::move(checkpoints));
    obj["run"] = JsonValue(msg.run);
    obj["format"] = JsonValue(msg.format);
  }
  obj["attempt"] = JsonValue(msg.attempt);
  if (!msg.trace_id.empty()) obj["trace_id"] = JsonValue(msg.trace_id);
  if (!msg.parent_span.empty()) obj["parent_span"] = JsonValue(msg.parent_span);
  return JsonValue(std::move(obj));
}

JobMsg job_from_json(const JsonValue& doc) {
  JobMsg msg;
  // A JOB without "kind" predates enrollment jobs and is a study job.
  msg.kind = string_field(doc, "kind", "study");
  msg.shard = static_cast<int>(int_field(doc, "shard", 0, kIntMax));
  msg.shards = static_cast<int>(int_field(doc, "shards", 1, kIntMax));
  // Seeds travel as JSON numbers: only those below 2^53 arrive unchanged.
  msg.seed = static_cast<std::uint64_t>(int_field(doc, "seed", 0, kJsonMaxExactInteger));
  msg.attempt = static_cast<int>(int_field(doc, "attempt", 1, kIntMax, 1));
  msg.trace_id = string_field(doc, "trace_id", "");
  msg.parent_span = string_field(doc, "parent_span", "");
  if (msg.shard >= msg.shards) bad_payload("JOB fields out of range");
  if (msg.kind == "enroll") {
    msg.devices =
        static_cast<std::uint64_t>(int_field(doc, "devices", 1, kJsonMaxExactInteger));
    msg.bits = static_cast<int>(int_field(doc, "bits", 1, kIntMax));
    msg.model = string_field(doc, "model");
    if (msg.model != "synthetic" && msg.model != "sim") bad_payload("JOB fields out of range");
    return msg;
  }
  if (msg.kind != "study") bad_payload("unknown JOB kind '" + msg.kind + "'");
  msg.chips = static_cast<int>(int_field(doc, "chips", 2, kIntMax));
  for (const JsonValue& y : field(doc, "checkpoints", &JsonValue::is_array)->as_array()) {
    if (!y.is_number()) bad_payload("non-numeric checkpoint");
    msg.checkpoints.push_back(y.as_number());
  }
  msg.run = string_field(doc, "run");
  msg.format = string_field(doc, "format");
  if (msg.checkpoints.empty() || (msg.format != "json" && msg.format != "binary")) {
    bad_payload("JOB fields out of range");
  }
  return msg;
}

JsonValue error_to_json(const ErrorMsg& msg) {
  JsonValue::Object obj;
  obj["code"] = JsonValue(msg.code);
  obj["message"] = JsonValue(msg.message);
  obj["shard"] = JsonValue(msg.shard);
  return JsonValue(std::move(obj));
}

ErrorMsg error_from_json(const JsonValue& doc) {
  ErrorMsg msg;
  msg.code = string_field(doc, "code");
  msg.message = string_field(doc, "message", "");
  msg.shard = static_cast<int>(int_field(doc, "shard", -1, kIntMax, -1));
  return msg;
}

JsonValue heartbeat_to_json(const telemetry::Heartbeat& beat) {
  JsonValue::Object obj;
  obj["ts_unix_ms"] = JsonValue(static_cast<double>(beat.ts_unix_ms));
  obj["shard"] = JsonValue(beat.shard);
  obj["stage"] = JsonValue(beat.stage);
  obj["done"] = JsonValue(static_cast<double>(beat.done));
  obj["total"] = JsonValue(static_cast<double>(beat.total));
  obj["elapsed_ms"] = JsonValue(beat.elapsed_ms);
  return JsonValue(std::move(obj));
}

telemetry::Heartbeat heartbeat_from_json(const JsonValue& doc) {
  telemetry::Heartbeat beat;
  beat.ts_unix_ms = int_field(doc, "ts_unix_ms", 0, kJsonMaxExactInteger);
  beat.shard = static_cast<int>(int_field(doc, "shard", 0, kIntMax));
  beat.stage = string_field(doc, "stage");
  beat.done = int_field(doc, "done", 0, kJsonMaxExactInteger);
  beat.total = int_field(doc, "total", 0, kJsonMaxExactInteger);
  beat.elapsed_ms = number_field(doc, "elapsed_ms", 0.0);
  if (beat.done > beat.total) bad_payload("HEARTBEAT fields out of range");
  return beat;
}

JsonValue metrics_to_json(const MetricsMsg& msg) {
  JsonValue::Object obj;
  obj["ts_unix_ms"] = JsonValue(static_cast<double>(msg.ts_unix_ms));
  obj["seq"] = JsonValue(static_cast<double>(msg.seq));
  obj["trace_epoch_unix_ms"] = JsonValue(msg.trace_epoch_unix_ms);
  obj["jobs_done"] = JsonValue(msg.jobs_done);
  obj["jobs_in_flight"] = JsonValue(msg.jobs_in_flight);
  obj["metrics"] = msg.metrics.is_object() ? msg.metrics : JsonValue(JsonValue::Object{});
  obj["spans"] = JsonValue(msg.spans);
  return JsonValue(std::move(obj));
}

MetricsMsg metrics_from_json(const JsonValue& doc) {
  MetricsMsg msg;
  msg.ts_unix_ms = int_field(doc, "ts_unix_ms", 1, kJsonMaxExactInteger);
  msg.seq = int_field(doc, "seq", 0, kJsonMaxExactInteger, 0);
  msg.trace_epoch_unix_ms = number_field(doc, "trace_epoch_unix_ms", 0.0);
  msg.jobs_done = static_cast<int>(int_field(doc, "jobs_done", 0, kIntMax, 0));
  msg.jobs_in_flight = static_cast<int>(int_field(doc, "jobs_in_flight", 0, kIntMax, 0));
  msg.metrics = *field(doc, "metrics", &JsonValue::is_object);
  if (const JsonValue* spans = field(doc, "spans", &JsonValue::is_array, true)) {
    for (const JsonValue& span : spans->as_array()) {
      if (!span.is_object()) bad_payload("non-object span entry");
      msg.spans.push_back(span);
    }
  }
  if (msg.trace_epoch_unix_ms < 0.0) bad_payload("METRICS fields out of range");
  return msg;
}

std::string encode_hello(const HelloMsg& msg) {
  return encode_frame(FrameType::kHello, hello_to_json(msg).dump());
}

std::string encode_job(const JobMsg& msg) {
  return encode_frame(FrameType::kJob, job_to_json(msg).dump());
}

std::string encode_error(const ErrorMsg& msg) {
  return encode_frame(FrameType::kError, error_to_json(msg).dump());
}

std::string encode_heartbeat(const telemetry::Heartbeat& beat) {
  return encode_frame(FrameType::kHeartbeat, heartbeat_to_json(beat).dump());
}

std::string encode_metrics(const MetricsMsg& msg) {
  return encode_frame(FrameType::kMetrics, metrics_to_json(msg).dump());
}

std::string encode_bye() { return encode_frame(FrameType::kBye, ""); }

}  // namespace aropuf::net
