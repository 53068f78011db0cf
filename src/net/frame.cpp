#include "net/frame.hpp"

#include <cstring>

namespace aropuf::net {

namespace {

/// Little-endian field writers/readers: the wire is LE regardless of host.
void put_u16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint16_t get_u16(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(u[0] | (u[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) | (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) | (static_cast<std::uint32_t>(u[3]) << 24);
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

/// Required-field accessors: schema violations surface as FrameError so a
/// receiver has exactly one exception type to map to a protocol error.
double require_number(const JsonValue& doc, const char* key) {
  if (!doc.contains(key) || !doc.at(key).is_number()) {
    bad_payload(std::string("missing or non-numeric field '") + key + "'");
  }
  return doc.at(key).as_number();
}

std::string require_string(const JsonValue& doc, const char* key) {
  if (!doc.contains(key) || !doc.at(key).is_string()) {
    bad_payload(std::string("missing or non-string field '") + key + "'");
  }
  return doc.at(key).as_string();
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
  put_u16(&out, kProtocolVersion);
  out.push_back(static_cast<char>(type));
  out.push_back('\0');  // reserved
  put_u32(&out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

bool FrameDecoder::next(Frame* frame) {
  if (buffer_.size() < kFrameHeaderSize) {
    // Validate whatever magic prefix exists so a poisoned stream fails on the
    // first bytes, not after buffering a phantom "payload".
    const std::size_t have = std::min(buffer_.size(), sizeof kFrameMagic);
    if (std::memcmp(buffer_.data(), kFrameMagic, have) != 0) {
      throw FrameError(FrameErrc::kBadMagic, "stream does not start with ARPF");
    }
    return false;
  }
  if (std::memcmp(buffer_.data(), kFrameMagic, sizeof kFrameMagic) != 0) {
    throw FrameError(FrameErrc::kBadMagic, "stream does not start with ARPF");
  }
  const std::uint16_t version = get_u16(buffer_.data() + 4);
  if (version != kProtocolVersion) {
    throw FrameError(FrameErrc::kUnsupportedVersion,
                     "protocol version " + std::to_string(version) + " (reader knows " +
                         std::to_string(kProtocolVersion) + ")");
  }
  const auto type_byte = static_cast<std::uint8_t>(buffer_[6]);
  if (!valid_type(type_byte)) {
    throw FrameError(FrameErrc::kBadType, "type byte " + std::to_string(type_byte));
  }
  if (buffer_[7] != '\0') {
    throw FrameError(FrameErrc::kReservedNonzero, "reserved byte must be zero");
  }
  const auto type = static_cast<FrameType>(type_byte);
  const std::uint32_t length = get_u32(buffer_.data() + 8);
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
  msg.protocol = static_cast<std::uint16_t>(require_number(doc, "protocol"));
  msg.worker = require_string(doc, "worker");
  msg.threads = static_cast<int>(doc.number_or("threads", 0.0));
  msg.ts_unix_ms = static_cast<std::int64_t>(doc.number_or("ts_unix_ms", 0.0));
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
  msg.kind = doc.string_or("kind", "study");
  msg.shard = static_cast<int>(require_number(doc, "shard"));
  msg.shards = static_cast<int>(require_number(doc, "shards"));
  msg.seed = static_cast<std::uint64_t>(require_number(doc, "seed"));
  msg.attempt = static_cast<int>(doc.number_or("attempt", 1.0));
  msg.trace_id = doc.string_or("trace_id", "");
  msg.parent_span = doc.string_or("parent_span", "");
  if (msg.shards < 1 || msg.shard < 0 || msg.shard >= msg.shards) {
    bad_payload("JOB fields out of range");
  }
  if (msg.kind == "enroll") {
    msg.devices = static_cast<std::uint64_t>(require_number(doc, "devices"));
    msg.bits = static_cast<int>(require_number(doc, "bits"));
    msg.model = require_string(doc, "model");
    if (msg.devices < 1 || msg.bits < 1 || (msg.model != "synthetic" && msg.model != "sim")) {
      bad_payload("JOB fields out of range");
    }
    return msg;
  }
  if (msg.kind != "study") bad_payload("unknown JOB kind '" + msg.kind + "'");
  msg.chips = static_cast<int>(require_number(doc, "chips"));
  if (!doc.contains("checkpoints") || !doc.at("checkpoints").is_array()) {
    bad_payload("missing or non-array field 'checkpoints'");
  }
  for (const JsonValue& y : doc.at("checkpoints").as_array()) {
    if (!y.is_number()) bad_payload("non-numeric checkpoint");
    msg.checkpoints.push_back(y.as_number());
  }
  msg.run = require_string(doc, "run");
  msg.format = require_string(doc, "format");
  if (msg.chips < 2 || msg.checkpoints.empty() ||
      (msg.format != "json" && msg.format != "binary")) {
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
  msg.code = require_string(doc, "code");
  msg.message = doc.string_or("message", "");
  msg.shard = static_cast<int>(doc.number_or("shard", -1.0));
  return msg;
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
  msg.ts_unix_ms = static_cast<std::int64_t>(require_number(doc, "ts_unix_ms"));
  msg.seq = static_cast<std::int64_t>(doc.number_or("seq", 0.0));
  msg.trace_epoch_unix_ms = doc.number_or("trace_epoch_unix_ms", 0.0);
  msg.jobs_done = static_cast<int>(doc.number_or("jobs_done", 0.0));
  msg.jobs_in_flight = static_cast<int>(doc.number_or("jobs_in_flight", 0.0));
  if (!doc.contains("metrics") || !doc.at("metrics").is_object()) {
    bad_payload("missing or non-object field 'metrics'");
  }
  msg.metrics = doc.at("metrics");
  if (doc.contains("spans")) {
    if (!doc.at("spans").is_array()) bad_payload("non-array field 'spans'");
    for (const JsonValue& span : doc.at("spans").as_array()) {
      if (!span.is_object()) bad_payload("non-object span entry");
      msg.spans.push_back(span);
    }
  }
  if (msg.ts_unix_ms <= 0 || msg.seq < 0 || msg.jobs_done < 0 || msg.jobs_in_flight < 0 ||
      msg.trace_epoch_unix_ms < 0.0) {
    bad_payload("METRICS fields out of range");
  }
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

std::string encode_metrics(const MetricsMsg& msg) {
  return encode_frame(FrameType::kMetrics, metrics_to_json(msg).dump());
}

std::string encode_bye() { return encode_frame(FrameType::kBye, ""); }

}  // namespace aropuf::net
