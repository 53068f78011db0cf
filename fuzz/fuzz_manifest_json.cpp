// Fuzz entry point for the JSON shard-manifest ingestion path: the exact
// pipeline aropuf_fleet runs on every JSON shard manifest it merges.
//
// Contract under test: arbitrary bytes through JsonValue::parse →
// wrap_shard_manifest (structural validation) → AggregateBuilder fold either
// succeed or throw std::invalid_argument / std::runtime_error — never crash,
// never trip a sanitizer.  The JSON parser itself is the largest attack
// surface (recursion depth, number parsing, string escapes); the fold layers
// on top because corrupt-but-parseable manifests must also die cleanly.
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "telemetry/aggregate.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using aropuf::JsonValue;
  namespace telemetry = aropuf::telemetry;
  try {
    JsonValue doc = JsonValue::parse(std::string(reinterpret_cast<const char*>(data), size));
    telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kKeep);
    builder.add(telemetry::wrap_shard_manifest(std::move(doc), "<fuzz>"));
    (void)builder.finalize();
  } catch (const std::invalid_argument&) {
    // JSON syntax or type errors: sanctioned rejection.
  } catch (const std::runtime_error&) {
    // Manifest validation or fold consistency errors: sanctioned rejection.
  }
  // Anything else (logic_error, bad_alloc from a length-driven allocation,
  // a segfault) escapes and counts as a finding.
  return 0;
}

#include "standalone_main.inc"
