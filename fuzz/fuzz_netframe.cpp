// Fuzz entry point for the ARPF frame decoder (net/frame.hpp) — the fleet
// coordinator's first line of defense against hostile or corrupted TCP
// streams.
//
// Contract under test: feeding arbitrary bytes to FrameDecoder (in arbitrary
// chunkings) either yields frames or throws FrameError — never any other
// exception, never a crash, never a sanitizer finding, and never an
// allocation driven past the per-type payload caps by a declared length.
// Decoded control frames are pushed through frame_payload_json and the typed
// message parsers, whose schema rejections must also surface as FrameError.
#include <cstdint>
#include <cstdlib>
#include <string>

#include "net/frame.hpp"

namespace {

/// Walks every decoded frame the way the coordinator/worker would.
void consume(const aropuf::net::Frame& frame) {
  using namespace aropuf::net;
  if (frame.type == FrameType::kResult || frame.type == FrameType::kBye) {
    return;  // opaque container bytes / empty payload: nothing to parse
  }
  const aropuf::JsonValue doc = frame_payload_json(frame);
  switch (frame.type) {
    case FrameType::kHello:
      (void)hello_from_json(doc);
      break;
    case FrameType::kJob:
      (void)job_from_json(doc);
      break;
    case FrameType::kHeartbeat:
      (void)heartbeat_from_json(doc);
      break;
    case FrameType::kError:
      (void)error_from_json(doc);
      break;
    case FrameType::kMetrics:
      (void)metrics_from_json(doc);
      break;
    default:
      break;  // RESULT and BYE returned above
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  using namespace aropuf::net;
  // Split the input at a data-derived point and feed it in two chunks: the
  // same bytes must decode identically under any packetization, and the
  // header-prefix fast path gets exercised with partial headers.
  const std::size_t split = size == 0 ? 0 : data[0] % (size + 1);
  const auto* bytes = reinterpret_cast<const char*>(data);
  try {
    FrameDecoder decoder;
    Frame frame;
    decoder.feed(bytes, split);
    while (decoder.next(&frame)) consume(frame);
    decoder.feed(bytes + split, size - split);
    while (decoder.next(&frame)) consume(frame);
  } catch (const FrameError&) {
    // The one sanctioned outcome for rejected input.
  }
  // Any other exception type escapes on purpose: libFuzzer (and the
  // standalone replay driver) report it as a finding.
  return 0;
}

#include "standalone_main.inc"
