// Golden encoder bytes for every binary format the repo writes: the ARPB
// shard-manifest container, the ARPS enrollment store, every ARPF control
// frame, and the record-binding / key-confirmation HMAC tags whose messages
// are built from little-endian fields.  Each encoder runs on fixed inputs
// and the SHA-256 of its output is pinned, so any change to the byte codec
// under these formats (common/wire.hpp) must be byte-for-byte or fail here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "auth/authenticator.hpp"
#include "auth/store_binary.hpp"
#include "keygen/sha256.hpp"
#include "net/frame.hpp"
#include "telemetry/binfmt.hpp"
#include "telemetry/progress.hpp"

namespace aropuf {
namespace {

std::string digest(const std::string& bytes) {
  return Sha256::to_hex(Sha256::hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size())));
}

std::string digest(const std::array<std::uint8_t, kRecordTagBytes>& tag) {
  return Sha256::to_hex(Sha256::hash(std::span<const std::uint8_t>(tag.data(), tag.size())));
}

JsonValue sample_header(std::uint64_t offset, std::uint64_t total, double lo, double hi,
                        int bins) {
  JsonValue::Object h;
  h["offset"] = JsonValue(offset);
  h["total"] = JsonValue(total);
  h["hist_lo"] = JsonValue(lo);
  h["hist_hi"] = JsonValue(hi);
  h["hist_bins"] = JsonValue(bins);
  return JsonValue(std::move(h));
}

TEST(WireGoldenTest, ShardManifestBytesArePinned) {
  telemetry::BinarySeries flips;
  flips.name = "e2.flip_frac";  // 12-byte name: the values need 4 bytes of padding
  flips.offset = 3;
  flips.total = 16;
  flips.hist_lo = -0.25;
  flips.hist_hi = 1.5;
  flips.hist_bins = 40;
  flips.values = {std::numeric_limits<double>::quiet_NaN(),
                  std::numeric_limits<double>::infinity(),
                  -std::numeric_limits<double>::infinity(),
                  std::numeric_limits<double>::denorm_min(),
                  std::bit_cast<double>(std::uint64_t{0xfff8000000000123}),
                  -0.0,
                  1e-310};
  telemetry::BinarySeries hd;
  hd.name = "x";
  hd.offset = 0;
  hd.total = 2;
  hd.hist_lo = 0.0;
  hd.hist_hi = 1.0;
  hd.hist_bins = 1u << 20;
  hd.values = {0.4642, 0.5013};

  JsonValue::Object samples;
  samples[flips.name] = sample_header(flips.offset, flips.total, flips.hist_lo, flips.hist_hi,
                                      static_cast<int>(flips.hist_bins));
  samples[hd.name] = sample_header(hd.offset, hd.total, hd.hist_lo, hd.hist_hi,
                                   static_cast<int>(hd.hist_bins));
  JsonValue::Object results;
  results["samples"] = JsonValue(std::move(samples));
  JsonValue::Object meta;
  meta["schema"] = JsonValue("aropuf-run-manifest");
  meta["run"] = JsonValue("golden");
  meta["results"] = JsonValue(std::move(results));

  const std::string bytes = telemetry::encode_shard_manifest(JsonValue(std::move(meta)),
                                                             {flips, hd});
  EXPECT_EQ(digest(bytes),
            "e54a73802baed59e891fd190d5508454e5cdc11bb40a9b5365d5c0162a13c9fd");
}

EnrollmentRecord record(const std::string& response, const std::string& helper,
                        std::uint8_t tag_seed) {
  EnrollmentRecord r;
  r.response = BitVector::from_string(response);
  r.helper = BitVector::from_string(helper);
  for (std::size_t i = 0; i < r.tag.size(); ++i) {
    r.tag[i] = static_cast<std::uint8_t>(tag_seed + 37 * i);
  }
  return r;
}

TEST(WireGoldenTest, EnrollmentStoreBytesArePinned) {
  AuthStoreParams threshold;
  threshold.response_bits = 20;
  threshold.model = 1;
  threshold.fleet_seed = 0x0123456789abcdefULL;
  const std::string threshold_image = encode_enrollment_store(
      threshold, {{0xffffffffffffffffULL, record("10110011100011110000", "", 1)},
                  {5, record("00000000000000000001", "", 2)},
                  {0x8000000000000000ULL, record("11111111111111111111", "", 3)}});
  EXPECT_EQ(digest(threshold_image),
            "35391739084422a34bf996ec62a3ece0c939cfd2634320c8ed9f499001b74551");

  AuthStoreParams key;
  key.helper_bits = 13;
  key.model = 2;
  key.fleet_seed = 2014;
  const std::string key_image =
      encode_enrollment_store(key, {{42, record("", "1010101010101", 9)},
                                    {7, record("", "0000000000001", 10)}});
  EXPECT_EQ(digest(key_image),
            "4c6b27fcd56ffcbbfae049c38b5c83e4c4416d0ca69ea4414085059db05c4771");
}

TEST(WireGoldenTest, ControlFrameBytesArePinned) {
  net::HelloMsg hello;
  hello.worker = "host:4242";
  hello.threads = 3;
  hello.ts_unix_ms = 1754700000123;
  EXPECT_EQ(digest(net::encode_hello(hello)),
            "1dbfb76297d38bd5e8d43e4be4a1fd3e11144b0cb83255c9d0d7741d4b0eb644");

  net::JobMsg study;
  study.shard = 2;
  study.shards = 5;
  study.seed = 9007199254740991ULL;  // 2^53 - 1, the largest seed the wire carries
  study.chips = 100;
  study.checkpoints = {0.0, 1.0, 2.5, 10.0};
  study.run = "fleet_study";
  study.format = "binary";
  study.attempt = 2;
  study.trace_id = "deadbeefcafef00d";
  study.parent_span = "dispatch/2#2";
  EXPECT_EQ(digest(net::encode_job(study)),
            "ac832422ae0f6f7b8e117d3ea47bf98180b11417d4ed7ec2e7746f06eeedbd33");

  net::JobMsg enroll;
  enroll.kind = "enroll";
  enroll.shard = 1;
  enroll.shards = 4;
  enroll.seed = 2014;
  enroll.devices = 1000000;
  enroll.bits = 128;
  enroll.model = "synthetic";
  EXPECT_EQ(digest(net::encode_job(enroll)),
            "0c0e6dfe9866afd63b4d0173ee74f7e389ae8bf2e1b26f09aefde66cf9b6e42a");

  EXPECT_EQ(digest(net::encode_error({"job-failed", "shard study threw", 4})),
            "34e59a62b29f3339d2f9ecc1d2576cd65bb30402a9e29421ab81dd36b2ef103e");

  net::MetricsMsg metrics;
  metrics.ts_unix_ms = 1754700001000;
  metrics.seq = 7;
  metrics.trace_epoch_unix_ms = 1754699990000.5;
  metrics.jobs_done = 3;
  metrics.jobs_in_flight = 1;
  JsonValue::Object counters;
  counters["fleet.jobs_run"] = JsonValue(3);
  JsonValue::Object snapshot;
  snapshot["counters"] = JsonValue(std::move(counters));
  metrics.metrics = JsonValue(std::move(snapshot));
  JsonValue::Object span;
  span["name"] = JsonValue("fleet.job");
  span["ph"] = JsonValue("X");
  span["ts"] = JsonValue(12.0);
  span["dur"] = JsonValue(34.0);
  metrics.spans.push_back(JsonValue(std::move(span)));
  EXPECT_EQ(digest(net::encode_metrics(metrics)),
            "fd874602c7c18954c4673e0b20b0e88f0dc32a5ee0ca2f987053482f96c60c5c");

  EXPECT_EQ(digest(net::encode_bye()),
            "b3284dc1f5a2e92b05733e9554ac6f6672a30ac0f6f08ac1bc4b59b585a67a2a");

  telemetry::Heartbeat beat;
  beat.ts_unix_ms = 1722945600123;
  beat.shard = 3;
  beat.stage = "e2.aro.y10";
  beat.done = 7;
  beat.total = 22;
  beat.elapsed_ms = 451.25;
  EXPECT_EQ(digest(net::encode_heartbeat(beat)),
            "6de8749f2222fb266b9a0ae68b9a601701c96bf4a01dabcec5d251c170caa629");
}

TEST(WireGoldenTest, RecordTagsArePinned) {
  Authenticator::VerifierKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 11 + 5);
  const std::vector<std::uint8_t> response = {0xcd, 0xf1, 0x0a};
  const std::vector<std::uint8_t> helper = {0x55, 0x15};
  EXPECT_EQ(digest(record_binding_tag(key, 0x1122334455667788ULL, 20, 13, response.data(),
                                      helper.data())),
            "669feb20f631980333ada6356fd241b04a978005f3f09a8c13f197f6efe4dace");
  EXPECT_EQ(digest(record_binding_tag(key, 5, 20, 0, response.data(), nullptr)),
            "6cbfa5eb9f7843aef56483a708b2b1a86bfe1e209aa9bfb35307235d9a5b817b");
  EXPECT_EQ(digest(key_confirmation_tag(key, 0xfedcba9876543210ULL)),
            "3cae24e1aa53e1201f2b2db42361cacc1ba6e99bd5c2d7a038d1308c225369fb");
}

}  // namespace
}  // namespace aropuf
