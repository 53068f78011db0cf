#include "auth/store_binary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace aropuf {
namespace {

BitVector random_bits(Xoshiro256& rng, std::size_t bits) {
  BitVector out(bits);
  for (std::size_t i = 0; i < bits; ++i) out.set(i, rng.bernoulli(0.5));
  return out;
}

AuthStoreParams small_params() {
  AuthStoreParams params;
  params.response_bits = 20;  // deliberately not byte-aligned
  params.helper_bits = 13;
  params.model = 0;
  params.fleet_seed = 42;
  return params;
}

std::vector<std::pair<DeviceId, EnrollmentRecord>> make_records(
    const AuthStoreParams& params, std::size_t count, std::uint64_t seed) {
  RngFabric fabric(seed);
  std::vector<std::pair<DeviceId, EnrollmentRecord>> records;
  for (std::size_t i = 0; i < count; ++i) {
    Xoshiro256 rng = fabric.stream("record", i);
    EnrollmentRecord record;
    record.response = random_bits(rng, params.response_bits);
    record.helper = random_bits(rng, params.helper_bits);
    for (auto& byte : record.tag) byte = static_cast<std::uint8_t>(rng.bounded(256));
    records.push_back({fabric.derive("id", i), std::move(record)});
  }
  return records;
}

AuthStoreErrc parse_errc(const std::string& bytes) {
  try {
    (void)BinaryEnrollmentStore::parse(bytes);
  } catch (const AuthStoreError& error) {
    return error.code();
  }
  ADD_FAILURE() << "image of " << bytes.size() << " bytes unexpectedly parsed";
  return AuthStoreErrc::kIoError;
}

class StoreBinaryTest : public ::testing::Test {
 protected:
  StoreBinaryTest()
      : params_(small_params()),
        records_(make_records(params_, 16, 7)),
        image_(encode_enrollment_store(params_, records_)) {}

  AuthStoreParams params_;
  std::vector<std::pair<DeviceId, EnrollmentRecord>> records_;
  std::string image_;
};

TEST_F(StoreBinaryTest, RoundTripIsBitIdentical) {
  const auto store = BinaryEnrollmentStore::parse(image_);
  EXPECT_EQ(store->device_count(), records_.size());
  EXPECT_EQ(store->response_bits(), params_.response_bits);
  EXPECT_EQ(store->helper_bits(), params_.helper_bits);
  EXPECT_EQ(store->params().fleet_seed, params_.fleet_seed);
  for (const auto& [id, record] : records_) {
    const auto view = store->find(id);
    ASSERT_TRUE(view.has_value()) << "device " << id;
    const BitVector response =
        BitVector::from_bytes(view->response, params_.response_bits);
    const BitVector helper = BitVector::from_bytes(view->helper, params_.helper_bits);
    EXPECT_EQ(response, record.response);
    EXPECT_EQ(helper, record.helper);
    EXPECT_TRUE(std::equal(record.tag.begin(), record.tag.end(), view->tag));
  }
  // Index is strictly increasing and find() misses unknown ids.
  for (std::size_t i = 1; i < store->device_count(); ++i) {
    EXPECT_LT(store->device_id_at(i - 1), store->device_id_at(i));
  }
  EXPECT_FALSE(store->find(DeviceId{0xdeadbeef}).has_value());
}

TEST_F(StoreBinaryTest, StoreBytesPredictsTheEncodedSize) {
  EXPECT_EQ(enrollment_store_bytes(params_, records_.size()), image_.size());
  EXPECT_EQ(enrollment_store_bytes(params_, 0), encode_enrollment_store(params_, {}).size());
}

TEST_F(StoreBinaryTest, EncodingIsIndependentOfInputOrder) {
  auto reversed = records_;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(encode_enrollment_store(params_, reversed), image_);
}

TEST_F(StoreBinaryTest, TruncationAtEveryByteIsATypedError) {
  for (std::size_t len = 0; len < image_.size(); ++len) {
    const std::string cut = image_.substr(0, len);
    try {
      (void)BinaryEnrollmentStore::parse(cut);
      FAIL() << "truncation to " << len << " bytes parsed";
    } catch (const AuthStoreError& error) {
      EXPECT_TRUE(error.code() == AuthStoreErrc::kTruncated ||
                  error.code() == AuthStoreErrc::kSizeMismatch)
          << "len " << len << ": " << to_string(error.code());
    }
  }
}

TEST_F(StoreBinaryTest, TrailingGarbageIsRejected) {
  EXPECT_EQ(parse_errc(image_ + std::string(1, '\0')), AuthStoreErrc::kSizeMismatch);
}

TEST_F(StoreBinaryTest, HeaderCorruptionsCarryTypedCodes) {
  std::string bad_magic = image_;
  bad_magic[0] = 'X';
  EXPECT_EQ(parse_errc(bad_magic), AuthStoreErrc::kBadMagic);

  std::string bad_version = image_;
  bad_version[4] = 9;
  EXPECT_EQ(parse_errc(bad_version), AuthStoreErrc::kUnsupportedVersion);

  std::string reserved = image_;
  reserved[6] = 1;
  EXPECT_EQ(parse_errc(reserved), AuthStoreErrc::kReservedNonzero);

  std::string bad_tag_bytes = image_;
  bad_tag_bytes[24] = 16;  // tag_bytes must be kRecordTagBytes
  EXPECT_EQ(parse_errc(bad_tag_bytes), AuthStoreErrc::kBadHeader);
}

TEST_F(StoreBinaryTest, UnsortedIndexIsRejected) {
  // Swap the first two 8-byte index entries in place.
  std::string swapped = image_;
  for (std::size_t i = 0; i < 8; ++i) std::swap(swapped[40 + i], swapped[48 + i]);
  EXPECT_EQ(parse_errc(swapped), AuthStoreErrc::kUnsortedIndex);
  // Duplicate id (copy entry 0 over entry 1) is also not strictly increasing.
  std::string dup = image_;
  for (std::size_t i = 0; i < 8; ++i) dup[48 + i] = dup[40 + i];
  EXPECT_EQ(parse_errc(dup), AuthStoreErrc::kUnsortedIndex);
}

TEST_F(StoreBinaryTest, EncodeRejectsDuplicateIdsAndLayoutViolations) {
  auto dup = records_;
  dup.push_back(dup.front());
  EXPECT_THROW((void)encode_enrollment_store(params_, dup), AuthStoreError);

  auto wrong = records_;
  wrong.front().second.response = BitVector(params_.response_bits + 1);
  EXPECT_THROW((void)encode_enrollment_store(params_, wrong), std::invalid_argument);
}

TEST_F(StoreBinaryTest, MergeEqualsSingleEncode) {
  // Split the records into 3 interleaved shards, write, merge, and compare
  // byte-for-byte against the single-shot encoding.
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> shard_paths;
  for (int s = 0; s < 3; ++s) {
    std::vector<std::pair<DeviceId, EnrollmentRecord>> shard;
    for (std::size_t i = static_cast<std::size_t>(s); i < records_.size(); i += 3) {
      shard.push_back(records_[i]);
    }
    const std::string path = dir + "/arps-merge-shard-" + std::to_string(s) + ".arps";
    write_enrollment_store(path, params_, shard);
    shard_paths.push_back(path);
  }
  const std::string out = dir + "/arps-merged.arps";
  EXPECT_EQ(merge_enrollment_stores(shard_paths, out), records_.size());

  std::string merged;
  {
    std::FILE* f = std::fopen(out.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) merged.append(buf, n);
    std::fclose(f);
  }
  EXPECT_EQ(merged, image_);

  // A device present in two shards must be a typed merge failure.
  const std::string clash = dir + "/arps-clash.arps";
  write_enrollment_store(clash, params_, {records_.front()});
  try {
    (void)merge_enrollment_stores({shard_paths[0], clash}, dir + "/arps-bad.arps");
    FAIL() << "duplicate device across shards merged";
  } catch (const AuthStoreError& error) {
    EXPECT_EQ(error.code(), AuthStoreErrc::kDuplicateDevice);
  }

  // Shards with different header parameters must not merge.
  AuthStoreParams other = params_;
  other.fleet_seed = 43;
  const std::string alien = dir + "/arps-alien.arps";
  write_enrollment_store(alien, other, {});
  try {
    (void)merge_enrollment_stores({shard_paths[0], alien}, dir + "/arps-bad2.arps");
    FAIL() << "mismatched shard parameters merged";
  } catch (const AuthStoreError& error) {
    EXPECT_EQ(error.code(), AuthStoreErrc::kBadHeader);
  }
}

TEST_F(StoreBinaryTest, OpenMapsTheSameImage) {
  const std::string path = ::testing::TempDir() + "/arps-open.arps";
  write_enrollment_store(path, params_, records_);
  const auto store = BinaryEnrollmentStore::open(path);
  EXPECT_EQ(store->device_count(), records_.size());
  EXPECT_TRUE(store->find(records_.front().first).has_value());
  EXPECT_FALSE(store->is_mutable());
  EXPECT_THROW(store->put(DeviceId{1}, EnrollmentRecord{}), std::invalid_argument);
  EXPECT_THROW((void)BinaryEnrollmentStore::open(path + ".missing"), AuthStoreError);
}

TEST(StoreBinaryEmptyTest, EmptyStoreRoundTrips) {
  const std::string image = encode_enrollment_store(small_params(), {});
  const auto store = BinaryEnrollmentStore::parse(image);
  EXPECT_EQ(store->device_count(), 0U);
  EXPECT_FALSE(store->find(DeviceId{1}).has_value());
}

}  // namespace
}  // namespace aropuf
