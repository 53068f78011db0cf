// ARPS — the compact binary enrollment store behind the fleet-scale
// authentication service.
//
// Same engineering discipline as the ARPB shard transport
// (telemetry/binfmt.hpp): a little-endian, versioned, length-checked
// container that an untrusting reader can validate in one bounded pass and
// then serve zero-copy.  The verification hot path does a binary search over
// the sorted device index and compares packed response bits straight out of
// the mapping — no allocation, no deserialization.
//
// Layout, version 1 (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "ARPS"
//   4       2     version (currently 1)
//   6       2     reserved, must be zero
//   8       8     device_count N
//   16      4     response_bits R       (bits per enrollment response)
//   20      4     helper_bits H         (bits of helper data per record)
//   24      4     tag_bytes             (must be kRecordTagBytes)
//   28      4     model                 (FleetModel provenance, advisory)
//   32      8     fleet_seed            (build provenance, advisory)
//   40      8*N   device index: strictly increasing DeviceId values
//   40+8*N  S*N   records, S = ceil(R/8) + ceil(H/8) + tag_bytes, in index
//                 order: packed response bits, packed helper bits, tag
//
// The file ends exactly after the last record; trailing bytes are an error.
// Decoding failures carry a typed AuthStoreErrc so callers (and the fuzz
// harness) can distinguish "malformed input" from programming errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "auth/enrollment_store.hpp"

namespace aropuf {

/// Why a byte buffer was rejected as an ARPS enrollment store.
enum class AuthStoreErrc {
  kTruncated = 1,        ///< input ends before the header or index completes
  kBadMagic,             ///< leading bytes are not "ARPS"
  kUnsupportedVersion,   ///< version field is not 1
  kReservedNonzero,      ///< a reserved field carries non-zero bits
  kBadHeader,            ///< header fields are out of range or inconsistent
  kSizeMismatch,         ///< file size disagrees with the declared counts
  kUnsortedIndex,        ///< device index is not strictly increasing
  kDuplicateDevice,      ///< the same DeviceId appears in two merge inputs
  kTagMismatch,          ///< record binding tag failed verification
  kIoError,              ///< the underlying file could not be read or written
};

/// Human-readable name for an AuthStoreErrc (stable, for logs and tests).
[[nodiscard]] const char* to_string(AuthStoreErrc code);

/// Exception carrying a typed reason for an enrollment-store failure.
class AuthStoreError : public std::runtime_error {
 public:
  /// Builds an error with machine-readable code and human-readable context.
  AuthStoreError(AuthStoreErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  /// The typed failure reason.
  [[nodiscard]] AuthStoreErrc code() const noexcept { return code_; }

 private:
  AuthStoreErrc code_;
};

/// Header parameters of an ARPS store (everything except the per-device
/// payload).  Shard builders fill one in; readers expose the decoded copy.
struct AuthStoreParams {
  /// Bits per enrollment response (0 for key-mode stores).
  std::uint32_t response_bits = 0;
  /// Bits of fuzzy-extractor helper data per record (0 in threshold mode).
  std::uint32_t helper_bits = 0;
  /// Response-model provenance (FleetModel numeric value); advisory.
  std::uint32_t model = 0;
  /// Master seed the fleet was built from; advisory provenance.
  std::uint64_t fleet_seed = 0;
};

/// Read-only mmap-backed ARPS store.  open() maps the file (POSIX) or reads
/// it into memory (elsewhere); parse() adopts an in-memory buffer, which is
/// what the fuzz harness and the round-trip tests drive.  All validation
/// happens before the constructor returns: a constructed store is well-formed
/// by invariant and find()/record_at() only do bounds-free arithmetic.
class BinaryEnrollmentStore final : public EnrollmentStore {
 public:
  /// Maps and validates a store file.  Throws AuthStoreError on malformed
  /// input or I/O failure.
  [[nodiscard]] static std::unique_ptr<BinaryEnrollmentStore> open(const std::string& path);

  /// Validates and adopts an in-memory image.  Throws AuthStoreError on
  /// malformed input.
  [[nodiscard]] static std::unique_ptr<BinaryEnrollmentStore> parse(std::string bytes);

  ~BinaryEnrollmentStore() override;

  BinaryEnrollmentStore(const BinaryEnrollmentStore&) = delete;
  BinaryEnrollmentStore& operator=(const BinaryEnrollmentStore&) = delete;

  [[nodiscard]] std::size_t device_count() const override { return device_count_; }
  [[nodiscard]] std::size_t response_bits() const override { return params_.response_bits; }
  [[nodiscard]] std::size_t helper_bits() const override { return params_.helper_bits; }
  [[nodiscard]] std::optional<RecordView> find(DeviceId id) const override;

  /// Decoded header parameters.
  [[nodiscard]] const AuthStoreParams& params() const noexcept { return params_; }

  /// The i-th DeviceId in index order (i < device_count()).
  [[nodiscard]] DeviceId device_id_at(std::size_t i) const;

  /// The i-th record in index order (i < device_count()).
  [[nodiscard]] RecordView record_at(std::size_t i) const;

 private:
  BinaryEnrollmentStore() = default;

  /// Validates the image at data_/size_ and fills the decoded fields.
  void validate();

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;       // non-null when mmap-backed
  std::string owned_;         // backing bytes when parse()-adopted
  AuthStoreParams params_;
  std::size_t device_count_ = 0;
  std::size_t response_bytes_ = 0;
  std::size_t helper_bytes_ = 0;
  std::size_t record_stride_ = 0;
  const std::uint8_t* index_ = nullptr;    // device-id array
  const std::uint8_t* records_ = nullptr;  // first record
};

/// Size in bytes of the ARPS image encode_enrollment_store produces for
/// `devices` records of this layout.
[[nodiscard]] std::uint64_t enrollment_store_bytes(const AuthStoreParams& params,
                                                   std::uint64_t devices);

/// Encodes records into an ARPS image.  Records are sorted by DeviceId; every
/// record's bit lengths must match `params`.  Throws std::invalid_argument on
/// layout violations and AuthStoreError(kDuplicateDevice) on repeated ids.
[[nodiscard]] std::string encode_enrollment_store(
    const AuthStoreParams& params, std::vector<std::pair<DeviceId, EnrollmentRecord>> records);

/// encode_enrollment_store + atomic-ish write to `path` (throws
/// AuthStoreError(kIoError) when the file cannot be written).
void write_enrollment_store(const std::string& path, const AuthStoreParams& params,
                            std::vector<std::pair<DeviceId, EnrollmentRecord>> records);

/// Deterministically merges shard stores into one: validates that all shards
/// share the same header parameters, k-way merges their sorted indices, and
/// streams records to `out_path` in global id order.  Returns the merged
/// device count.  Throws AuthStoreError on malformed shards, mismatched
/// parameters (kBadHeader), duplicate ids (kDuplicateDevice), or I/O failure.
std::uint64_t merge_enrollment_stores(const std::vector<std::string>& shard_paths,
                                      const std::string& out_path);

}  // namespace aropuf
