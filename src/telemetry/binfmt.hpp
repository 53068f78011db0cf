// Binary shard-manifest container: the transport format for million-chip
// sample series.
//
// Aggregate merges at 10^6+ chips are dominated by JSON parse/serialize of
// the raw per-chip value arrays, not by the fold itself.  This module defines
// a versioned, length-prefixed binary container that keeps the manifest
// *metadata* as a JSON document (still diffable, still schema-checked) and
// moves the per-series sample values out of band as tightly packed IEEE-754
// doubles.  JSON remains the interchange/debug form — aropuf_report --dump
// converts a binary shard manifest back to the exact JSON document — and the
// merged aggregate manifest stays JSON in both cases.
//
// Wire layout (all integers little-endian; see DESIGN.md §10 for the
// rendered diagram and compatibility rules):
//
//   offset  size  field
//   0       4     magic "ARPB"
//   4       2     format version (currently 1)
//   6       2     reserved, must be zero
//   8       8     metadata length M
//   16      M     metadata: the run-manifest JSON document whose
//                 results.samples entries carry headers only (no "values")
//   16+M    4     series count S
//   then S series blocks, each:
//           2     name length L (1..256)
//           L     name bytes (UTF-8; must match a metadata samples key)
//           8     sample offset (first global chip index of this slice)
//           8     sample total (size of the full series)
//           8     hist_lo (f64)
//           8     hist_hi (f64)
//           4     hist_bins (1..1048576)
//           8     value count C (bounded by the bytes that remain)
//           0-7   zero padding to an 8-byte file offset
//           8*C   values, packed little-endian f64, bit-exact (NaN and
//                 infinity payloads survive the round trip — the one thing
//                 the JSON form cannot represent)
//
// Trailing bytes after the last series block are an error.  The decoder is
// a bounds-checked streaming parser over untrusted input: every declared
// length is validated against the remaining buffer before use, counts never
// drive allocations, and all failures throw BinfmtError with a typed code —
// never UB.  Decoded series are zero-copy views into the container buffer;
// value(i) reads through wire::load_le (a single load on little-endian hosts).
//
// Versioning: readers accept exactly the versions they know.  A bumped
// version byte is kUnsupportedVersion, not a guess — fields may have been
// re-packed.  Writers always emit the newest version.  New optional content
// must go into the JSON metadata document (which tolerates unknown keys);
// the packed sections exist only for bulk values, where layout is law.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/wire.hpp"

namespace aropuf::telemetry {

inline constexpr char kBinfmtMagic[4] = {'A', 'R', 'P', 'B'};
inline constexpr std::uint16_t kBinfmtVersion = 1;
inline constexpr std::size_t kBinfmtMaxSeriesName = 256;
inline constexpr std::uint32_t kBinfmtMaxHistBins = 1u << 20;

/// Typed decode failure codes — the fuzz harness treats BinfmtError as the
/// one acceptable outcome on garbage input; anything else is a finding.
enum class BinfmtErrc {
  kTruncated,           ///< input ends before a declared length
  kBadMagic,            ///< first four bytes are not "ARPB"
  kUnsupportedVersion,  ///< version field is not one this reader knows
  kReservedNonzero,     ///< reserved header bytes must be zero
  kMetadataParse,       ///< embedded metadata is not valid JSON
  kMetadataSchema,      ///< metadata shape disagrees with the series blocks
  kBadSeriesName,       ///< empty, oversized, duplicate, or non-metadata name
  kBadSeriesHeader,     ///< count/bins/padding field out of bounds
  kTrailingGarbage,     ///< bytes remain after the last series block
};

[[nodiscard]] const char* binfmt_errc_name(BinfmtErrc code);

class BinfmtError : public std::runtime_error {
 public:
  BinfmtError(BinfmtErrc code, const std::string& what)
      : std::runtime_error(std::string(binfmt_errc_name(code)) + ": " + what), code_(code) {}
  [[nodiscard]] BinfmtErrc code() const { return code_; }

 private:
  BinfmtErrc code_;
};

/// One sample series to encode: the same fields sim/shard_study.hpp's
/// SampleSeries carries, decoupled so telemetry stays free of sim types.
struct BinarySeries {
  std::string name;
  std::uint64_t offset = 0;  ///< first global sample index of this slice
  std::uint64_t total = 0;   ///< size of the full series across all shards
  double hist_lo = 0.0;
  double hist_hi = 1.0;
  std::uint32_t hist_bins = 50;
  std::vector<double> values;
};

/// Zero-copy view of one decoded series; `raw` points into the reader's
/// buffer and stays valid for the reader's lifetime.
struct SeriesView {
  std::string_view name;
  std::uint64_t offset = 0;
  std::uint64_t total = 0;
  double hist_lo = 0.0;
  double hist_hi = 1.0;
  std::uint32_t hist_bins = 0;
  const unsigned char* raw = nullptr;  ///< count packed little-endian doubles
  std::size_t count = 0;

  /// Bit-exact value decode (wire::load_le: one load on little-endian hosts).
  [[nodiscard]] double value(std::size_t i) const { return wire::load_le<double>(raw + i * 8); }

  /// Copies all values out (one bulk pass; used to hand the fold an owned
  /// buffer for its out-of-order window).
  [[nodiscard]] std::vector<double> to_vector() const;
};

/// Encodes a shard manifest: `metadata` is the manifest document whose
/// results.samples entries must carry headers only (no "values" arrays —
/// throws std::invalid_argument otherwise, that would duplicate the payload);
/// `series` supplies the packed values.  Every series must match a metadata
/// samples entry and vice versa.
[[nodiscard]] std::string encode_shard_manifest(const JsonValue& metadata,
                                                const std::vector<BinarySeries>& series);

/// True when `head` begins with the binfmt magic (format sniffing; works on
/// any prefix of at least four bytes).
[[nodiscard]] bool looks_binary(std::string_view head);

/// Parses and fully validates a binary shard-manifest container.  All
/// structural and cross-section checks happen in parse(); a constructed
/// reader is internally consistent.  Throws BinfmtError on any defect.
class BinaryManifestReader {
 public:
  [[nodiscard]] static BinaryManifestReader parse(std::string bytes);
  /// Reads and parses `path`; file errors surface as std::runtime_error with
  /// the path in the message, decode errors as BinfmtError.
  [[nodiscard]] static BinaryManifestReader read_file(const std::string& path);

  /// The embedded manifest document (samples headers only, no values).
  [[nodiscard]] const JsonValue& metadata() const { return metadata_; }
  [[nodiscard]] std::size_t series_count() const { return series_.size(); }
  [[nodiscard]] const SeriesView& series(std::size_t i) const { return series_.at(i); }

  /// Reconstructs the equivalent JSON shard manifest with every series'
  /// values re-embedded — the debug/interchange escape hatch.
  [[nodiscard]] JsonValue to_json() const;

 private:
  BinaryManifestReader() = default;
  std::string bytes_;  ///< owns the storage every SeriesView points into
  JsonValue metadata_;
  std::vector<SeriesView> series_;
};

/// Serializes `metadata` + `series` to `path`.  Returns false and logs at
/// error level on write failure (same contract as write_manifest).
bool write_binary_shard_manifest(const std::string& path, const JsonValue& metadata,
                                 const std::vector<BinarySeries>& series);

}  // namespace aropuf::telemetry
