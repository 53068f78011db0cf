#include "telemetry/binfmt.hpp"

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "telemetry/log.hpp"

namespace aropuf::telemetry {

namespace {

/// The container's shortfall report: every read names what it was reading,
/// so fuzz findings are self-describing.
[[noreturn]] void truncated(const char* what, std::size_t need, std::size_t have,
                            std::size_t offset) {
  throw BinfmtError(BinfmtErrc::kTruncated,
                    std::string("input ends inside ") + what + " (need " + std::to_string(need) +
                        " bytes, have " + std::to_string(have) + " at offset " +
                        std::to_string(offset) + ")");
}

/// results.samples of a metadata document, or nullptr when absent.
const JsonValue* metadata_samples(const JsonValue& metadata) {
  if (!metadata.is_object() || !metadata.contains("results")) return nullptr;
  const JsonValue& results = metadata.at("results");
  if (!results.is_object() || !results.contains("samples")) return nullptr;
  const JsonValue& samples = results.at("samples");
  return samples.is_object() ? &samples : nullptr;
}

/// The series blocks and the metadata samples section describe the same
/// payload from two sides; any disagreement means a corrupt or hand-doctored
/// container, so the reader refuses it rather than trusting either side.
void cross_check_metadata(const JsonValue& metadata, const std::vector<SeriesView>& series) {
  const JsonValue* samples = metadata_samples(metadata);
  if (samples == nullptr) {
    if (!series.empty()) {
      throw BinfmtError(BinfmtErrc::kMetadataSchema,
                        "series blocks present but metadata has no results.samples object");
    }
    return;
  }
  if (samples->as_object().size() != series.size()) {
    throw BinfmtError(BinfmtErrc::kMetadataSchema,
                      "metadata declares " + std::to_string(samples->as_object().size()) +
                          " sample series, container carries " + std::to_string(series.size()));
  }
  for (const SeriesView& s : series) {
    const std::string name(s.name);
    if (!samples->contains(name)) {
      throw BinfmtError(BinfmtErrc::kBadSeriesName,
                        "series '" + name + "' has no metadata samples entry");
    }
    const JsonValue& meta = samples->at(name);
    if (!meta.is_object()) {
      throw BinfmtError(BinfmtErrc::kMetadataSchema, "samples '" + name + "' is not an object");
    }
    if (meta.contains("values")) {
      throw BinfmtError(BinfmtErrc::kMetadataSchema,
                        "samples '" + name + "' embeds a values array (payload duplicated)");
    }
    const bool agrees =
        meta.number_or("offset", -1.0) == static_cast<double>(s.offset) &&
        meta.number_or("total", -1.0) == static_cast<double>(s.total) &&
        meta.number_or("hist_lo", s.hist_lo) == s.hist_lo &&
        meta.number_or("hist_hi", s.hist_hi) == s.hist_hi &&
        meta.number_or("hist_bins", -1.0) == static_cast<double>(s.hist_bins);
    if (!agrees) {
      throw BinfmtError(BinfmtErrc::kMetadataSchema,
                        "samples '" + name + "' header disagrees with its series block");
    }
  }
}

}  // namespace

const char* binfmt_errc_name(BinfmtErrc code) {
  switch (code) {
    case BinfmtErrc::kTruncated: return "binfmt truncated";
    case BinfmtErrc::kBadMagic: return "binfmt bad magic";
    case BinfmtErrc::kUnsupportedVersion: return "binfmt unsupported version";
    case BinfmtErrc::kReservedNonzero: return "binfmt reserved bytes nonzero";
    case BinfmtErrc::kMetadataParse: return "binfmt metadata unparseable";
    case BinfmtErrc::kMetadataSchema: return "binfmt metadata mismatch";
    case BinfmtErrc::kBadSeriesName: return "binfmt bad series name";
    case BinfmtErrc::kBadSeriesHeader: return "binfmt bad series header";
    case BinfmtErrc::kTrailingGarbage: return "binfmt trailing garbage";
  }
  return "binfmt error";
}

std::vector<double> SeriesView::to_vector() const {
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(value(i));
  return out;
}

bool looks_binary(std::string_view head) {
  return head.size() >= sizeof kBinfmtMagic &&
         std::memcmp(head.data(), kBinfmtMagic, sizeof kBinfmtMagic) == 0;
}

std::string encode_shard_manifest(const JsonValue& metadata,
                                  const std::vector<BinarySeries>& series) {
  for (const BinarySeries& s : series) {
    if (s.name.empty() || s.name.size() > kBinfmtMaxSeriesName) {
      throw std::invalid_argument("binfmt encode: series name empty or longer than " +
                                  std::to_string(kBinfmtMaxSeriesName) + " bytes");
    }
    if (s.hist_bins == 0 || s.hist_bins > kBinfmtMaxHistBins) {
      throw std::invalid_argument("binfmt encode: series '" + s.name +
                                  "' hist_bins out of range");
    }
  }
  const std::string meta_json = metadata.dump(/*indent=*/2);

  std::string out;
  out.append(kBinfmtMagic, sizeof kBinfmtMagic);
  wire::append_le(out, kBinfmtVersion);
  wire::append_le(out, std::uint16_t{0});  // reserved
  wire::append_le(out, static_cast<std::uint64_t>(meta_json.size()));
  out += meta_json;
  wire::append_le(out, static_cast<std::uint32_t>(series.size()));
  for (const BinarySeries& s : series) {
    wire::append_le(out, static_cast<std::uint16_t>(s.name.size()));
    out += s.name;
    wire::append_le(out, s.offset);
    wire::append_le(out, s.total);
    wire::append_le(out, s.hist_lo);
    wire::append_le(out, s.hist_hi);
    wire::append_le(out, s.hist_bins);
    wire::append_le(out, static_cast<std::uint64_t>(s.values.size()));
    while (out.size() % 8 != 0) out.push_back('\0');
    for (const double v : s.values) wire::append_le(out, v);
  }

  // The encoder's output must always satisfy its own decoder (including the
  // metadata cross-check); catching an encode-side inconsistency here turns
  // a latent decode failure on some other machine into an immediate error.
  (void)BinaryManifestReader::parse(out);
  return out;
}

BinaryManifestReader BinaryManifestReader::parse(std::string bytes) {
  BinaryManifestReader reader;
  reader.bytes_ = std::move(bytes);
  wire::ByteCursor cur(reader.bytes_, &truncated);

  if (!looks_binary(cur.bytes(sizeof kBinfmtMagic, "magic"))) {
    throw BinfmtError(BinfmtErrc::kBadMagic, "expected 'ARPB'");
  }
  const auto version = cur.read<std::uint16_t>("format version");
  if (version != kBinfmtVersion) {
    throw BinfmtError(BinfmtErrc::kUnsupportedVersion,
                      "container is version " + std::to_string(version) +
                          ", this reader knows version " + std::to_string(kBinfmtVersion));
  }
  if (cur.read<std::uint16_t>("reserved header bytes") != 0) {
    throw BinfmtError(BinfmtErrc::kReservedNonzero, "header bytes 6-7 must be zero");
  }
  const auto meta_len = cur.read<std::uint64_t>("metadata length");
  const std::string_view meta_json = cur.bytes(meta_len, "metadata document");
  try {
    reader.metadata_ = JsonValue::parse(std::string(meta_json));
  } catch (const std::exception& e) {
    throw BinfmtError(BinfmtErrc::kMetadataParse, e.what());
  }
  if (!reader.metadata_.is_object()) {
    throw BinfmtError(BinfmtErrc::kMetadataSchema, "metadata top level must be a JSON object");
  }

  const auto series_count = cur.read<std::uint32_t>("series count");
  std::map<std::string_view, bool> seen;
  for (std::uint32_t i = 0; i < series_count; ++i) {
    SeriesView view;
    const auto name_len = cur.read<std::uint16_t>("series name length");
    if (name_len == 0 || name_len > kBinfmtMaxSeriesName) {
      throw BinfmtError(BinfmtErrc::kBadSeriesName,
                        "series name length " + std::to_string(name_len) + " out of range 1.." +
                            std::to_string(kBinfmtMaxSeriesName));
    }
    view.name = cur.bytes(name_len, "series name");
    if (!seen.emplace(view.name, true).second) {
      throw BinfmtError(BinfmtErrc::kBadSeriesName,
                        "duplicate series '" + std::string(view.name) + "'");
    }
    view.offset = cur.read<std::uint64_t>("series offset");
    view.total = cur.read<std::uint64_t>("series total");
    view.hist_lo = cur.read<double>("series hist_lo");
    view.hist_hi = cur.read<double>("series hist_hi");
    view.hist_bins = cur.read<std::uint32_t>("series hist_bins");
    if (view.hist_bins == 0 || view.hist_bins > kBinfmtMaxHistBins) {
      throw BinfmtError(BinfmtErrc::kBadSeriesHeader,
                        "series '" + std::string(view.name) + "' hist_bins out of range");
    }
    const auto value_count = cur.read<std::uint64_t>("series value count");
    if (!cur.align8()) {
      throw BinfmtError(BinfmtErrc::kBadSeriesHeader,
                        "nonzero alignment padding at offset " + std::to_string(cur.pos()));
    }
    // The count bounds the read AND the read bounds the count: a declared
    // count larger than the remaining bytes can never allocate or index.
    if (value_count > cur.remaining() / 8) {
      throw BinfmtError(BinfmtErrc::kTruncated,
                        "series '" + std::string(view.name) + "' declares " +
                            std::to_string(value_count) + " values but only " +
                            std::to_string(cur.remaining() / 8) + " fit in the remaining bytes");
    }
    if (view.offset > view.total || value_count > view.total - view.offset) {
      throw BinfmtError(BinfmtErrc::kBadSeriesHeader,
                        "series '" + std::string(view.name) + "' slice [" +
                            std::to_string(view.offset) + ", +" + std::to_string(value_count) +
                            ") exceeds its declared total " + std::to_string(view.total));
    }
    view.count = static_cast<std::size_t>(value_count);
    const std::string_view raw = cur.bytes(view.count * 8, "series values");
    view.raw = reinterpret_cast<const unsigned char*>(raw.data());
    reader.series_.push_back(view);
  }
  if (cur.remaining() != 0) {
    throw BinfmtError(BinfmtErrc::kTrailingGarbage,
                      std::to_string(cur.remaining()) + " bytes after the last series block");
  }
  cross_check_metadata(reader.metadata_, reader.series_);
  return reader;
}

BinaryManifestReader BinaryManifestReader::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error(path + ": cannot open file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) throw std::runtime_error(path + ": read error");
  try {
    return parse(buffer.str());
  } catch (const BinfmtError& e) {
    throw BinfmtError(e.code(), path + ": " + e.what());
  }
}

JsonValue BinaryManifestReader::to_json() const {
  JsonValue doc = metadata_;
  if (series_.empty()) return doc;
  JsonValue::Object& samples = doc.as_object()
                                   .at("results")
                                   .as_object()
                                   .at("samples")
                                   .as_object();
  for (const SeriesView& s : series_) {
    JsonValue::Array values;
    values.reserve(s.count);
    for (std::size_t i = 0; i < s.count; ++i) values.emplace_back(s.value(i));
    samples.at(std::string(s.name)).as_object()["values"] = JsonValue(std::move(values));
  }
  return doc;
}

bool write_binary_shard_manifest(const std::string& path, const JsonValue& metadata,
                                 const std::vector<BinarySeries>& series) {
  std::string bytes;
  try {
    bytes = encode_shard_manifest(metadata, series);
  } catch (const std::exception& e) {
    ARO_LOG_ERROR("binfmt", "binary manifest encode failed", {"path", JsonValue(path)},
                  {"error", JsonValue(std::string(e.what()))});
    return false;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    ARO_LOG_ERROR("binfmt", "cannot open binary manifest output file",
                  {"path", JsonValue(path)});
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    ARO_LOG_ERROR("binfmt", "binary manifest write failed", {"path", JsonValue(path)});
    return false;
  }
  ARO_LOG_INFO("binfmt", "binary manifest written", {"path", JsonValue(path)},
               {"bytes", JsonValue(static_cast<std::uint64_t>(bytes.size()))});
  return true;
}

}  // namespace aropuf::telemetry
