#include "auth/store_binary.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/check.hpp"
#include "common/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define AROPUF_AUTHSTORE_MMAP 1
#endif

namespace aropuf {

namespace {

constexpr std::size_t kHeaderBytes = 40;
constexpr std::uint16_t kVersion = 1;
constexpr char kMagic[4] = {'A', 'R', 'P', 'S'};
// Upper bound on per-record bit widths: generous for any plausible PUF
// response or helper payload, small enough that stride arithmetic cannot
// overflow even with adversarial headers.
constexpr std::uint32_t kMaxBits = 1u << 20;

[[noreturn]] void fail(AuthStoreErrc code, const std::string& what) {
  throw AuthStoreError(code, what);
}

[[noreturn]] void header_truncated(const char*, std::size_t, std::size_t, std::size_t) {
  fail(AuthStoreErrc::kTruncated, "ARPS header truncated");
}

std::string encode_header(const AuthStoreParams& params, std::uint64_t device_count) {
  std::string out;
  out.reserve(kHeaderBytes);
  out.append(kMagic, sizeof kMagic);
  wire::append_le(out, kVersion);
  wire::append_le(out, std::uint16_t{0});  // reserved
  wire::append_le(out, device_count);
  wire::append_le(out, params.response_bits);
  wire::append_le(out, params.helper_bits);
  wire::append_le(out, static_cast<std::uint32_t>(kRecordTagBytes));
  wire::append_le(out, params.model);
  wire::append_le(out, params.fleet_seed);
  return out;
}

bool same_params(const AuthStoreParams& a, const AuthStoreParams& b) {
  return a.response_bits == b.response_bits && a.helper_bits == b.helper_bits &&
         a.model == b.model && a.fleet_seed == b.fleet_seed;
}

}  // namespace

const char* to_string(AuthStoreErrc code) {
  switch (code) {
    case AuthStoreErrc::kTruncated: return "truncated";
    case AuthStoreErrc::kBadMagic: return "bad-magic";
    case AuthStoreErrc::kUnsupportedVersion: return "unsupported-version";
    case AuthStoreErrc::kReservedNonzero: return "reserved-nonzero";
    case AuthStoreErrc::kBadHeader: return "bad-header";
    case AuthStoreErrc::kSizeMismatch: return "size-mismatch";
    case AuthStoreErrc::kUnsortedIndex: return "unsorted-index";
    case AuthStoreErrc::kDuplicateDevice: return "duplicate-device";
    case AuthStoreErrc::kTagMismatch: return "tag-mismatch";
    case AuthStoreErrc::kIoError: return "io-error";
  }
  return "unknown";
}

void BinaryEnrollmentStore::validate() {
  wire::ByteCursor cur({reinterpret_cast<const char*>(data_), size_}, &header_truncated);
  cur.require(kHeaderBytes, "header");
  if (std::memcmp(cur.bytes(sizeof kMagic, "magic").data(), kMagic, sizeof kMagic) != 0) {
    fail(AuthStoreErrc::kBadMagic, "not an ARPS enrollment store");
  }
  const auto version = cur.read<std::uint16_t>("version");
  if (version != kVersion) {
    fail(AuthStoreErrc::kUnsupportedVersion,
         "unsupported ARPS version " + std::to_string(version));
  }
  if (cur.read<std::uint16_t>("reserved") != 0) {
    fail(AuthStoreErrc::kReservedNonzero, "reserved header field is non-zero");
  }
  const auto count = cur.read<std::uint64_t>("device count");
  params_.response_bits = cur.read<std::uint32_t>("response bits");
  params_.helper_bits = cur.read<std::uint32_t>("helper bits");
  const auto tag_bytes = cur.read<std::uint32_t>("tag bytes");
  params_.model = cur.read<std::uint32_t>("model");
  params_.fleet_seed = cur.read<std::uint64_t>("fleet seed");

  if (tag_bytes != kRecordTagBytes) {
    fail(AuthStoreErrc::kBadHeader, "unexpected tag size " + std::to_string(tag_bytes));
  }
  if (params_.response_bits > kMaxBits || params_.helper_bits > kMaxBits) {
    fail(AuthStoreErrc::kBadHeader, "per-record bit width out of range");
  }
  if (params_.response_bits == 0 && params_.helper_bits == 0) {
    fail(AuthStoreErrc::kBadHeader, "record layout carries no bits");
  }

  response_bytes_ = (params_.response_bits + 7) / 8;
  helper_bytes_ = (params_.helper_bits + 7) / 8;
  record_stride_ = response_bytes_ + helper_bytes_ + kRecordTagBytes;
  const std::uint64_t per_device = 8 + static_cast<std::uint64_t>(record_stride_);
  // Division first so the multiply below cannot overflow on a hostile count.
  if (count > cur.remaining() / per_device) {
    fail(AuthStoreErrc::kTruncated, "declared device count exceeds file size");
  }
  if (count * per_device != cur.remaining()) {
    fail(AuthStoreErrc::kSizeMismatch, "trailing bytes after the last record");
  }
  device_count_ = static_cast<std::size_t>(count);
  index_ = data_ + cur.pos();
  records_ = index_ + 8 * device_count_;

  DeviceId prev = 0;
  for (std::size_t i = 0; i < device_count_; ++i) {
    const auto id = wire::load_le<std::uint64_t>(index_ + 8 * i);
    if (i > 0 && id <= prev) {
      fail(AuthStoreErrc::kUnsortedIndex, "device index is not strictly increasing");
    }
    prev = id;
  }
}

std::unique_ptr<BinaryEnrollmentStore> BinaryEnrollmentStore::parse(std::string bytes) {
  std::unique_ptr<BinaryEnrollmentStore> store(new BinaryEnrollmentStore());
  store->owned_ = std::move(bytes);
  store->data_ = reinterpret_cast<const std::uint8_t*>(store->owned_.data());
  store->size_ = store->owned_.size();
  store->validate();
  return store;
}

std::unique_ptr<BinaryEnrollmentStore> BinaryEnrollmentStore::open(const std::string& path) {
#if AROPUF_AUTHSTORE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(AuthStoreErrc::kIoError, "cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(AuthStoreErrc::kIoError, "cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    fail(AuthStoreErrc::kTruncated, "ARPS header truncated");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) fail(AuthStoreErrc::kIoError, "cannot mmap " + path);
  std::unique_ptr<BinaryEnrollmentStore> store(new BinaryEnrollmentStore());
  store->map_ = map;
  store->data_ = static_cast<const std::uint8_t*>(map);
  store->size_ = size;
  store->validate();  // on a throw, the destructor unmaps
  return store;
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(AuthStoreErrc::kIoError, "cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) fail(AuthStoreErrc::kIoError, "cannot read " + path);
  return parse(std::move(bytes));
#endif
}

BinaryEnrollmentStore::~BinaryEnrollmentStore() {
#if AROPUF_AUTHSTORE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

std::optional<RecordView> BinaryEnrollmentStore::find(DeviceId id) const {
  std::size_t lo = 0;
  std::size_t hi = device_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto probe = wire::load_le<std::uint64_t>(index_ + 8 * mid);
    if (probe == id) return record_at(mid);
    if (probe < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

DeviceId BinaryEnrollmentStore::device_id_at(std::size_t i) const {
  ARO_REQUIRE(i < device_count_, "device index out of range");
  return wire::load_le<std::uint64_t>(index_ + 8 * i);
}

RecordView BinaryEnrollmentStore::record_at(std::size_t i) const {
  ARO_REQUIRE(i < device_count_, "device index out of range");
  const std::uint8_t* base = records_ + i * record_stride_;
  RecordView view;
  view.response = response_bytes_ > 0 ? base : nullptr;
  view.helper = helper_bytes_ > 0 ? base + response_bytes_ : nullptr;
  view.tag = base + response_bytes_ + helper_bytes_;
  return view;
}

std::uint64_t enrollment_store_bytes(const AuthStoreParams& params, std::uint64_t devices) {
  const std::uint64_t stride =
      (params.response_bits + 7) / 8 + (params.helper_bits + 7) / 8 + kRecordTagBytes;
  return kHeaderBytes + devices * (8 + stride);
}

std::string encode_enrollment_store(const AuthStoreParams& params,
                                    std::vector<std::pair<DeviceId, EnrollmentRecord>> records) {
  ARO_REQUIRE(params.response_bits <= kMaxBits && params.helper_bits <= kMaxBits,
              "per-record bit width out of range");
  ARO_REQUIRE(params.response_bits + params.helper_bits > 0,
              "record layout must carry some bits");
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].first == records[i - 1].first) {
      fail(AuthStoreErrc::kDuplicateDevice,
           "device " + std::to_string(records[i].first) + " enrolled twice");
    }
  }
  std::string out = encode_header(params, records.size());
  out.reserve(static_cast<std::size_t>(enrollment_store_bytes(params, records.size())));
  for (const auto& [id, record] : records) wire::append_le(out, id);
  for (const auto& [id, record] : records) {
    ARO_REQUIRE(record.response.size() == params.response_bits, "response length mismatch");
    ARO_REQUIRE(record.helper.size() == params.helper_bits, "helper-data length mismatch");
    const std::vector<std::uint8_t> response = record.response.to_bytes();
    const std::vector<std::uint8_t> helper = record.helper.to_bytes();
    out.append(reinterpret_cast<const char*>(response.data()), response.size());
    out.append(reinterpret_cast<const char*>(helper.data()), helper.size());
    out.append(reinterpret_cast<const char*>(record.tag.data()), record.tag.size());
  }
  return out;
}

void write_enrollment_store(const std::string& path, const AuthStoreParams& params,
                            std::vector<std::pair<DeviceId, EnrollmentRecord>> records) {
  const std::string image = encode_enrollment_store(params, std::move(records));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(AuthStoreErrc::kIoError, "cannot create " + path);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  out.flush();
  if (!out.good()) fail(AuthStoreErrc::kIoError, "short write to " + path);
}

std::uint64_t merge_enrollment_stores(const std::vector<std::string>& shard_paths,
                                      const std::string& out_path) {
  ARO_REQUIRE(!shard_paths.empty(), "merge needs at least one shard");
  std::vector<std::unique_ptr<BinaryEnrollmentStore>> shards;
  shards.reserve(shard_paths.size());
  for (const std::string& path : shard_paths) shards.push_back(BinaryEnrollmentStore::open(path));
  const AuthStoreParams params = shards.front()->params();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (!same_params(shards[s]->params(), params)) {
      fail(AuthStoreErrc::kBadHeader,
           "shard " + shard_paths[s] + " disagrees on store parameters");
    }
    total += shards[s]->device_count();
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) fail(AuthStoreErrc::kIoError, "cannot create " + out_path);
  const std::string header = encode_header(params, total);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  // Pass 1: merged, strictly-increasing device index.  Pass 2: the records
  // in the same order.  Each pass is an independent K-way cursor walk, so the
  // merge streams without holding any shard's payload in memory.
  const auto for_each_merged = [&](const auto& emit) {
    std::vector<std::size_t> cursor(shards.size(), 0);
    bool have_prev = false;
    DeviceId prev = 0;
    for (;;) {
      std::size_t winner = shards.size();
      DeviceId best = 0;
      for (std::size_t s = 0; s < shards.size(); ++s) {
        if (cursor[s] >= shards[s]->device_count()) continue;
        const DeviceId id = shards[s]->device_id_at(cursor[s]);
        if (winner == shards.size() || id < best) {
          winner = s;
          best = id;
        }
      }
      if (winner == shards.size()) break;
      if (have_prev && best == prev) {
        fail(AuthStoreErrc::kDuplicateDevice,
             "device " + std::to_string(best) + " appears in two shards");
      }
      have_prev = true;
      prev = best;
      emit(*shards[winner], cursor[winner]);
      ++cursor[winner];
    }
  };

  for_each_merged([&](const BinaryEnrollmentStore& shard, std::size_t i) {
    std::string id_bytes;
    wire::append_le(id_bytes, shard.device_id_at(i));
    out.write(id_bytes.data(), static_cast<std::streamsize>(id_bytes.size()));
  });
  const std::size_t response_bytes = (params.response_bits + 7) / 8;
  const std::size_t helper_bytes = (params.helper_bits + 7) / 8;
  for_each_merged([&](const BinaryEnrollmentStore& shard, std::size_t i) {
    const RecordView view = shard.record_at(i);
    if (response_bytes > 0) {
      out.write(reinterpret_cast<const char*>(view.response),
                static_cast<std::streamsize>(response_bytes));
    }
    if (helper_bytes > 0) {
      out.write(reinterpret_cast<const char*>(view.helper),
                static_cast<std::streamsize>(helper_bytes));
    }
    out.write(reinterpret_cast<const char*>(view.tag),
              static_cast<std::streamsize>(kRecordTagBytes));
  });
  out.flush();
  if (!out.good()) fail(AuthStoreErrc::kIoError, "short write to " + out_path);
  return total;
}

}  // namespace aropuf
