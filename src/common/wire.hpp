// The one little-endian byte codec under every binary format in the repo:
// ARPB shard manifests, the ARPS enrollment store, the ARPF frame header,
// the record-binding tag message and packed bit vectors (DESIGN.md §10.2).
//
// load_le / append_le are bit-exact for u8/u16/u32/u64/double: a memcpy,
// byte-swapped on big-endian hosts only, so NaN payloads and subnormals
// survive and any alignment is fine.  ByteCursor is the one bounds-checked
// reader over untrusted bytes; it reports a shortfall through a handler the
// format supplies, which throws that format's typed error.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string_view>
#include <type_traits>

namespace aropuf::wire {

namespace detail {

/// The unsigned integer a wire scalar travels as.
template <typename T>
using Bits = std::conditional_t<std::is_same_v<T, double>, std::uint64_t, T>;

template <typename T>
Bits<T> to_le_bits(T v) {
  static_assert(std::is_same_v<T, double> || (std::is_unsigned_v<T> && sizeof(T) <= 8),
                "wire scalars are u8/u16/u32/u64/double");
  auto bits = std::bit_cast<Bits<T>>(v);
  if constexpr (std::endian::native == std::endian::big && sizeof(T) > 1) {
    auto raw = std::bit_cast<std::array<unsigned char, sizeof(T)>>(bits);
    std::reverse(raw.begin(), raw.end());
    bits = std::bit_cast<Bits<T>>(raw);
  }
  return bits;
}

}  // namespace detail

/// Reads a little-endian T from `p`.
template <typename T>
[[nodiscard]] inline T load_le(const void* p) {
  detail::Bits<T> bits;
  std::memcpy(&bits, p, sizeof bits);
  return std::bit_cast<T>(detail::to_le_bits(bits));
}

/// The first `n` (0..8) bytes at `p` as a little-endian u64; absent high
/// bytes read as zero.  The full-width case is a single load.
[[nodiscard]] inline std::uint64_t load_le_prefix(const void* p, std::size_t n) {
  if (n == 8) return load_le<std::uint64_t>(p);
  unsigned char word[8] = {};
  std::memcpy(word, p, n);
  return load_le<std::uint64_t>(word);
}

/// Appends `v` as little-endian bytes to a std::string or byte vector.
template <typename T, typename Bytes>
inline void append_le(Bytes& out, T v) {
  const auto bits = detail::to_le_bits(v);
  unsigned char raw[sizeof bits];
  std::memcpy(raw, &bits, sizeof bits);
  out.insert(out.end(), raw, raw + sizeof raw);
}

/// Bounds-checked little-endian reader over untrusted bytes.  A read that
/// would run past the end consumes nothing and calls the Shortfall handler.
class ByteCursor {
 public:
  /// Reports that `what` needs `need` bytes but only `have` remain at
  /// `offset`.  Must throw the format's typed error.
  using Shortfall = void (*)(const char* what, std::size_t need, std::size_t have,
                             std::size_t offset);

  ByteCursor(std::string_view bytes, Shortfall on_short) : bytes_(bytes), on_short_(on_short) {}

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  void require(std::uint64_t n, const char* what) const {
    if (remaining() < n) {
      on_short_(what, static_cast<std::size_t>(n), remaining(), pos_);
      std::terminate();  // a Shortfall handler must not return
    }
  }

  template <typename T>
  [[nodiscard]] T read(const char* what) {
    require(sizeof(T), what);
    const T v = load_le<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] std::string_view bytes(std::uint64_t n, const char* what) {
    require(n, what);
    const std::string_view out = bytes_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }

  /// Consumes zero padding up to the next 8-byte offset; false, stopped at
  /// the offending byte, when a padding byte is nonzero.
  [[nodiscard]] bool align8() {
    for (; pos_ % 8 != 0; ++pos_) {
      require(1, "alignment padding");
      if (bytes_[pos_] != '\0') return false;
    }
    return true;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  Shortfall on_short_;
};

}  // namespace aropuf::wire
