// Binary primitive BCH codes: construction, systematic encoding, and
// Berlekamp–Massey + Chien decoding.
//
// A BchCode(m, t) has length n = 2^m − 1 and corrects up to t bit errors;
// the dimension k = n − deg(g) falls out of the generator construction
// (LCM of the minimal polynomials of alpha^1 .. alpha^2t).  Shortening by s
// bits (prepending zero information bits that are never transmitted) yields
// the (n−s, k−s, t) codes the fuzzy extractor uses to match key sizes.
//
// This is a faithful implementation — syndromes, the error-locator via BM,
// and root search via Chien — not a behavioural stub, because the E7 area
// bench derives decoder complexity from the same (m, t) parameters that
// drive this decoder, and the keygen tests exercise real correction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"
#include "ecc/gf2m.hpp"

namespace aropuf {

class BchCode {
 public:
  /// Primitive BCH over GF(2^m) correcting `t` errors.
  BchCode(int m, int t);

  [[nodiscard]] int m() const noexcept { return field_.m(); }
  [[nodiscard]] int t() const noexcept { return t_; }
  /// Code length n = 2^m − 1.
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  /// Information length k = n − deg(g).
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  /// Generator polynomial, bit i = coefficient of x^i.
  [[nodiscard]] const BitVector& generator() const noexcept { return generator_; }

  /// Systematic encode: returns the n-bit codeword [parity | message].
  [[nodiscard]] BitVector encode(const BitVector& message) const;

  /// Decodes an n-bit word; corrects up to t errors.  Returns std::nullopt
  /// on decoder failure (more than t errors detected).
  [[nodiscard]] std::optional<BitVector> decode(const BitVector& received) const;

  /// Extracts the message bits from a (corrected) codeword.
  [[nodiscard]] BitVector extract_message(const BitVector& codeword) const;

  /// True if `word` is a codeword (all syndromes zero).
  [[nodiscard]] bool is_codeword(const BitVector& word) const;

  /// Dimension k of BchCode(m, t) without building the code: one lookup in
  /// a per-field k(t) table built once per process.  Returns 0 if the code
  /// does not exist (deg(g) >= n).  Used by the code search.
  [[nodiscard]] static std::size_t dimension(int m, int t);

 private:
  [[nodiscard]] std::vector<std::uint32_t> syndromes(const BitVector& received) const;

  GF2m field_;
  int t_;
  std::size_t n_;
  std::size_t k_;
  BitVector generator_;
};

}  // namespace aropuf
