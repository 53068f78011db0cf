#include "ecc/bch.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace aropuf {

namespace {

constexpr int kMinM = 3;
constexpr int kMaxM = 14;

/// Root exponents of the t-error-correcting generator: the union of the
/// cyclotomic cosets modulo n = 2^m − 1 (the exponents of the conjugates
/// alpha^(i·2^j)) of i = 1 .. 2t, in walk order.  With `k_by_t`, the walk
/// appends k(s) = n − |roots| once 1 .. 2s are covered, for every s <= t
/// whose code is not void.  The walk stops early once every exponent, 0
/// included, is a root.
std::vector<std::uint32_t> generator_root_exponents(std::uint32_t n, std::uint64_t t,
                                                    std::vector<std::uint32_t>* k_by_t = nullptr) {
  std::vector<std::uint32_t> roots;
  std::vector<bool> is_root(n, false);
  for (std::uint64_t i = 1; i <= 2 * t && roots.size() < n; ++i) {
    for (auto x = static_cast<std::uint32_t>(i % n); !is_root[x]; x = (2 * x) % n) {
      is_root[x] = true;
      roots.push_back(x);
    }
    if (k_by_t != nullptr && i % 2 == 0 && roots.size() < n) {
      k_by_t->push_back(n - static_cast<std::uint32_t>(roots.size()));
    }
  }
  return roots;
}

/// k(t) = n − |roots| for every m in [3, 14] and every non-void t (index
/// t − 1), from one coset walk per field.  Roots only grow with t, so every
/// t past a table's end is void.  Built once, on first use; the C++
/// function-local static makes that race-free from the code search's pool.
const std::vector<std::uint32_t>& dimension_table(int m) {
  static const auto tables = [] {
    std::array<std::vector<std::uint32_t>, kMaxM - kMinM + 1> by_m;
    for (int field_m = kMinM; field_m <= kMaxM; ++field_m) {
      const std::uint32_t n = (1U << field_m) - 1;
      generator_root_exponents(n, n, &by_m[static_cast<std::size_t>(field_m - kMinM)]);
    }
    return by_m;
  }();
  return tables[static_cast<std::size_t>(m - kMinM)];
}

}  // namespace

std::size_t BchCode::dimension(int m, int t) {
  ARO_REQUIRE(m >= kMinM && m <= kMaxM, "BCH supports m in [3, 14]");
  ARO_REQUIRE(t >= 1, "BCH needs t >= 1");
  const auto& k = dimension_table(m);
  return static_cast<std::size_t>(t) <= k.size() ? k[static_cast<std::size_t>(t) - 1] : 0;
}

BchCode::BchCode(int m, int t) : field_(m), t_(t), n_((1U << m) - 1) {
  ARO_REQUIRE(t >= 1, "BCH needs t >= 1");
  const auto n32 = static_cast<std::uint32_t>(n_);
  const auto roots = generator_root_exponents(n32, static_cast<std::uint64_t>(t));
  ARO_REQUIRE(roots.size() < n_, "design distance too large: empty code");
  k_ = n_ - roots.size();

  // g(x) = prod over root exponents e of (x - alpha^e), computed over
  // GF(2^m); the product of full conjugate classes has binary coefficients
  // (and, being an exact product, does not depend on the roots' order).
  std::vector<std::uint32_t> g{1};
  g.reserve(roots.size() + 1);
  for (const std::uint32_t e : roots) {
    const std::uint32_t root = field_.alpha_pow(e);
    std::vector<std::uint32_t> next(g.size() + 1, 0);
    for (std::size_t i = 0; i < g.size(); ++i) {
      next[i + 1] ^= g[i];                  // x * g_i
      next[i] ^= field_.mul(g[i], root);    // root * g_i (char-2: add = xor)
    }
    g = std::move(next);
  }
  generator_ = BitVector(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    ARO_ASSERT(g[i] <= 1, "generator polynomial must be binary");
    generator_.set(i, g[i] == 1);
  }
  ARO_ASSERT(generator_.get(g.size() - 1), "generator must be monic");
}

BitVector BchCode::encode(const BitVector& message) const {
  ARO_REQUIRE(message.size() == k_, "message length must equal k");
  const std::size_t parity_len = n_ - k_;
  ARO_ASSERT(parity_len >= 1, "BCH with t >= 1 always has parity bits");
  // remainder of x^(n-k) * m(x) modulo g(x): LFSR-style long division over
  // GF(2), consuming message bits from the highest power down.
  std::vector<std::uint8_t> rem(parity_len, 0);
  for (std::size_t i = message.size(); i-- > 0;) {
    const bool feedback = (message.get(i) ? 1 : 0) ^ rem[parity_len - 1];
    for (std::size_t j = parity_len; j-- > 1;) rem[j] = rem[j - 1];
    rem[0] = 0;
    if (feedback) {
      for (std::size_t j = 0; j < parity_len; ++j) {
        if (generator_.get(j)) rem[j] ^= 1;
      }
    }
  }
  BitVector codeword(n_);
  for (std::size_t j = 0; j < parity_len; ++j) codeword.set(j, rem[j] != 0);
  for (std::size_t i = 0; i < k_; ++i) codeword.set(parity_len + i, message.get(i));
  ARO_ASSERT(is_codeword(codeword), "systematic encoding produced a non-codeword");
  return codeword;
}

std::vector<std::uint32_t> BchCode::syndromes(const BitVector& received) const {
  std::vector<std::uint32_t> s(static_cast<std::size_t>(2 * t_), 0);
  for (std::size_t i = 0; i < n_; ++i) {
    if (!received.get(i)) continue;
    for (int j = 1; j <= 2 * t_; ++j) {
      s[static_cast<std::size_t>(j - 1)] ^=
          field_.alpha_pow(static_cast<std::int64_t>(i) * j);
    }
  }
  return s;
}

bool BchCode::is_codeword(const BitVector& word) const {
  ARO_REQUIRE(word.size() == n_, "word length must equal n");
  const auto s = syndromes(word);
  return std::all_of(s.begin(), s.end(), [](std::uint32_t v) { return v == 0; });
}

std::optional<BitVector> BchCode::decode(const BitVector& received) const {
  ARO_REQUIRE(received.size() == n_, "received length must equal n");
  const auto s = syndromes(received);
  if (std::all_of(s.begin(), s.end(), [](std::uint32_t v) { return v == 0; })) {
    return received;
  }

  // Berlekamp–Massey: find the minimal error-locator sigma(x).
  std::vector<std::uint32_t> sigma{1};   // C(x)
  std::vector<std::uint32_t> prev{1};    // B(x)
  std::size_t l = 0;
  std::size_t shift = 1;                 // m in the classic formulation
  std::uint32_t prev_disc = 1;           // b

  for (std::size_t step = 0; step < static_cast<std::size_t>(2 * t_); ++step) {
    std::uint32_t disc = s[step];
    for (std::size_t i = 1; i <= l && i < sigma.size(); ++i) {
      if (step >= i) disc ^= field_.mul(sigma[i], s[step - i]);
    }
    if (disc == 0) {
      ++shift;
      continue;
    }
    // C(x) -= (d / b) x^shift B(x)
    std::vector<std::uint32_t> next = sigma;
    const std::uint32_t factor = field_.div(disc, prev_disc);
    if (next.size() < prev.size() + shift) next.resize(prev.size() + shift, 0);
    for (std::size_t i = 0; i < prev.size(); ++i) {
      next[i + shift] ^= field_.mul(factor, prev[i]);
    }
    if (2 * l <= step) {
      prev = sigma;
      prev_disc = disc;
      l = step + 1 - l;
      shift = 1;
    } else {
      ++shift;
    }
    sigma = std::move(next);
  }

  if (l > static_cast<std::size_t>(t_)) return std::nullopt;

  // Chien search: error at position p iff sigma(alpha^(-p)) == 0.
  BitVector corrected = received;
  std::size_t found = 0;
  for (std::size_t p = 0; p < n_; ++p) {
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < sigma.size(); ++i) {
      if (sigma[i] == 0) continue;
      const std::int64_t e = static_cast<std::int64_t>(field_.log(sigma[i])) -
                             static_cast<std::int64_t>(i * p);
      value ^= field_.alpha_pow(e);
    }
    if (value == 0) {
      corrected.flip(p);
      ++found;
    }
  }
  if (found != l) return std::nullopt;
  if (!is_codeword(corrected)) return std::nullopt;
  return corrected;
}

BitVector BchCode::extract_message(const BitVector& codeword) const {
  ARO_REQUIRE(codeword.size() == n_, "codeword length must equal n");
  return codeword.slice(n_ - k_, k_);
}

}  // namespace aropuf
