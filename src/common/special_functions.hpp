// Special functions needed by the NIST-lite randomness battery and the
// binomial statistics.
//
// The NIST SP 800-22 statistics report p-values through the complementary
// error function and the regularized upper incomplete gamma function; the
// standard library provides erfc but not igamc, so we implement the classic
// series/continued-fraction pair (Numerical Recipes style).
#pragma once

namespace aropuf {

/// ln|Γ(x)|, safe to call from many threads at once.  std::lgamma writes the
/// global `signgam` on POSIX libcs — a data race when the parallel ECC code
/// search evaluates binomial coefficients — so this wraps lgamma_r there
/// (std::lgamma under MSVC, which keeps no such global).  Bit-identical to
/// std::lgamma: both are the same libm routine.
[[nodiscard]] double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a), a > 0, x >= 0.
[[nodiscard]] double regularized_gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 − P(a, x).
[[nodiscard]] double regularized_gamma_q(double a, double x);

/// Standard normal CDF Φ(x).
[[nodiscard]] double normal_cdf(double x);

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9 — ample for confidence-interval reporting).
[[nodiscard]] double normal_quantile(double p);

}  // namespace aropuf
