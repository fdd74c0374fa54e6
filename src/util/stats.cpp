#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace hsbp::util {
namespace {

/// Continued fraction for the incomplete beta (Numerical Recipes betacf).
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 3.0e-14;
  constexpr double kTiny = 1.0e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double dm = m;
    double aa = dm * (b - dm) * x / ((qam + 2.0 * dm) * (a + 2.0 * dm));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + dm) * (qab + dm) * x / ((a + 2.0 * dm) * (qap + 2.0 * dm));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double regularized_incomplete_beta(double a, double b, double x) {
  assert(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = std::lgamma(a + b) - std::lgamma(a) -
                           std::lgamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  const double front = std::exp(log_front);
  // Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to keep the continued
  // fraction in its fast-converging regime.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

Correlation pearson(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  Correlation result;
  const std::size_t n = x.size();
  if (n < 2) return result;

  double mean_x = 0.0, mean_y = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_x += x[i];
    mean_y += y[i];
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);

  double sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    sxx += dx * dx;
    syy += dy * dy;
    sxy += dx * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return result;  // degenerate: constant input

  result.r = sxy / std::sqrt(sxx * syy);
  result.r = std::clamp(result.r, -1.0, 1.0);
  result.r_squared = result.r * result.r;
  result.slope = sxy / sxx;
  result.intercept = mean_y - result.slope * mean_x;

  if (n >= 3) {
    const double df = static_cast<double>(n - 2);
    const double denom = 1.0 - result.r_squared;
    if (denom <= std::numeric_limits<double>::epsilon()) {
      result.p_value = 0.0;
    } else {
      const double t = result.r * std::sqrt(df / denom);
      // Two-sided p for Student's t: I_{df/(df+t^2)}(df/2, 1/2).
      result.p_value =
          regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t));
    }
  }
  return result;
}

}  // namespace hsbp::util
