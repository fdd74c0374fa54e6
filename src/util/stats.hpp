/// \file stats.hpp
/// \brief The Pearson correlation (r², p-value) used to reproduce the
/// paper's Fig. 3 metric-correlation analysis.
#pragma once

#include <span>

namespace hsbp::util {

struct Correlation {
  double r = 0.0;         ///< Pearson correlation coefficient
  double r_squared = 0.0; ///< coefficient of determination
  double p_value = 1.0;   ///< two-sided p under t(n-2); 1.0 if n < 3
  double slope = 0.0;     ///< least-squares slope of y on x
  double intercept = 0.0; ///< least-squares intercept
};

/// Pearson correlation of paired samples with a least-squares fit and a
/// two-sided p-value from the exact t distribution (via the regularized
/// incomplete beta function). \pre x.size() == y.size().
Correlation pearson(std::span<const double> x, std::span<const double> y);

/// Regularized incomplete beta function I_x(a, b), continued-fraction
/// evaluation (Lentz); exposed for tests. \pre a,b > 0 and 0 <= x <= 1.
double regularized_incomplete_beta(double a, double b, double x);

}  // namespace hsbp::util
