#include "util/mathx.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace emmark {

double log_factorial(int64_t n) {
  if (n < 0) throw std::invalid_argument("log_factorial: negative n");
  // lgamma_r, not std::lgamma: glibc's lgamma also writes the global
  // `signgam`, a data race when pool workers score reports concurrently.
  int sign = 0;
  return lgamma_r(static_cast<double>(n) + 1.0, &sign);
}

double log_binomial_coefficient(int64_t n, int64_t k) {
  if (k < 0 || k > n) throw std::invalid_argument("log_binomial_coefficient: k out of range");
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double log10_binomial_tail_half(int64_t n, int64_t k) {
  if (n <= 0) throw std::invalid_argument("log10_binomial_tail_half: n must be positive");
  k = std::clamp<int64_t>(k, 0, n);
  if (k == 0) return 0.0;  // tail is 1
  // P = 0.5^n * sum_{i=k}^{n} C(n, i); accumulate the sum in log space.
  const double ln_half_n = static_cast<double>(n) * std::log(0.5);
  double ln_sum = -std::numeric_limits<double>::infinity();
  for (int64_t i = k; i <= n; ++i) {
    const double term = log_binomial_coefficient(n, i);
    const double hi = std::max(ln_sum, term);
    ln_sum = hi + std::log(std::exp(ln_sum - hi) + std::exp(term - hi));
  }
  return (ln_half_n + ln_sum) / std::log(10.0);
}

double binomial_tail_half(int64_t n, int64_t k) {
  return std::pow(10.0, log10_binomial_tail_half(n, k));
}

double log_sum_exp(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  const double hi = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(hi)) return hi;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - hi);
  return hi + std::log(sum);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double accum = 0.0;
  for (double x : xs) accum += (x - mu) * (x - mu);
  return std::sqrt(accum / static_cast<double>(xs.size()));
}

double percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = pct / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace emmark
