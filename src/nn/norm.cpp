#include "nn/norm.h"

#include <cmath>
#include <cstring>

#include "util/threadpool.h"

namespace emmark {

LayerNorm::LayerNorm(std::string name, int64_t dim, float eps)
    : name_(std::move(name)), dim_(dim), eps_(eps) {
  gamma_ = Parameter(name_ + ".gamma", Tensor::full({dim}, 1.0f));
  beta_ = Parameter(name_ + ".beta", Tensor({dim}));
}

void LayerNorm::forward(const Tensor& x, Tensor& y, Cache& cache) const {
  const int64_t m = x.dim(0);
  y.resize({m, dim_});
  cache.norm.resize({m, dim_});
  cache.rstd.resize({m});
  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();
  auto rows = [&](size_t begin, size_t end) {
    for (auto i = static_cast<int64_t>(begin); i < static_cast<int64_t>(end); ++i) {
      const float* xr = x.data() + i * dim_;
      float mean = 0.0f;
      for (int64_t j = 0; j < dim_; ++j) mean += xr[j];
      mean /= static_cast<float>(dim_);
      float var = 0.0f;
      for (int64_t j = 0; j < dim_; ++j) {
        const float d = xr[j] - mean;
        var += d * d;
      }
      var /= static_cast<float>(dim_);
      const float rstd = 1.0f / std::sqrt(var + eps_);
      cache.rstd.data()[i] = rstd;
      float* nr = cache.norm.data() + i * dim_;
      float* yr = y.data() + i * dim_;
      for (int64_t j = 0; j < dim_; ++j) {
        nr[j] = (xr[j] - mean) * rstd;
        yr[j] = nr[j] * gamma[j] + beta[j];
      }
    }
  };
  // ~2.2 ns per element: three passes, two of them serial float sums.
  parallel_for_work(static_cast<size_t>(m), 2.2 * static_cast<double>(dim_), rows);
}

void LayerNorm::backward(const Tensor& dy, Tensor& dx, const Cache& cache) {
  const int64_t m = dy.dim(0);
  dx = Tensor({m, dim_});
  const float* gamma = gamma_.value.data();
  float* dgamma = gamma_.grad.data();
  float* dbeta = beta_.grad.data();
  const float inv_dim = 1.0f / static_cast<float>(dim_);
  for (int64_t i = 0; i < m; ++i) {
    const float* dyr = dy.data() + i * dim_;
    const float* nr = cache.norm.data() + i * dim_;
    const float rstd = cache.rstd.data()[i];
    // dnorm = dy * gamma; dx = rstd * (dnorm - mean(dnorm) - n * mean(dnorm*n))
    float mean_dn = 0.0f, mean_dnn = 0.0f;
    for (int64_t j = 0; j < dim_; ++j) {
      const float dn = dyr[j] * gamma[j];
      mean_dn += dn;
      mean_dnn += dn * nr[j];
    }
    mean_dn *= inv_dim;
    mean_dnn *= inv_dim;
    float* dxr = dx.data() + i * dim_;
    for (int64_t j = 0; j < dim_; ++j) {
      const float dn = dyr[j] * gamma[j];
      dxr[j] = rstd * (dn - mean_dn - nr[j] * mean_dnn);
      dgamma[j] += dyr[j] * nr[j];
      dbeta[j] += dyr[j];
    }
  }
}

RmsNorm::RmsNorm(std::string name, int64_t dim, float eps)
    : name_(std::move(name)), dim_(dim), eps_(eps) {
  gamma_ = Parameter(name_ + ".gamma", Tensor::full({dim}, 1.0f));
}

void RmsNorm::forward(const Tensor& x, Tensor& y, Cache& cache) const {
  const int64_t m = x.dim(0);
  y.resize({m, dim_});
  cache.x.resize({m, dim_});
  cache.rrms.resize({m});
  const float* gamma = gamma_.value.data();
  auto rows = [&](size_t begin, size_t end) {
    for (auto i = static_cast<int64_t>(begin); i < static_cast<int64_t>(end); ++i) {
      const float* xr = x.data() + i * dim_;
      std::memcpy(cache.x.data() + i * dim_, xr,
                  static_cast<size_t>(dim_) * sizeof(float));
      float ss = 0.0f;
      for (int64_t j = 0; j < dim_; ++j) ss += xr[j] * xr[j];
      const float rrms = 1.0f / std::sqrt(ss / static_cast<float>(dim_) + eps_);
      cache.rrms.data()[i] = rrms;
      float* yr = y.data() + i * dim_;
      for (int64_t j = 0; j < dim_; ++j) yr[j] = xr[j] * rrms * gamma[j];
    }
  };
  // ~1.4 ns per element: one serial float sum, a scaling pass and a copy.
  parallel_for_work(static_cast<size_t>(m), 1.4 * static_cast<double>(dim_), rows);
}

void RmsNorm::backward(const Tensor& dy, Tensor& dx, const Cache& cache) {
  const int64_t m = dy.dim(0);
  dx = Tensor({m, dim_});
  const float* gamma = gamma_.value.data();
  float* dgamma = gamma_.grad.data();
  const float inv_dim = 1.0f / static_cast<float>(dim_);
  for (int64_t i = 0; i < m; ++i) {
    const float* dyr = dy.data() + i * dim_;
    const float* xr = cache.x.data() + i * dim_;
    const float rrms = cache.rrms.data()[i];
    // dx = rrms * dh - x * rrms^3/dim * sum(dh * x), with dh = dy * gamma
    float dot = 0.0f;
    for (int64_t j = 0; j < dim_; ++j) dot += dyr[j] * gamma[j] * xr[j];
    const float coef = rrms * rrms * rrms * inv_dim * dot;
    float* dxr = dx.data() + i * dim_;
    for (int64_t j = 0; j < dim_; ++j) {
      dxr[j] = dyr[j] * gamma[j] * rrms - xr[j] * coef;
      dgamma[j] += dyr[j] * xr[j] * rrms;
    }
  }
}

}  // namespace emmark
