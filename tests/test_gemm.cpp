// GEMM kernels against a naive reference over random shapes.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <tuple>
#include <vector>

#include "kernels/kernels.h"
#include "tensor/gemm.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

Tensor random_tensor(int64_t rows, int64_t cols, Rng& rng) {
  Tensor t({rows, cols});
  for (float& v : t.flat()) v = rng.next_normal_f();
  return t;
}

Tensor reference_nn(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < b.dim(1); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.dim(1); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i], tol) << "at " << i;
  }
}

/// Naive float loop: per output, ascending-p sums from an exact 0 -- the
/// order every GEMM layout promises, so tiled results equal it bitwise.
std::vector<float> ascending_p_nn(const Tensor& a, const Tensor& b) {
  std::vector<float> c(static_cast<size_t>(a.dim(0) * b.dim(1)));
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < b.dim(1); ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < a.dim(1); ++p) acc += a.at(i, p) * b.at(p, j);
      c[static_cast<size_t>(i * b.dim(1) + j)] = acc;
    }
  }
  return c;
}

/// Runs `gemm` (which must overwrite its m x n output) at every supported
/// kernel level and at pool sizes 1 and 4; each run must reproduce `exact`
/// bit for bit. Returns the last run's output for the tolerance check.
Tensor expect_bitwise_everywhere(int64_t m, int64_t n,
                                 const std::function<void(float*)>& gemm,
                                 const std::vector<float>& exact) {
  Tensor c({m, n});
  for (kernels::Level level : kernels::supported_levels()) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      kernels::ScopedLevelOverride kernel(level);
      ThreadPool pool(threads);
      ThreadPool::ScopedOverride over(pool);
      for (float& v : c.flat()) v = 99.0f;  // stale output must be cleared
      gemm(c.data());
      EXPECT_EQ(std::vector<float>(c.flat().begin(), c.flat().end()), exact)
          << "level=" << kernels::to_string(level) << " threads=" << threads;
    }
  }
  return c;
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(GemmShapes, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  const Tensor a = random_tensor(m, k, rng);
  const Tensor b = random_tensor(k, n, rng);
  const Tensor c = expect_bitwise_everywhere(
      m, n, [&](float* out) { gemm_nn(a.data(), b.data(), out, m, k, n); },
      ascending_p_nn(a, b));
  expect_close(c, reference_nn(a, b));
}

TEST_P(GemmShapes, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 101 + k * 11 + n);
  const Tensor a = random_tensor(m, k, rng);
  const Tensor bt = random_tensor(n, k, rng);  // B^T stored row-major

  // reference: a * bt^T
  Tensor b({k, n});
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < n; ++j) b.at(i, j) = bt.at(j, i);
  }
  const Tensor c = expect_bitwise_everywhere(
      m, n, [&](float* out) { gemm_nt(a.data(), bt.data(), out, m, k, n); },
      ascending_p_nn(a, b));
  expect_close(c, reference_nn(a, b));
}

TEST_P(GemmShapes, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 102 + k * 12 + n);
  const Tensor at = random_tensor(k, m, rng);  // A^T stored row-major
  const Tensor b = random_tensor(k, n, rng);

  Tensor a({m, k});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < k; ++j) a.at(i, j) = at.at(j, i);
  }
  const Tensor c = expect_bitwise_everywhere(
      m, n, [&](float* out) { gemm_tn(at.data(), b.data(), out, m, k, n); },
      ascending_p_nn(a, b));
  expect_close(c, reference_nn(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(33, 17, 9), std::make_tuple(64, 48, 32),
                      // Rows that do not split into 4-row tiles, K across
                      // kGemmPanelK, N across the 128-column panel.
                      std::make_tuple(37, 300, 290)));

TEST(Gemm, AccumulateAddsToExisting) {
  Rng rng(5);
  const Tensor a = random_tensor(4, 6, rng);
  const Tensor b = random_tensor(6, 5, rng);
  Tensor c({4, 5});
  gemm_nn(a.data(), b.data(), c.data(), 4, 6, 5);
  Tensor c2 = c;
  gemm_nn(a.data(), b.data(), c2.data(), 4, 6, 5, /*accumulate=*/true);
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c2.flat()[i], 2.0f * c.flat()[i], 1e-4f);
  }
}

TEST(Gemm, AccumulateNtAddsToExisting) {
  Rng rng(6);
  const Tensor a = random_tensor(4, 6, rng);
  const Tensor bt = random_tensor(5, 6, rng);
  Tensor c({4, 5});
  gemm_nt(a.data(), bt.data(), c.data(), 4, 6, 5);
  Tensor c2 = c;
  gemm_nt(a.data(), bt.data(), c2.data(), 4, 6, 5, /*accumulate=*/true);
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c2.flat()[i], 2.0f * c.flat()[i], 1e-4f);
  }
}

TEST(Gemm, AccumulateTnAddsToExisting) {
  Rng rng(7);
  const Tensor at = random_tensor(6, 4, rng);
  const Tensor b = random_tensor(6, 5, rng);
  Tensor c({4, 5});
  gemm_tn(at.data(), b.data(), c.data(), 4, 6, 5);
  Tensor c2 = c;
  gemm_tn(at.data(), b.data(), c2.data(), 4, 6, 5, /*accumulate=*/true);
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c2.flat()[i], 2.0f * c.flat()[i], 1e-4f);
  }
}

TEST(Gemm, AccumulateFalseOverwritesStaleOutput) {
  // The non-accumulate path must fully clear C, including rows a zeros
  // operand never touches.
  Rng rng(8);
  const Tensor a = random_tensor(3, 4, rng);
  const Tensor b = random_tensor(4, 5, rng);
  Tensor c({3, 5});
  for (float& v : c.flat()) v = 99.0f;  // stale garbage
  gemm_nn(a.data(), b.data(), c.data(), 3, 4, 5);
  expect_close(c, reference_nn(a, b));
}

TEST(Gemm, ZerosHeavyMatricesMatchReference) {
  // The old kernels skipped a_val == 0.0f; the vectorized rewrite dropped
  // the branch. This pins the semantics it must preserve: exact zeros in
  // either operand contribute nothing.
  Rng rng(13);
  const int64_t m = 17, k = 40, n = 23;
  Tensor a = random_tensor(m, k, rng);
  Tensor b = random_tensor(k, n, rng);
  for (float& v : a.flat()) {
    if (rng.next_bool(0.6)) v = 0.0f;
  }
  for (float& v : b.flat()) {
    if (rng.next_bool(0.3)) v = 0.0f;
  }
  Tensor c({m, n});
  gemm_nn(a.data(), b.data(), c.data(), m, k, n);
  expect_close(c, reference_nn(a, b));

  // Same density through gemm_tn (the other layout that had the skip).
  Tensor at({k, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < k; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor c_tn({m, n});
  gemm_tn(at.data(), b.data(), c_tn.data(), m, k, n);
  expect_close(c_tn, reference_nn(a, b));

  // An all-zero A must produce an exactly-zero C (no NaN/Inf leakage).
  Tensor zeros({m, k});
  Tensor cz({m, n});
  for (float& v : cz.flat()) v = 42.0f;
  gemm_nn(zeros.data(), b.data(), cz.data(), m, k, n);
  for (int64_t i = 0; i < cz.numel(); ++i) {
    EXPECT_EQ(cz.flat()[i], 0.0f) << "at " << i;
  }
}

TEST(Gemm, PackedGemmPacksEachPanelOncePerCall) {
  // Two K-slices (k > kGemmPanelK), three N-tiles (n > kGemmPanelN) and a
  // row count no pool size splits evenly: every panel must be packed
  // exactly once per call -- never once per row block -- and the output
  // must not depend on the pool size.
  const int64_t m = 37, k = 300, n = 290;
  Rng rng(17);
  const Tensor x = random_tensor(m, k, rng);
  const Tensor w = random_tensor(n, k, rng);  // W[N, K], reached via the packer
  const int64_t expected_calls = ((k + kGemmPanelK - 1) / kGemmPanelK) *
                                 ((n + kGemmPanelN - 1) / kGemmPanelN);

  // Naive nt loop: ascending-p float sums from an exact 0, the order
  // gemm_nt_packed promises per output element.
  std::vector<float> reference(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += x.at(i, p) * w.at(j, p);
      reference[static_cast<size_t>(i * n + j)] = acc;
    }
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    ThreadPool::ScopedOverride over(pool);
    std::atomic<int64_t> calls{0};
    std::vector<float> y(static_cast<size_t>(m * n), 99.0f);
    gemm_nt_packed(x.data(), y.data(), m, k, n, /*accumulate=*/false,
                   [&](int64_t p0, int64_t pb, int64_t j0, int64_t jb,
                       float* panel) {
                     calls.fetch_add(1, std::memory_order_relaxed);
                     ASSERT_LE(pb, kGemmPanelK);
                     ASSERT_LE(jb, kGemmPanelN);
                     for (int64_t p = 0; p < pb; ++p) {
                       for (int64_t j = 0; j < jb; ++j) {
                         panel[p * jb + j] = w.at(j0 + j, p0 + p);
                       }
                     }
                   });
    EXPECT_EQ(calls.load(), expected_calls) << "threads=" << threads;
    EXPECT_EQ(y, reference) << "threads=" << threads;
  }
}

TEST(Gemm, MatmulChecksShapes) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), TensorError);
  Tensor ok({3, 4});
  EXPECT_NO_THROW(matmul(a, ok));
}

TEST(Gemm, MatmulIdentity) {
  Rng rng(9);
  const Tensor a = random_tensor(5, 5, rng);
  Tensor eye({5, 5});
  for (int64_t i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  expect_close(matmul(a, eye), a);
}

}  // namespace
}  // namespace emmark
