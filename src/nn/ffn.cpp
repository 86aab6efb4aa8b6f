#include "nn/ffn.h"

#include "kernels/kernels.h"
#include "tensor/ops.h"
#include "util/threadpool.h"

namespace emmark {

FeedForward::FeedForward(const std::string& name, FfnKind kind, int64_t d_model,
                         int64_t hidden, bool bias, Rng& rng)
    : kind_(kind),
      d_model_(d_model),
      hidden_(hidden),
      up_(name + ".up_proj", d_model, hidden, bias, rng),
      down_(name + ".down_proj", hidden, d_model, bias, rng),
      gate_(name + ".gate_proj", d_model, hidden, /*bias=*/false, rng),
      has_gate_(kind == FfnKind::kSwiGlu) {}

void FeedForward::forward(const Tensor& x, Tensor& y, Cache& cache) {
  up_.forward(x, cache.up);
  cache.h.resize(cache.up.shape());
  const float* u = cache.up.data();
  float* h = cache.h.data();
  const auto n = static_cast<size_t>(cache.h.numel());
  if (kind_ == FfnKind::kRelu) {
    // ~3 ns per element: an out-of-line relu call.
    parallel_for_work(n, 3.0, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) h[i] = relu(u[i]);
    });
  } else {
    gate_.forward(x, cache.gate);
    const float* g = cache.gate.data();
    const kernels::Ops& ops = kernels::active_ops();
    // ~0.8 ns per element at AVX-512 (1.1 AVX2, 2.0 SSE2, 7.4 scalar): the
    // vector exp, one divide, one multiply.
    parallel_for_work(n, 0.8, [&](size_t begin, size_t end) {
      ops.swiglu_f32(g + begin, u + begin, h + begin,
                     static_cast<int64_t>(end - begin));
    });
  }
  down_.forward(cache.h, y);
}

void FeedForward::backward(const Tensor& dy, Tensor& dx, const Cache& cache) {
  Tensor dh;
  down_.backward(dy, dh);
  if (kind_ == FfnKind::kRelu) {
    // Through ReLU: pass where pre-activation > 0.
    const float* pre = cache.up.data();
    float* d = dh.data();
    for (int64_t i = 0; i < dh.numel(); ++i) {
      if (pre[i] <= 0.0f) d[i] = 0.0f;
    }
    up_.backward(dh, dx);
  } else {
    // h = silu(g) * u
    Tensor dg(cache.gate.shape());
    Tensor du(cache.up.shape());
    const float* g = cache.gate.data();
    const float* u = cache.up.data();
    const float* d = dh.data();
    float* pdg = dg.data();
    float* pdu = du.data();
    for (int64_t i = 0; i < dh.numel(); ++i) {
      pdg[i] = d[i] * u[i] * silu_grad(g[i]);
      pdu[i] = d[i] * silu(g[i]);
    }
    Tensor dx_gate, dx_up;
    gate_.backward(dg, dx_gate);
    up_.backward(du, dx_up);
    dx = std::move(dx_gate);
    dx.add_(dx_up);
  }
}

std::vector<Parameter*> FeedForward::parameters() {
  std::vector<Parameter*> out;
  for (Linear* l : linears()) {
    for (Parameter* p : l->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Linear*> FeedForward::linears() {
  if (has_gate_) return {&gate_, &up_, &down_};
  return {&up_, &down_};
}

}  // namespace emmark
