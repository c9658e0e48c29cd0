#include "impeccable/ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

#include "impeccable/ml/gemm.hpp"

namespace impeccable::ml {

void Layer::zero_grad() {
  for (auto p : params()) p.grad->zero();
}

Tensor Layer::infer(const Tensor&) const {
  throw std::logic_error("Layer::infer: layer has no inference-only path");
}

namespace {

/// Run body(lo, hi) over consecutive image ranges of `grain` images that
/// cover [0, n), fanned out over `pool` when it has more than one worker
/// (nullptr runs them in order on the calling thread). Every caller writes
/// only the output slabs of its own images, so results never depend on the
/// pool size or on the chunking.
template <typename Body>
void for_image_chunks(std::size_t n, std::size_t grain,
                      common::ThreadPool* pool, const Body& body) {
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (n + grain - 1) / grain;
  auto run = [&](std::size_t c) {
    body(c * grain, std::min(n, (c + 1) * grain));
  };
  if (pool && pool->size() > 1 && chunks > 1) {
    pool->parallel_for(0, chunks, run, 1);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) run(c);
  }
}

/// Images per chunk for the convolutions: one im2col buffer per chunk, one
/// chunk in flight per thread — the peak of one buffer per running image —
/// and four chunks per thread (the caller included) to keep the pool
/// balanced.
std::size_t conv_grain(std::size_t images, const common::ThreadPool* pool) {
  const std::size_t chunks = 4 * (pool ? pool->size() + 1 : 1);
  return (images + chunks - 1) / chunks;
}

/// Images per chunk for the element-wise layers: enough that one pool job
/// streams ~128 KiB of input, so small per-image tensors (the dense tail)
/// stay on the calling thread.
std::size_t elementwise_grain(std::size_t floats_per_image) {
  constexpr std::size_t kChunkFloats = 32 * 1024;
  return kChunkFloats / std::max<std::size_t>(1, floats_per_image);
}

}  // namespace

// ---------------------------------------------------------------- Dense

Dense::Dense(int in, int out, common::Rng& rng)
    : weight(Tensor::randn({out, in}, rng,
                           std::sqrt(2.0f / static_cast<float>(in)))),
      bias({out}),
      weight_grad({out, in}),
      bias_grad({out}) {}

Tensor Dense::apply(const Tensor& x, common::ThreadPool* pool) const {
  if (x.rank() != 2 || x.dim(1) != weight.dim(1))
    throw std::invalid_argument("Dense::forward: bad input shape " + x.shape_string());
  const int n = x.dim(0), in = weight.dim(1), out = weight.dim(0);
  Tensor y({n, out});
  // y = bias (broadcast over rows) + x · W^T, accumulated ascending-k — the
  // same bias-first order as the original per-element loop.
  for (int i = 0; i < n; ++i)
    std::copy(bias.data(), bias.data() + out,
              y.data() + static_cast<std::size_t>(i) * out);
  gemm(Trans::No, Trans::Yes, n, out, in, 1.0f, x.data(), in, weight.data(), in,
       1.0f, y.data(), out, pool);
  return y;
}

Tensor Dense::forward(const Tensor& x) {
  Tensor y = apply(x, compute_pool());
  input_ = x;
  return y;
}

Tensor Dense::infer(const Tensor& x) const { return apply(x, nullptr); }

Tensor Dense::backward(const Tensor& grad_out) {
  const int n = input_.dim(0), in = weight.dim(1), out = weight.dim(0);
  // dL/dx = g · W (accumulates over `out` ascending, as the old o-loop did).
  Tensor grad_in({n, in});
  gemm(Trans::No, Trans::No, n, in, out, 1.0f, grad_out.data(), out,
       weight.data(), in, 0.0f, grad_in.data(), in, compute_pool());
  // dL/dW += g^T · x (accumulates over rows ascending, as the old i-loop did).
  gemm(Trans::Yes, Trans::No, out, in, n, 1.0f, grad_out.data(), out,
       input_.data(), in, 1.0f, weight_grad.data(), in, compute_pool());
  for (int i = 0; i < n; ++i) {
    const float* gr = grad_out.data() + static_cast<std::size_t>(i) * out;
    for (int o = 0; o < out; ++o) bias_grad[static_cast<std::size_t>(o)] += gr[o];
  }
  return grad_in;
}

std::vector<Param> Dense::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
}

// ---------------------------------------------------------------- ReLU

Tensor ReLU::apply(const Tensor& x, Tensor* mask,
                   common::ThreadPool* pool) const {
  Tensor y(x.shape());
  if (mask) *mask = Tensor(x.shape());
  const std::size_t n = x.rank() > 0 ? static_cast<std::size_t>(x.dim(0)) : 1;
  const std::size_t per = n > 0 ? x.size() / n : 0;
  // `x > 0 ? x : 0` maps NaN and -0 to +0; the mask is 1 exactly where the
  // value passed through.
  for_image_chunks(n, elementwise_grain(per), pool,
                   [&](std::size_t lo, std::size_t hi) {
    const std::size_t count = (hi - lo) * per;
    const float* xs = x.data() + lo * per;
    float* ys = y.data() + lo * per;
    if (mask) {
      float* ms = mask->data() + lo * per;
#pragma omp simd
      for (std::size_t i = 0; i < count; ++i) {
        const bool on = xs[i] > 0.0f;
        ms[i] = on ? 1.0f : 0.0f;
        ys[i] = on ? xs[i] : 0.0f;
      }
    } else {
#pragma omp simd
      for (std::size_t i = 0; i < count; ++i)
        ys[i] = xs[i] > 0.0f ? xs[i] : 0.0f;
    }
  });
  return y;
}

Tensor ReLU::forward(const Tensor& x) {
  return apply(x, &mask_, compute_pool());
}

Tensor ReLU::infer(const Tensor& x) const { return apply(x, nullptr, nullptr); }

Tensor ReLU::backward(const Tensor& grad_out) {
  check_same_shape(grad_out, mask_, "ReLU::backward");
  Tensor g(grad_out.shape());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = grad_out[i] * mask_[i];
  return g;
}

// ---------------------------------------------------------------- Sigmoid

Tensor Sigmoid::forward(const Tensor& x) {
  output_ = Tensor(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i)
    output_[i] = 1.0f / (1.0f + std::exp(-x[i]));
  return output_;
}

Tensor Sigmoid::infer(const Tensor& x) const {
  Tensor y(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = 1.0f / (1.0f + std::exp(-x[i]));
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  Tensor g(grad_out.shape());
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = grad_out[i] * output_[i] * (1.0f - output_[i]);
  return g;
}

// ---------------------------------------------------------------- Conv3x3

namespace {

/// Unfold one image (cin, h, w) into a (cin*9) × (h*w) column matrix for the
/// 3x3 same-padding convolution. Row k = ci*9 + (di+1)*3 + (dj+1) holds the
/// input shifted by (di, dj), zero-padded — the k index matches the
/// (Cout, Cin, 3, 3) weight layout flattened per output channel.
void im2col3x3(const float* x, int cin, int h, int w, float* col) {
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  for (int ci = 0; ci < cin; ++ci) {
    const float* plane = x + static_cast<std::size_t>(ci) * hw;
    for (int di = -1; di <= 1; ++di) {
      for (int dj = -1; dj <= 1; ++dj) {
        float* row = col + static_cast<std::size_t>(ci * 9 + (di + 1) * 3 +
                                                    (dj + 1)) * hw;
        const int j0 = std::max(0, -dj), j1 = std::min(w, w - dj);
        for (int i = 0; i < h; ++i) {
          float* dst = row + static_cast<std::size_t>(i) * w;
          const int ii = i + di;
          if (ii < 0 || ii >= h || j0 >= j1) {
            std::fill(dst, dst + w, 0.0f);
            continue;
          }
          std::fill(dst, dst + j0, 0.0f);
          const float* src = plane + static_cast<std::size_t>(ii) * w;
          std::copy(src + j0 + dj, src + j1 + dj, dst + j0);
          std::fill(dst + j1, dst + w, 0.0f);
        }
      }
    }
  }
}

/// Fold a (cin*9) × (h*w) gradient column matrix back into one image's
/// (cin, h, w) input gradient, summing overlapping taps and dropping the
/// padding positions.
void col2im3x3(const float* col, int cin, int h, int w, float* gx) {
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  for (int ci = 0; ci < cin; ++ci) {
    float* plane = gx + static_cast<std::size_t>(ci) * hw;
    for (int di = -1; di <= 1; ++di) {
      for (int dj = -1; dj <= 1; ++dj) {
        const float* row = col + static_cast<std::size_t>(ci * 9 + (di + 1) * 3 +
                                                          (dj + 1)) * hw;
        const int j0 = std::max(0, -dj), j1 = std::min(w, w - dj);
        for (int i = 0; i < h; ++i) {
          const int ii = i + di;
          if (ii < 0 || ii >= h || j0 >= j1) continue;
          float* dst = plane + static_cast<std::size_t>(ii) * w + dj;
          const float* src = row + static_cast<std::size_t>(i) * w;
          for (int j = j0; j < j1; ++j) dst[j] += src[j];
        }
      }
    }
  }
}

}  // namespace

Conv3x3::Conv3x3(int in_channels, int out_channels, common::Rng& rng)
    : weight(Tensor::randn({out_channels, in_channels, 3, 3}, rng,
                           std::sqrt(2.0f / (9.0f * in_channels)))),
      bias({out_channels}),
      weight_grad({out_channels, in_channels, 3, 3}),
      bias_grad({out_channels}) {}

Tensor Conv3x3::apply(const Tensor& x, common::ThreadPool* pool) const {
  if (x.rank() != 4 || x.dim(1) != weight.dim(1))
    throw std::invalid_argument("Conv3x3::forward: bad input " + x.shape_string());
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int cout = weight.dim(0);
  const int kdim = cin * 9;
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  Tensor y({n, cout, h, w});
  // Per image: Y_b (cout × hw) = bias + W (cout × cin*9) · im2col(x_b).
  // Images write disjoint output slabs, so fanning out over the pool keeps
  // results identical to the serial pass.
  const std::size_t images = static_cast<std::size_t>(n);
  for_image_chunks(images, conv_grain(images, pool), pool,
                   [&](std::size_t lo, std::size_t hi) {
    std::vector<float> col(static_cast<std::size_t>(kdim) * hw);
    for (std::size_t b = lo; b < hi; ++b) {
      im2col3x3(x.data() + b * cin * hw, cin, h, w, col.data());
      float* yb = y.data() + b * cout * hw;
      for (int co = 0; co < cout; ++co)
        std::fill(yb + static_cast<std::size_t>(co) * hw,
                  yb + static_cast<std::size_t>(co + 1) * hw,
                  bias[static_cast<std::size_t>(co)]);
      gemm(Trans::No, Trans::No, cout, static_cast<int>(hw), kdim, 1.0f,
           weight.data(), kdim, col.data(), static_cast<int>(hw), 1.0f, yb,
           static_cast<int>(hw));
    }
  });
  return y;
}

Tensor Conv3x3::forward(const Tensor& x) {
  Tensor y = apply(x, compute_pool());
  input_ = x;
  return y;
}

Tensor Conv3x3::infer(const Tensor& x) const { return apply(x, nullptr); }

Tensor Conv3x3::backward(const Tensor& grad_out) {
  const int n = input_.dim(0), cin = input_.dim(1), h = input_.dim(2),
            w = input_.dim(3);
  const int cout = weight.dim(0);
  const int kdim = cin * 9;
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  Tensor grad_in({n, cin, h, w});
  // Pass 1 — input gradients, independent per image (disjoint slabs, safe to
  // fan out): dcol_b = W^T · g_b, then fold back with col2im.
  const std::size_t images = static_cast<std::size_t>(n);
  common::ThreadPool* pool = compute_pool();
  for_image_chunks(images, conv_grain(images, pool), pool,
                   [&](std::size_t lo, std::size_t hi) {
    std::vector<float> dcol(static_cast<std::size_t>(kdim) * hw);
    for (std::size_t b = lo; b < hi; ++b) {
      gemm(Trans::Yes, Trans::No, kdim, static_cast<int>(hw), cout, 1.0f,
           weight.data(), kdim, grad_out.data() + b * cout * hw,
           static_cast<int>(hw), 0.0f, dcol.data(), static_cast<int>(hw));
      col2im3x3(dcol.data(), cin, h, w, grad_in.data() + b * cin * hw);
    }
  });
  // Pass 2 — parameter gradients, accumulated serially in ascending image
  // order so results never depend on the pool size:
  // dW += g_b · im2col(x_b)^T, db += row sums of g_b.
  std::vector<float> col(static_cast<std::size_t>(kdim) * hw);
  for (std::size_t b = 0; b < images; ++b) {
    im2col3x3(input_.data() + b * cin * hw, cin, h, w, col.data());
    const float* gb = grad_out.data() + b * cout * hw;
    gemm(Trans::No, Trans::Yes, cout, kdim, static_cast<int>(hw), 1.0f, gb,
         static_cast<int>(hw), col.data(), static_cast<int>(hw), 1.0f,
         weight_grad.data(), kdim);
    for (int co = 0; co < cout; ++co) {
      const float* row = gb + static_cast<std::size_t>(co) * hw;
      float& bg = bias_grad[static_cast<std::size_t>(co)];
      for (std::size_t p = 0; p < hw; ++p) bg += row[p];
    }
  }
  return grad_in;
}

std::vector<Param> Conv3x3::params() {
  return {{&weight, &weight_grad}, {&bias, &bias_grad}};
}

// ---------------------------------------------------------------- MaxPool2

namespace {

/// 2x2/stride-2 max over one image's (c, h, w) slab at flat offset `base`.
/// Taps go (0,0), (0,1), (1,0), (1,1) from a -1e30 seed with a strict `>`,
/// so NaN never wins, ties keep the first tap, and a window with no tap
/// above -1e30 yields -1e30 with argmax 0.
template <bool kArgmax>
void maxpool2_image(const float* x, int c, int h, int w, int base, float* y,
                    int* argmax) {
  const int oh = h / 2, ow = w / 2;
  for (int ch = 0; ch < c; ++ch) {
    for (int i = 0; i < oh; ++i) {
      const int row0 = (ch * h + 2 * i) * w;
      const float* r0 = x + row0;
      const float* r1 = r0 + w;
      const std::size_t out = static_cast<std::size_t>(ch * oh + i) * ow;
      float* yr = y + out;
      int* ar = kArgmax ? argmax + out : nullptr;
#pragma omp simd
      for (int j = 0; j < ow; ++j) {
        const int tap = base + row0 + 2 * j;
        float best = -1e30f;
        int best_flat = 0;
        auto take = [&](float v, int at) {
          const bool gt = v > best;
          best_flat = gt ? at : best_flat;
          best = gt ? v : best;
        };
        take(r0[2 * j], tap);
        take(r0[2 * j + 1], tap + 1);
        take(r1[2 * j], tap + w);
        take(r1[2 * j + 1], tap + w + 1);
        yr[j] = best;
        if constexpr (kArgmax) ar[j] = best_flat;
      }
    }
  }
}

}  // namespace

Tensor MaxPool2::apply(const Tensor& x, std::vector<int>* argmax,
                       common::ThreadPool* pool) const {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor y({n, c, h / 2, w / 2});
  if (argmax) argmax->assign(y.size(), 0);
  const std::size_t in_per = static_cast<std::size_t>(c) * h * w;
  const std::size_t out_per = static_cast<std::size_t>(c) * (h / 2) * (w / 2);
  for_image_chunks(static_cast<std::size_t>(n), elementwise_grain(in_per), pool,
                   [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const float* xb = x.data() + b * in_per;
      float* yb = y.data() + b * out_per;
      const int base = static_cast<int>(b * in_per);
      if (argmax)
        maxpool2_image<true>(xb, c, h, w, base, yb,
                             argmax->data() + b * out_per);
      else
        maxpool2_image<false>(xb, c, h, w, base, yb, nullptr);
    }
  });
  return y;
}

Tensor MaxPool2::forward(const Tensor& x) {
  in_shape_ = x.shape();
  return apply(x, &argmax_, compute_pool());
}

Tensor MaxPool2::infer(const Tensor& x) const {
  return apply(x, nullptr, nullptr);
}

Tensor MaxPool2::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < grad_out.size(); ++i)
    grad_in[static_cast<std::size_t>(argmax_[i])] += grad_out[i];
  return grad_in;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape();
  int rest = 1;
  for (int d = 1; d < x.rank(); ++d) rest *= x.dim(d);
  return x.reshaped({x.dim(0), rest});
}

Tensor Flatten::infer(const Tensor& x) const {
  int rest = 1;
  for (int d = 1; d < x.rank(); ++d) rest *= x.dim(d);
  return x.reshaped({x.dim(0), rest});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

// ---------------------------------------------------------------- Residual

ResidualBlock::ResidualBlock(int channels, common::Rng& rng)
    : conv1_(channels, channels, rng), conv2_(channels, channels, rng) {}

Tensor ResidualBlock::forward(const Tensor& x) {
  Tensor h = conv2_.forward(relu1_.forward(conv1_.forward(x)));
  h += x;
  return relu_out_.forward(h);
}

Tensor ResidualBlock::infer(const Tensor& x) const {
  Tensor h = conv2_.infer(relu1_.infer(conv1_.infer(x)));
  h += x;
  return relu_out_.infer(h);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  const Tensor g = relu_out_.backward(grad_out);
  Tensor gx = conv1_.backward(relu1_.backward(conv2_.backward(g)));
  gx += g;  // the identity skip
  return gx;
}

std::vector<Param> ResidualBlock::params() {
  auto p = conv1_.params();
  for (auto q : conv2_.params()) p.push_back(q);
  return p;
}

// ------------------------------------------------------------- serialization

namespace {
constexpr std::uint32_t kWeightsMagic = 0x57504d49;  // "IMPW"
}

void save_parameters(Layer& layer, const std::string& path) {
  const auto params = layer.params();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("save_parameters: cannot open " + path);
  auto put_u32 = [&](std::uint32_t v) {
    f.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_u32(kWeightsMagic);
  put_u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    put_u32(static_cast<std::uint32_t>(p.value->rank()));
    for (int d = 0; d < p.value->rank(); ++d)
      put_u32(static_cast<std::uint32_t>(p.value->dim(d)));
    f.write(reinterpret_cast<const char*>(p.value->data()),
            static_cast<std::streamsize>(p.value->size() * sizeof(float)));
  }
}

void load_parameters(Layer& layer, const std::string& path) {
  const auto params = layer.params();
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_parameters: cannot open " + path);
  auto get_u32 = [&]() {
    std::uint32_t v = 0;
    f.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!f) throw std::runtime_error("load_parameters: truncated file");
    return v;
  };
  if (get_u32() != kWeightsMagic)
    throw std::runtime_error("load_parameters: bad magic in " + path);
  if (get_u32() != params.size())
    throw std::runtime_error("load_parameters: parameter count mismatch");
  for (const auto& p : params) {
    if (static_cast<int>(get_u32()) != p.value->rank())
      throw std::runtime_error("load_parameters: rank mismatch");
    for (int d = 0; d < p.value->rank(); ++d)
      if (static_cast<int>(get_u32()) != p.value->dim(d))
        throw std::runtime_error("load_parameters: shape mismatch");
    f.read(reinterpret_cast<char*>(p.value->data()),
           static_cast<std::streamsize>(p.value->size() * sizeof(float)));
    if (!f) throw std::runtime_error("load_parameters: truncated weights");
  }
}

// ---------------------------------------------------------------- Sequential

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& l : layers_) cur = l->forward(cur);
  return cur;
}

Tensor Sequential::infer(const Tensor& x) const {
  if (layers_.empty()) return x;
  Tensor cur = layers_.front()->infer(x);
  for (auto it = std::next(layers_.begin()); it != layers_.end(); ++it)
    cur = (*it)->infer(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

std::vector<Param> Sequential::params() {
  std::vector<Param> out;
  for (auto& l : layers_)
    for (auto p : l->params()) out.push_back(p);
  return out;
}

}  // namespace impeccable::ml
