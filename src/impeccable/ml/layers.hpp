#pragma once
// Neural-network layers with explicit forward/backward passes.
//
// Each layer caches what it needs from the forward pass; backward() takes
// dL/d(output) and returns dL/d(input) while accumulating parameter
// gradients. Optimizers consume the (value, grad) parameter pairs.
//
// Fan-out: forward()/backward() spread a batch's images over
// ml::compute_pool() layer by layer (training). infer() never fans out: it
// runs on the calling thread, and SurrogateModel::predict_batch fans whole
// networks out over image chunks instead, one pool job per chunk.

#include <memory>
#include <string>
#include <vector>

#include "impeccable/ml/tensor.hpp"

namespace impeccable::common {
class ThreadPool;
}  // namespace impeccable::common

namespace impeccable::ml {

struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;
  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;
  /// Inference-only forward pass: bitwise-identical outputs to forward()
  /// (both run the same compute code), but const — nothing is cached for a
  /// later backward(), so concurrent infer() calls on a shared layer are
  /// data-race-free — and serial on the calling thread. predict_batch's
  /// concurrent chunk jobs and the serving path (serve::InferenceServer)
  /// depend on this. Default throws for layers that have no inference
  /// semantics.
  virtual Tensor infer(const Tensor& x) const;
  virtual std::vector<Param> params() { return {}; }
  void zero_grad();
};

/// Fully connected: (N, in) -> (N, out).
class Dense : public Layer {
 public:
  Dense(int in, int out, common::Rng& rng);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param> params() override;

  Tensor weight;  ///< (out, in)
  Tensor bias;    ///< (out)
  Tensor weight_grad, bias_grad;

 private:
  /// Shared forward/infer compute; `pool` is null for infer().
  Tensor apply(const Tensor& x, common::ThreadPool* pool) const;
  Tensor input_;
};

/// Elementwise ReLU.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;

 private:
  /// Shared forward/infer compute; `mask` and `pool` are null for infer().
  Tensor apply(const Tensor& x, Tensor* mask, common::ThreadPool* pool) const;
  Tensor mask_;
};

/// Elementwise logistic sigmoid.
class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;

 private:
  Tensor output_;
};

/// 3x3 same-padding convolution, stride 1: (N, Cin, H, W) -> (N, Cout, H, W).
class Conv3x3 : public Layer {
 public:
  Conv3x3(int in_channels, int out_channels, common::Rng& rng);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param> params() override;

  Tensor weight;  ///< (Cout, Cin, 3, 3)
  Tensor bias;    ///< (Cout)
  Tensor weight_grad, bias_grad;

 private:
  /// Shared forward/infer compute; `pool` is null for infer().
  Tensor apply(const Tensor& x, common::ThreadPool* pool) const;
  Tensor input_;
};

/// 2x2 max pooling, stride 2: (N, C, H, W) -> (N, C, H/2, W/2).
class MaxPool2 : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;

 private:
  /// Shared forward/infer compute; `argmax` and `pool` are null for infer().
  Tensor apply(const Tensor& x, std::vector<int>* argmax,
               common::ThreadPool* pool) const;
  std::vector<int> argmax_;
  std::vector<int> in_shape_;
};

/// (N, C, H, W) -> (N, C*H*W).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;

 private:
  std::vector<int> in_shape_;
};

/// Residual block: y = ReLU(x + Conv(ReLU(Conv(x)))). Channel-preserving —
/// the skip is the identity (the ResNet basic block of the ML1 surrogate).
class ResidualBlock : public Layer {
 public:
  ResidualBlock(int channels, common::Rng& rng);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param> params() override;

 private:
  Conv3x3 conv1_, conv2_;
  ReLU relu1_, relu_out_;
};

/// Serialize every parameter tensor of a layer to a binary file
/// (shape-checked on load; mismatched architectures throw).
void save_parameters(Layer& layer, const std::string& path);
void load_parameters(Layer& layer, const std::string& path);

/// Layer pipeline.
class Sequential : public Layer {
 public:
  Sequential() = default;
  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param> params() override;
  std::size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace impeccable::ml
