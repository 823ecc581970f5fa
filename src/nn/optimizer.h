#ifndef CROWDRL_NN_OPTIMIZER_H_
#define CROWDRL_NN_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "nn/mlp.h"

namespace crowdrl::math {
enum class SimdTier;  // Defined in math/backend.h.
}  // namespace crowdrl::math

namespace crowdrl::nn {

/// \brief Base class for gradient-descent optimizers over an Mlp.
///
/// State (momentum buffers etc.) is lazily sized to the first network the
/// optimizer steps and then bound to it; stepping a differently sized
/// network afterwards is a programming error.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update from the gradients accumulated in `net`, then
  /// zeroes them.
  void Step(Mlp* net);

  /// Checkpointable surface: the bound parameter count plus all moment
  /// buffers (and the step counter for Adam), bit-exact. Restore into an
  /// optimizer constructed with the same hyperparameters; hyperparameters
  /// themselves are config, not state, and are not serialized.
  virtual void SaveState(io::Writer* writer) const;
  virtual Status LoadState(io::Reader* reader);

 protected:
  virtual void ApplyUpdate(std::vector<ParamView>* views) = 0;

  static void SaveBuffers(io::Writer* writer,
                          const std::vector<std::vector<double>>& buffers);
  static Status LoadBuffers(io::Reader* reader,
                            std::vector<std::vector<double>>* buffers);

  size_t bound_size_ = 0;
};

/// SGD with optional momentum and L2 weight decay.
class Sgd : public Optimizer {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0,
               double weight_decay = 0.0);

  void SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;

 protected:
  void ApplyUpdate(std::vector<ParamView>* views) override;

 private:
  double learning_rate_;
  double momentum_;
  double weight_decay_;
  std::vector<std::vector<double>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
///
/// The element update runs on the host's SIMD tier (`math::ActiveSimdTier`,
/// as the gemm kernels do). Every tier performs the scalar sequence per
/// element, with no contraction, and IEEE division and square root are
/// correctly rounded, so every tier produces the scalar loop's bits.
class Adam : public Optimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9,
                double beta2 = 0.999, double epsilon = 1e-8,
                double weight_decay = 0.0);

  void SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;

 protected:
  void ApplyUpdate(std::vector<ParamView>* views) override;

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  size_t step_ = 0;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

/// The constants of one Adam step: the hyperparameters plus the bias
/// corrections bc1 = 1 - beta1^t and bc2 = 1 - beta2^t of step t.
struct AdamStepConstants {
  double learning_rate;
  double beta1;
  double beta2;
  double epsilon;
  double weight_decay;
  double bc1;
  double bc2;
};

/// Adam's element update over one parameter block and its moments, run
/// with one SIMD tier's kernel instead of the active tier's, so a test can
/// check every tier the host supports — every `tier` up to
/// `math::ActiveSimdTier()`; a higher tier CHECK-fails. Per element:
///   g = grad + weight_decay * value
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   value -= learning_rate * (m / bc1) / (sqrt(v / bc2) + epsilon)
void AdamUpdateAtTier(math::SimdTier tier, const AdamStepConstants& k,
                      const ParamView& view, double* m, double* v);

}  // namespace crowdrl::nn

#endif  // CROWDRL_NN_OPTIMIZER_H_
