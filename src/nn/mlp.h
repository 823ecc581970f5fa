#ifndef CROWDRL_NN_MLP_H_
#define CROWDRL_NN_MLP_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "math/matrix.h"
#include "nn/activation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace crowdrl::nn {

/// Mutable view of one parameter block and its gradient, for optimizers.
struct ParamView {
  double* value;
  double* grad;
  size_t size;
};

/// \brief Fully connected feed-forward network with explicit backprop.
///
/// This is the substrate for both neural models the paper needs: the
/// classifier phi ("a fully connected neural network with a sigmoid output
/// layer", Section VI-A4) and the Deep Q-Network of the Agent (Section IV).
/// Batches are matrices with one sample per row.
///
/// All dense products go through the blocked kernels in `math/gemm.h` with
/// persistent per-layer scratch, so steady-state Forward/Infer/Backward
/// calls perform no allocations and never materialize `Transposed()`
/// weights. Results are bit-identical to the historical naive-loop
/// implementation (see the accumulation-order guarantee in gemm.h), at any
/// thread count. Training and the stateless inference paths run the same
/// NT kernel per linear layer, with the layer's bias and ReLU applied in
/// the kernel's epilogue (`gemm::Epilogue`), so a forward never depends on
/// which entry point produced it.
class Mlp {
 public:
  /// `sizes` lists layer widths, input first: {in, h1, ..., out}.
  /// `activations` has sizes.size()-1 entries, one per linear layer.
  /// Weights use Xavier-uniform init (He-scaled for ReLU layers).
  Mlp(const std::vector<size_t>& sizes,
      const std::vector<Activation>& activations, Rng* rng);

  Mlp(const Mlp&) = default;
  Mlp& operator=(const Mlp&) = default;
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;

  size_t input_size() const { return sizes_.front(); }
  size_t output_size() const { return sizes_.back(); }
  size_t num_layers() const { return layers_.size(); }

  /// Forward pass that caches per-layer values for a subsequent Backward.
  /// Returns a reference to the internal output cache, valid until the next
  /// Forward/Infer/LoadState on this network. The batch is captured by
  /// reference and must outlive any Backward that follows. A pool, if
  /// given, row-tiles the layer GEMMs (bit-identical to serial).
  const Matrix& Forward(const Matrix& batch, ThreadPool* pool = nullptr);

  /// Stateless forward: training caches are untouched, so a Forward/Backward
  /// pair is not disturbed by interleaved Infer calls. Writes into mutable
  /// internal buffers — concurrent Infer calls on the *same* instance are
  /// not safe; use the pool overload (which threads internally) or the
  /// single-sample overload (which is fully re-entrant).
  const Matrix& Infer(const Matrix& batch) const;

  /// Row-tiled stateless forward on a thread pool. Each output row is
  /// written by exactly one worker, so the result is bit-identical to the
  /// serial Infer at any thread count. `pool == nullptr` falls back to the
  /// serial path.
  const Matrix& Infer(const Matrix& batch, ThreadPool* pool) const;

  /// Loop-fused stateless forward into a caller-owned output. The batch is
  /// processed in fixed-size row blocks, each block running through every
  /// layer before the next block starts, so intermediate activations stay
  /// block-sized (cache-resident) instead of batch-sized. At scoring batch
  /// shapes the layer-by-layer Infer is memory-bandwidth-bound on the full
  /// hidden-activation matrices; this path removes that traffic and is
  /// what lets the threaded forward actually scale. Per-element arithmetic
  /// order is unchanged (each output element still consumes its k terms
  /// ascending, see gemm.h), so results are bit-identical to Infer at any
  /// thread count and any block size. Each layer's weights are packed once
  /// per call, on the calling thread, and every block reads that packing;
  /// the activations are per-lane scratch, so blocks run concurrently on a
  /// pool; `pool == nullptr` runs blocks serially.
  void InferInto(const Matrix& batch, ThreadPool* pool, Matrix* out) const;

  /// Writes rows [row_begin, row_end) of a forward's input batch into
  /// `block`, which is already shaped (row_end - row_begin) x the input
  /// width of the forward's first layer: batch row r goes to block row
  /// r - row_begin. Runs concurrently on disjoint ranges when the forward
  /// has a pool.
  using RowFiller =
      std::function<void(size_t row_begin, size_t row_end, Matrix* block)>;

  /// InferInto over a `rows`-row batch that is never materialized: each
  /// row block is filled by `fill` into per-thread scratch just before it
  /// runs through the layers, so the batch's rows are produced on the
  /// pool's lanes and only block-sized inputs are ever resident. The
  /// forward starts at layer `first_layer` and `fill` writes that layer's
  /// input, i.e. the previous layer's post-activation output; callers that
  /// compute the earlier layers themselves (QNetwork's factorized head
  /// assembles layer 0 from partial products) resume after them.
  /// The matrix overload above is this with first_layer 0 and a filler
  /// that copies rows; results are bit-identical to it.
  void InferInto(size_t rows, const RowFiller& fill, ThreadPool* pool,
                 Matrix* out, size_t first_layer = 0) const;

  /// Read-only parameter access for layer `l`, for callers that compute a
  /// layer's product from factorized inputs (QNetwork's factorized head).
  const Matrix& layer_weight(size_t l) const { return layers_[l].weight; }
  const std::vector<double>& layer_bias(size_t l) const {
    return layers_[l].bias;
  }
  Activation layer_activation(size_t l) const {
    return layers_[l].activation;
  }

  /// Single-sample stateless forward. Uses only function-local (and
  /// per-thread kernel) buffers, so it is safe to call concurrently from
  /// multiple threads on one network.
  std::vector<double> Infer(const std::vector<double>& input) const;

  /// Accumulates parameter gradients given dLoss/dOutput for the batch
  /// passed to the latest Forward. The gradient w.r.t. that batch is only
  /// computed when `input_grad` is non-null (no trainable parameters sit
  /// below the input, so the default skips the largest GEMM of the
  /// backward pass). A pool, if given, row-tiles the GEMMs
  /// (bit-identical to serial).
  void Backward(const Matrix& grad_output, Matrix* input_grad = nullptr,
                ThreadPool* pool = nullptr);

  /// Clears accumulated gradients.
  void ZeroGrad();

  /// Parameter/gradient views in a stable order, for optimizers.
  std::vector<ParamView> ParamViews();

  size_t ParameterCount() const;

  /// Copies all parameters into / out of a flat buffer (used for target-
  /// network sync in the DQN and for snapshotting the best classifier).
  std::vector<double> FlatParameters() const;
  void SetFlatParameters(const std::vector<double>& flat);

  /// this = (1 - tau) * this + tau * other (soft target update).
  /// Requires identical architecture.
  void BlendFrom(const Mlp& other, double tau);

  /// Checkpointable surface: architecture (validated on load — the
  /// restored-into network must have been built with the same layer
  /// sizes and activations) plus every weight and bias, bit-exact.
  /// Gradients and forward caches are transient and reset by LoadState.
  void SaveState(io::Writer* writer) const;
  Status LoadState(io::Reader* reader);

 private:
  struct Layer {
    Matrix weight;  // out x in
    std::vector<double> bias;
    Matrix weight_grad;
    std::vector<double> bias_grad;
    Activation activation;
    // Transient buffers, persistent across calls so the steady state is
    // allocation-free. Not checkpointed.
    Matrix output;        // post-activation forward cache
    Matrix grad_scratch;  // dLoss/d(this layer's output), mutated in place
    Matrix dw_scratch;    // grad^T * input, staged before one Add
  };

  std::vector<size_t> sizes_;
  std::vector<Layer> layers_;
  // Batch passed to the latest Forward; layer 0's backward input. Cleared
  // by LoadState.
  const Matrix* forward_input_ = nullptr;
  // Per-layer weight-transpose packing buffers for the NT kernels; mutable
  // because Infer is logically const.
  mutable std::vector<Matrix> wt_scratch_;
  // Ping-pong activation buffers for the batched Infer paths.
  mutable Matrix infer_buf_[2];
};

}  // namespace crowdrl::nn

#endif  // CROWDRL_NN_MLP_H_
