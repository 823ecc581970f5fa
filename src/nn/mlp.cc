#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "math/gemm.h"
#include "util/logging.h"

namespace crowdrl::nn {

namespace {

/// Fused per-row-block tail of a linear layer: bias add + activation,
/// applied while the block is still cache-hot inside the GEMM. Blocks are
/// disjoint row ranges, so this is safe under kernel row-threading.
gemm::RowEpilogue BiasActivationEpilogue(const std::vector<double>& bias,
                                         Activation act, Matrix* out) {
  return [&bias, act, out](size_t row_begin, size_t row_end) {
    const size_t cols = out->cols();
    for (size_t r = row_begin; r < row_end; ++r) {
      double* row = out->Row(r);
      for (size_t c = 0; c < cols; ++c) row[c] += bias[c];
    }
    ApplyActivationRows(act, out, row_begin, row_end);
  };
}

// Rows per block in the loop-fused InferInto path. Large enough that the
// per-layer GEMMs amortize their setup, small enough that a block's whole
// activation chain (block x widest-layer doubles) stays cache-resident.
constexpr size_t kInferBlockRows = 256;

}  // namespace

Mlp::Mlp(const std::vector<size_t>& sizes,
         const std::vector<Activation>& activations, Rng* rng)
    : sizes_(sizes) {
  CROWDRL_CHECK(sizes.size() >= 2) << "need at least input and output sizes";
  CROWDRL_CHECK(activations.size() == sizes.size() - 1);
  CROWDRL_CHECK(rng != nullptr);
  for (size_t size : sizes) CROWDRL_CHECK(size > 0);
  layers_.resize(sizes.size() - 1);
  wt_scratch_.resize(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    size_t in = sizes[l];
    size_t out = sizes[l + 1];
    layer.weight = Matrix(out, in);
    layer.bias.assign(out, 0.0);
    layer.weight_grad = Matrix(out, in);
    layer.bias_grad.assign(out, 0.0);
    layer.activation = activations[l];
    // Xavier-uniform bound; He variant (gain sqrt(2)) for ReLU layers.
    double gain = activations[l] == Activation::kRelu ? std::sqrt(2.0) : 1.0;
    double bound = gain * std::sqrt(6.0 / static_cast<double>(in + out));
    layer.weight.FillUniform(rng, -bound, bound);
  }
}

const Matrix& Mlp::Forward(const Matrix& batch, ThreadPool* pool) {
  CROWDRL_CHECK(batch.cols() == input_size());
  forward_input_ = &batch;
  const Matrix* current = &batch;
  for (size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    gemm::MatMulNTInto(
        *current, layer.weight, &layer.output, pool,
        BiasActivationEpilogue(layer.bias, layer.activation, &layer.output),
        &wt_scratch_[l]);
    current = &layer.output;
  }
  return layers_.back().output;
}

const Matrix& Mlp::Infer(const Matrix& batch) const {
  return Infer(batch, nullptr);
}

const Matrix& Mlp::Infer(const Matrix& batch, ThreadPool* pool) const {
  CROWDRL_CHECK(batch.cols() == input_size());
  const Matrix* current = &batch;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    Matrix* out = &infer_buf_[l % 2];
    gemm::MatMulNTInto(
        *current, layer.weight, out, pool,
        BiasActivationEpilogue(layer.bias, layer.activation, out),
        &wt_scratch_[l]);
    current = out;
  }
  return *current;
}

void Mlp::InferInto(const Matrix& batch, ThreadPool* pool,
                    Matrix* out) const {
  CROWDRL_CHECK(batch.cols() == input_size());
  CROWDRL_DCHECK(out != &batch);
  const size_t in_cols = batch.cols();
  InferInto(
      batch.rows(),
      [&batch, in_cols](size_t r0, size_t r1, Matrix* block) {
        for (size_t r = r0; r < r1; ++r) {
          const double* src = batch.Row(r);
          std::copy(src, src + in_cols, block->Row(r - r0));
        }
      },
      pool, out);
}

void Mlp::InferInto(size_t rows, const RowFiller& fill, ThreadPool* pool,
                    Matrix* out, size_t first_layer) const {
  CROWDRL_CHECK(out != nullptr);
  CROWDRL_CHECK(first_layer <= layers_.size());
  const size_t in_cols = sizes_[first_layer];
  const size_t out_cols = output_size();
  if (out->rows() != rows || out->cols() != out_cols) {
    *out = Matrix(rows, out_cols);
  }
  auto block_body = [&](size_t r0, size_t r1) {
    // All scratch is per-thread: the block's input and ping-pong
    // activations live in thread_local matrices, and the kernels' weight-
    // transpose packing uses its own thread_local buffer (bt_scratch
    // nullptr) instead of the shared wt_scratch_.
    thread_local Matrix block_in;
    thread_local Matrix bufs[2];
    const size_t n = r1 - r0;
    if (block_in.rows() != n || block_in.cols() != in_cols) {
      block_in = Matrix(n, in_cols);
    }
    fill(r0, r1, &block_in);
    const Matrix* current = &block_in;
    for (size_t l = first_layer; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      Matrix* o = &bufs[l % 2];
      gemm::MatMulNTInto(
          *current, layer.weight, o, nullptr,
          BiasActivationEpilogue(layer.bias, layer.activation, o), nullptr);
      current = o;
    }
    for (size_t r = 0; r < n; ++r) {
      const double* src = current->Row(r);
      std::copy(src, src + out_cols, out->Row(r0 + r));
    }
  };
  if (pool != nullptr && rows > kInferBlockRows) {
    pool->ParallelFor(0, rows, kInferBlockRows, block_body);
  } else {
    for (size_t r0 = 0; r0 < rows; r0 += kInferBlockRows) {
      block_body(r0, std::min(r0 + kInferBlockRows, rows));
    }
  }
}

std::vector<double> Mlp::Infer(const std::vector<double>& input) const {
  CROWDRL_CHECK(input.size() == input_size());
  // Function-local buffers only (the kernel's transpose scratch is
  // per-thread), keeping this overload safe for concurrent callers.
  Matrix bufs[2];
  Matrix batch(1, input.size());
  batch.SetRow(0, input);
  const Matrix* current = &batch;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    Matrix* out = &bufs[l % 2];
    gemm::MatMulNTInto(
        *current, layer.weight, out, nullptr,
        BiasActivationEpilogue(layer.bias, layer.activation, out), nullptr);
    current = out;
  }
  return current->RowVector(0);
}

void Mlp::Backward(const Matrix& grad_output, Matrix* input_grad,
                   ThreadPool* pool) {
  CROWDRL_CHECK(!layers_.empty());
  CROWDRL_CHECK(forward_input_ != nullptr)
      << "Backward called with no preceding Forward";
  CROWDRL_CHECK(grad_output.rows() == layers_.back().output.rows() &&
                grad_output.cols() == layers_.back().output.cols())
      << "Backward called with mismatched gradient shape (did Forward run?)";
  layers_.back().grad_scratch = grad_output;
  for (size_t l = layers_.size(); l > 0; --l) {
    Layer& layer = layers_[l - 1];
    Matrix& grad = layer.grad_scratch;
    // Through the activation.
    ApplyActivationGrad(layer.activation, layer.output, &grad);
    // Parameter gradients: dW += grad^T * input, db += column sums of grad.
    // dW is staged in a scratch and folded in with a single Add, preserving
    // the historical accumulate-once semantics bit for bit.
    const Matrix& input = l > 1 ? layers_[l - 2].output : *forward_input_;
    gemm::MatMulTNInto(grad, input, &layer.dw_scratch, pool);
    layer.weight_grad.Add(layer.dw_scratch);
    for (size_t r = 0; r < grad.rows(); ++r) {
      const double* row = grad.Row(r);
      for (size_t c = 0; c < grad.cols(); ++c) layer.bias_grad[c] += row[c];
    }
    // Input gradient: grad * W. For layer 0 the input is the data batch —
    // nothing below it trains, so the GEMM is skipped unless requested.
    if (l > 1) {
      gemm::MatMulInto(grad, layer.weight, &layers_[l - 2].grad_scratch,
                       pool);
    } else if (input_grad != nullptr) {
      gemm::MatMulInto(grad, layer.weight, input_grad, pool);
    }
  }
}

void Mlp::ZeroGrad() {
  for (Layer& layer : layers_) {
    layer.weight_grad.Fill(0.0);
    for (double& g : layer.bias_grad) g = 0.0;
  }
}

std::vector<ParamView> Mlp::ParamViews() {
  std::vector<ParamView> views;
  views.reserve(layers_.size() * 2);
  for (Layer& layer : layers_) {
    views.push_back({layer.weight.data().data(),
                     layer.weight_grad.data().data(),
                     layer.weight.data().size()});
    views.push_back(
        {layer.bias.data(), layer.bias_grad.data(), layer.bias.size()});
  }
  return views;
}

size_t Mlp::ParameterCount() const {
  size_t count = 0;
  for (const Layer& layer : layers_) {
    count += layer.weight.size() + layer.bias.size();
  }
  return count;
}

std::vector<double> Mlp::FlatParameters() const {
  std::vector<double> flat;
  flat.reserve(ParameterCount());
  for (const Layer& layer : layers_) {
    flat.insert(flat.end(), layer.weight.data().begin(),
                layer.weight.data().end());
    flat.insert(flat.end(), layer.bias.begin(), layer.bias.end());
  }
  return flat;
}

void Mlp::SetFlatParameters(const std::vector<double>& flat) {
  CROWDRL_CHECK(flat.size() == ParameterCount());
  size_t offset = 0;
  for (Layer& layer : layers_) {
    for (double& w : layer.weight.data()) w = flat[offset++];
    for (double& b : layer.bias) b = flat[offset++];
  }
}

void Mlp::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  writer->WriteSize(sizes_.size());
  for (size_t s : sizes_) writer->WriteSize(s);
  for (const Layer& layer : layers_) {
    writer->WriteU8(static_cast<uint8_t>(layer.activation));
    layer.weight.SaveState(writer);
    writer->WriteDoubleVector(layer.bias);
  }
}

Status Mlp::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  size_t num_sizes = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&num_sizes));
  if (num_sizes != sizes_.size()) {
    return Status::InvalidArgument("MLP depth mismatch on restore");
  }
  for (size_t i = 0; i < num_sizes; ++i) {
    size_t s = 0;
    CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&s));
    if (s != sizes_[i]) {
      return Status::InvalidArgument("MLP layer width mismatch on restore");
    }
  }
  for (Layer& layer : layers_) {
    uint8_t act = 0;
    CROWDRL_RETURN_IF_ERROR(reader->ReadU8(&act));
    if (static_cast<Activation>(act) != layer.activation) {
      return Status::InvalidArgument("MLP activation mismatch on restore");
    }
    Matrix weight;
    std::vector<double> bias;
    CROWDRL_RETURN_IF_ERROR(weight.LoadState(reader));
    CROWDRL_RETURN_IF_ERROR(reader->ReadDoubleVector(&bias));
    if (!weight.SameShape(layer.weight) || bias.size() != layer.bias.size()) {
      return Status::DataLoss("MLP parameter shape mismatch on restore");
    }
    layer.weight = std::move(weight);
    layer.bias = std::move(bias);
  }
  forward_input_ = nullptr;
  ZeroGrad();
  return Status::Ok();
}

void Mlp::BlendFrom(const Mlp& other, double tau) {
  CROWDRL_CHECK(sizes_ == other.sizes_);
  CROWDRL_CHECK(tau >= 0.0 && tau <= 1.0);
  for (size_t l = 0; l < layers_.size(); ++l) {
    Layer& mine = layers_[l];
    const Layer& theirs = other.layers_[l];
    for (size_t i = 0; i < mine.weight.data().size(); ++i) {
      mine.weight.data()[i] = (1.0 - tau) * mine.weight.data()[i] +
                              tau * theirs.weight.data()[i];
    }
    for (size_t i = 0; i < mine.bias.size(); ++i) {
      mine.bias[i] = (1.0 - tau) * mine.bias[i] + tau * theirs.bias[i];
    }
  }
}

}  // namespace crowdrl::nn
