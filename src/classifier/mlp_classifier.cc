#include "classifier/mlp_classifier.h"

#include <algorithm>
#include <numeric>

#include "math/vector_ops.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/logging.h"

namespace crowdrl::classifier {

MlpClassifier::MlpClassifier(size_t feature_dim, int num_classes,
                             MlpClassifierOptions options)
    : feature_dim_(feature_dim),
      num_classes_(num_classes),
      options_(std::move(options)) {
  CROWDRL_CHECK(feature_dim > 0);
  CROWDRL_CHECK(num_classes >= 2);
  CROWDRL_CHECK(options_.epochs > 0);
  CROWDRL_CHECK(options_.batch_size > 0);
}

nn::Mlp MlpClassifier::BuildNetwork(Rng* rng) const {
  std::vector<size_t> sizes;
  sizes.push_back(feature_dim_);
  for (size_t h : options_.hidden_sizes) sizes.push_back(h);
  sizes.push_back(static_cast<size_t>(num_classes_));
  std::vector<nn::Activation> acts(sizes.size() - 1, nn::Activation::kRelu);
  acts.back() = nn::Activation::kIdentity;  // Logits; softmax in the loss.
  return nn::Mlp(sizes, acts, rng);
}

Status MlpClassifier::Train(const Matrix& features, const Matrix& soft_labels,
                            const std::vector<double>& weights) {
  return TrainOn(features, nullptr, soft_labels, weights);
}

Status MlpClassifier::TrainRows(const Matrix& features,
                                const std::vector<int>& rows,
                                const Matrix& soft_labels,
                                const std::vector<double>& weights) {
  for (int row : rows) {
    if (row < 0 || static_cast<size_t>(row) >= features.rows()) {
      return Status::InvalidArgument("training row out of range");
    }
  }
  return TrainOn(features, &rows, soft_labels, weights);
}

Status MlpClassifier::TrainOn(const Matrix& features,
                              const std::vector<int>* rows,
                              const Matrix& soft_labels,
                              const std::vector<double>& weights) {
  const size_t num_rows = rows != nullptr ? rows->size() : features.rows();
  if (num_rows == 0) {
    return Status::InvalidArgument("cannot train on an empty set");
  }
  if (features.cols() != feature_dim_) {
    return Status::InvalidArgument("feature dimension mismatch");
  }
  if (soft_labels.rows() != num_rows ||
      soft_labels.cols() != static_cast<size_t>(num_classes_)) {
    return Status::InvalidArgument("soft label shape mismatch");
  }
  if (!weights.empty() && weights.size() != num_rows) {
    return Status::InvalidArgument("weight count mismatch");
  }

  Rng rng(options_.seed + 0x9E37 * (++retrain_count_));
  nn::Mlp net = options_.warm_start && net_.has_value()
                    ? *net_
                    : BuildNetwork(&rng);
  nn::Adam optimizer(options_.learning_rate, 0.9, 0.999, 1e-8,
                     options_.weight_decay);

  // Mini-batch buffers live for the whole call: one set shaped for full
  // batches and one for the short last batch of every epoch, so the steady
  // state gathers rows by pointer and allocates nothing.
  struct Batch {
    Matrix x;
    Matrix t;
    std::vector<double> w;
  };
  const size_t classes = static_cast<size_t>(num_classes_);
  auto make_batch = [&](size_t rows) {
    return Batch{Matrix(rows, feature_dim_), Matrix(rows, classes),
                 std::vector<double>(rows)};
  };
  Batch full = make_batch(std::min(options_.batch_size, num_rows));
  Batch tail = make_batch(num_rows % options_.batch_size);
  Matrix grad;

  std::vector<int> order(static_cast<int>(num_rows));
  std::iota(order.begin(), order.end(), 0);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < num_rows; start += options_.batch_size) {
      size_t end = std::min(num_rows, start + options_.batch_size);
      size_t batch = end - start;
      Batch& buf = batch == full.w.size() ? full : tail;
      for (size_t b = 0; b < batch; ++b) {
        size_t row = static_cast<size_t>(order[start + b]);
        const double* x_src = features.Row(
            rows != nullptr ? static_cast<size_t>((*rows)[row]) : row);
        std::copy(x_src, x_src + feature_dim_, buf.x.Row(b));
        const double* t_src = soft_labels.Row(row);
        std::copy(t_src, t_src + classes, buf.t.Row(b));
        buf.w[b] = weights.empty() ? 1.0 : weights[row];
      }
      const Matrix& logits = net.Forward(buf.x);
      nn::WeightedSoftmaxCrossEntropyLoss(logits, buf.t, buf.w, &grad);
      net.Backward(grad);
      optimizer.Step(&net);
    }
  }
  net_ = std::move(net);
  return Status::Ok();
}

std::vector<double> MlpClassifier::PredictProbs(
    const std::vector<double>& features) const {
  CROWDRL_CHECK(features.size() == feature_dim_);
  if (!net_.has_value()) {
    return std::vector<double>(static_cast<size_t>(num_classes_),
                               1.0 / static_cast<double>(num_classes_));
  }
  return Softmax(net_->Infer(features));
}

Matrix MlpClassifier::PredictProbsBatch(const Matrix& features) const {
  CROWDRL_CHECK(features.cols() == feature_dim_);
  return Predict(features.rows(),
                 [&features](size_t r0, size_t r1, Matrix* block) {
                   for (size_t r = r0; r < r1; ++r) {
                     const double* src = features.Row(r);
                     std::copy(src, src + features.cols(), block->Row(r - r0));
                   }
                 });
}

Matrix MlpClassifier::PredictProbsRows(const Matrix& features,
                                       const std::vector<int>& rows) const {
  CROWDRL_CHECK(features.cols() == feature_dim_);
  for (int row : rows) {
    CROWDRL_CHECK(row >= 0 && static_cast<size_t>(row) < features.rows());
  }
  return Predict(rows.size(),
                 [&features, &rows](size_t r0, size_t r1, Matrix* block) {
                   for (size_t r = r0; r < r1; ++r) {
                     const double* src =
                         features.Row(static_cast<size_t>(rows[r]));
                     std::copy(src, src + features.cols(), block->Row(r - r0));
                   }
                 });
}

Matrix MlpClassifier::Predict(size_t rows,
                              const nn::Mlp::RowFiller& fill) const {
  const size_t classes = static_cast<size_t>(num_classes_);
  if (!net_.has_value()) {
    return Matrix(rows, classes, 1.0 / static_cast<double>(num_classes_));
  }
  Matrix probs;
  net_->InferInto(rows, fill, /*pool=*/nullptr, &probs);
  // Softmax reads a row's logits before it writes any of them.
  for (size_t r = 0; r < rows; ++r) {
    Softmax(probs.Row(r), classes, probs.Row(r));
  }
  return probs;
}

void MlpClassifier::SaveState(io::Writer* writer) const {
  CROWDRL_CHECK(writer != nullptr);
  writer->WriteSize(feature_dim_);
  writer->WriteI32(num_classes_);
  writer->WriteSize(retrain_count_);
  writer->WriteBool(net_.has_value());
  if (net_.has_value()) net_->SaveState(writer);
}

Status MlpClassifier::LoadState(io::Reader* reader) {
  CROWDRL_CHECK(reader != nullptr);
  size_t feature_dim = 0;
  int32_t num_classes = 0;
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&feature_dim));
  CROWDRL_RETURN_IF_ERROR(reader->ReadI32(&num_classes));
  if (feature_dim != feature_dim_ || num_classes != num_classes_) {
    return Status::InvalidArgument("classifier shape mismatch on restore");
  }
  CROWDRL_RETURN_IF_ERROR(reader->ReadSize(&retrain_count_));
  bool has_net = false;
  CROWDRL_RETURN_IF_ERROR(reader->ReadBool(&has_net));
  if (!has_net) {
    net_.reset();
    return Status::Ok();
  }
  // Build a network of the configured architecture (the throwaway init
  // seed is overwritten by the serialized weights), then restore into it
  // so LoadState's architecture validation applies.
  Rng scratch(options_.seed);
  nn::Mlp net = BuildNetwork(&scratch);
  CROWDRL_RETURN_IF_ERROR(net.LoadState(reader));
  net_ = std::move(net);
  return Status::Ok();
}

std::unique_ptr<Classifier> MlpClassifier::Clone() const {
  return std::make_unique<MlpClassifier>(*this);
}

LogisticClassifier::LogisticClassifier(size_t feature_dim, int num_classes,
                                       MlpClassifierOptions options)
    : MlpClassifier(feature_dim, num_classes, [&options] {
        options.hidden_sizes.clear();
        return options;
      }()) {}

}  // namespace crowdrl::classifier
