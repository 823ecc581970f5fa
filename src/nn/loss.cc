#include "nn/loss.h"

#include <cmath>

#include "math/vector_ops.h"
#include "util/logging.h"

namespace crowdrl::nn {

namespace {

// Clamps log arguments away from zero.
constexpr double kLogFloor = 1e-12;

// Shapes `grad` like `like`, reusing its allocation when the shape already
// matches (the steady state of a training loop). Every loss below writes
// every gradient element.
void ReshapeGrad(const Matrix& like, Matrix* grad) {
  if (!grad->SameShape(like)) *grad = Matrix(like.rows(), like.cols());
}

}  // namespace

double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad) {
  return WeightedMseLoss(pred, target,
                         std::vector<double>(pred.rows(), 1.0), grad);
}

double WeightedMseLoss(const Matrix& pred, const Matrix& target,
                       const std::vector<double>& row_weights, Matrix* grad) {
  CROWDRL_CHECK(pred.SameShape(target));
  CROWDRL_CHECK(row_weights.size() == pred.rows());
  CROWDRL_CHECK(grad != nullptr);
  CROWDRL_CHECK(pred.rows() > 0 && pred.cols() > 0);
  ReshapeGrad(pred, grad);
  double n = static_cast<double>(pred.rows() * pred.cols());
  double loss = 0.0;
  for (size_t r = 0; r < pred.rows(); ++r) {
    double w = row_weights[r];
    for (size_t c = 0; c < pred.cols(); ++c) {
      double diff = pred.At(r, c) - target.At(r, c);
      loss += w * diff * diff;
      grad->At(r, c) = w * 2.0 * diff / n;
    }
  }
  return loss / n;
}

double SoftmaxCrossEntropyLoss(const Matrix& logits, const Matrix& target,
                               Matrix* grad) {
  return WeightedSoftmaxCrossEntropyLoss(
      logits, target, std::vector<double>(logits.rows(), 1.0), grad);
}

double WeightedSoftmaxCrossEntropyLoss(const Matrix& logits,
                                       const Matrix& target,
                                       const std::vector<double>& row_weights,
                                       Matrix* grad) {
  CROWDRL_CHECK(logits.SameShape(target));
  CROWDRL_CHECK(row_weights.size() == logits.rows());
  CROWDRL_CHECK(grad != nullptr);
  CROWDRL_CHECK(logits.rows() > 0 && logits.cols() > 0);
  ReshapeGrad(logits, grad);
  double batch = static_cast<double>(logits.rows());
  double loss = 0.0;
  for (size_t r = 0; r < logits.rows(); ++r) {
    // The row's softmax is staged in its gradient row, then each entry is
    // replaced by its gradient once its loss term has read it.
    double* row = grad->Row(r);
    Softmax(logits.Row(r), logits.cols(), row);
    double w = row_weights[r];
    for (size_t c = 0; c < logits.cols(); ++c) {
      double p = row[c];
      double t = target.At(r, c);
      if (t > 0.0) loss -= w * t * std::log(std::max(p, kLogFloor));
      row[c] = w * (p - t) / batch;
    }
  }
  return loss / batch;
}

double MaskedMseLoss(const Matrix& pred, const Matrix& target,
                     const Matrix& mask, Matrix* grad) {
  CROWDRL_CHECK(pred.SameShape(target) && pred.SameShape(mask));
  CROWDRL_CHECK(grad != nullptr);
  ReshapeGrad(pred, grad);
  double count = 0.0;
  for (double m : mask.data()) {
    if (m != 0.0) count += 1.0;
  }
  if (count == 0.0) {
    grad->Fill(0.0);
    return 0.0;
  }
  double loss = 0.0;
  for (size_t i = 0; i < pred.data().size(); ++i) {
    if (mask.data()[i] == 0.0) {
      grad->data()[i] = 0.0;
      continue;
    }
    double diff = pred.data()[i] - target.data()[i];
    loss += diff * diff;
    grad->data()[i] = 2.0 * diff / count;
  }
  return loss / count;
}

}  // namespace crowdrl::nn
