#ifndef CROWDRL_NN_LOSS_H_
#define CROWDRL_NN_LOSS_H_

#include "math/matrix.h"

namespace crowdrl::nn {

/// Every loss below overwrites every element of *grad and reuses its
/// allocation when it already has the prediction's shape, so a training
/// loop that keeps one gradient matrix across steps allocates nothing.

/// Mean squared error over all elements of the batch.
/// Returns the loss and writes dLoss/dPred into *grad (same shape as pred).
/// Optional per-row weights scale each sample's contribution.
double MseLoss(const Matrix& pred, const Matrix& target, Matrix* grad);
double WeightedMseLoss(const Matrix& pred, const Matrix& target,
                       const std::vector<double>& row_weights, Matrix* grad);

/// Softmax cross-entropy against target *distributions* (soft labels are
/// first-class citizens here: the joint inference model trains phi on
/// posteriors q(y_i)). `logits` are raw network outputs; the gradient
/// (softmax(logits) - target) / batch is written into *grad.
/// Optional per-row weights scale each sample.
double SoftmaxCrossEntropyLoss(const Matrix& logits, const Matrix& target,
                               Matrix* grad);
double WeightedSoftmaxCrossEntropyLoss(const Matrix& logits,
                                       const Matrix& target,
                                       const std::vector<double>& row_weights,
                                       Matrix* grad);

/// Masked MSE for DQN updates: only entries with mask != 0 contribute.
/// The divisor is the number of unmasked entries.
double MaskedMseLoss(const Matrix& pred, const Matrix& target,
                     const Matrix& mask, Matrix* grad);

}  // namespace crowdrl::nn

#endif  // CROWDRL_NN_LOSS_H_
