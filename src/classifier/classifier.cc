#include "classifier/classifier.h"

#include <algorithm>

#include "util/logging.h"

namespace crowdrl::classifier {

Matrix Classifier::PredictProbsBatch(const Matrix& features) const {
  CROWDRL_CHECK(features.cols() == feature_dim());
  Matrix out(features.rows(), static_cast<size_t>(num_classes()));
  for (size_t r = 0; r < features.rows(); ++r) {
    std::vector<double> probs = PredictProbs(features.RowVector(r));
    out.SetRow(r, probs);
  }
  return out;
}

namespace {

Matrix GatherRows(const Matrix& features, const std::vector<int>& rows) {
  Matrix out(rows.size(), features.cols());
  for (size_t r = 0; r < rows.size(); ++r) {
    const size_t row = static_cast<size_t>(rows[r]);
    CROWDRL_CHECK(row < features.rows());
    const double* src = features.Row(row);
    std::copy(src, src + features.cols(), out.Row(r));
  }
  return out;
}

}  // namespace

Status Classifier::TrainRows(const Matrix& features,
                             const std::vector<int>& rows,
                             const Matrix& soft_labels,
                             const std::vector<double>& weights) {
  return Train(GatherRows(features, rows), soft_labels, weights);
}

Matrix Classifier::PredictProbsRows(const Matrix& features,
                                    const std::vector<int>& rows) const {
  return PredictProbsBatch(GatherRows(features, rows));
}

}  // namespace crowdrl::classifier
