#include "math/vector_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace crowdrl {

namespace {

// LogSumExp over a pointer span; the vector overload and the pointer-span
// Softmax share it.
double LogSumExpSpan(const double* v, size_t n) {
  CROWDRL_CHECK(n > 0);
  double max = *std::max_element(v, v + n);
  if (!std::isfinite(max)) return max;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::exp(v[i] - max);
  return max + std::log(sum);
}

}  // namespace

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  CROWDRL_CHECK(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void Axpy(double alpha, const std::vector<double>& x,
          std::vector<double>* y) {
  CROWDRL_CHECK(y != nullptr && x.size() == y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

size_t Argmax(const std::vector<double>& v) {
  return Argmax(v.data(), v.size());
}

size_t Argmax(const double* v, size_t n) {
  CROWDRL_CHECK(n > 0);
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

double LogSumExp(const std::vector<double>& v) {
  return LogSumExpSpan(v.data(), v.size());
}

std::vector<double> Softmax(const std::vector<double>& logits) {
  std::vector<double> out(logits.size());
  Softmax(logits.data(), logits.size(), out.data());
  return out;
}

void Softmax(const double* logits, size_t n, double* out) {
  double lse = LogSumExpSpan(logits, n);
  for (size_t i = 0; i < n; ++i) out[i] = std::exp(logits[i] - lse);
}

double Entropy(const std::vector<double>& probs) {
  return Entropy(probs.data(), probs.size());
}

double Entropy(const double* probs, size_t n) {
  double h = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double p = probs[i];
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

void NormalizeL1(std::vector<double>* v) {
  CROWDRL_CHECK(v != nullptr && !v->empty());
  double sum = 0.0;
  for (double x : *v) {
    CROWDRL_DCHECK(x >= 0.0);
    sum += x;
  }
  if (sum <= 0.0) {
    double uniform = 1.0 / static_cast<double>(v->size());
    for (double& x : *v) x = uniform;
    return;
  }
  for (double& x : *v) x /= sum;
}

void Clip(std::vector<double>* v, double lo, double hi) {
  CROWDRL_CHECK(v != nullptr && lo <= hi);
  for (double& x : *v) x = std::clamp(x, lo, hi);
}

double TopTwoGap(const std::vector<double>& v) {
  return TopTwoGap(v.data(), v.size());
}

double TopTwoGap(const double* v, size_t n) {
  CROWDRL_CHECK(n >= 2);
  double best = -std::numeric_limits<double>::infinity();
  double second = best;
  for (size_t i = 0; i < n; ++i) {
    double x = v[i];
    if (x > best) {
      second = best;
      best = x;
    } else if (x > second) {
      second = x;
    }
  }
  return best - second;
}

}  // namespace crowdrl
