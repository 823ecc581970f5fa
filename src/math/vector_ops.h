#ifndef CROWDRL_MATH_VECTOR_OPS_H_
#define CROWDRL_MATH_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace crowdrl {

/// Inner product; sizes must match.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// y += alpha * x; sizes must match.
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);

/// Index of the largest element (first on ties). Requires non-empty input.
size_t Argmax(const std::vector<double>& v);

/// Pointer-span Argmax (same result as the vector overload).
size_t Argmax(const double* v, size_t n);

/// Numerically stable log(sum(exp(v))).
double LogSumExp(const std::vector<double>& v);

/// Numerically stable softmax; returns a probability vector.
std::vector<double> Softmax(const std::vector<double>& logits);

/// Pointer-span Softmax into `out` (n doubles; may alias `logits`),
/// bit-identical to the vector overload and allocation-free.
void Softmax(const double* logits, size_t n, double* out);

/// Shannon entropy (nats) of a probability vector; 0-probability terms
/// contribute zero.
double Entropy(const std::vector<double>& probs);

/// Pointer-span Entropy with the same element order (bit-identical to the
/// vector overload); lets hot paths read matrix rows without copying.
double Entropy(const double* probs, size_t n);

/// Scales a non-negative vector to sum to 1 in place. If the sum is zero,
/// produces the uniform distribution.
void NormalizeL1(std::vector<double>* v);

/// Clamps every element to [lo, hi] in place.
void Clip(std::vector<double>* v, double lo, double hi);

/// Gap between the largest and second-largest entries. Requires size >= 2.
/// This is the paper's enrichment ambiguity test |phi_cj - phi_ck|.
double TopTwoGap(const std::vector<double>& v);

/// Pointer-span TopTwoGap (bit-identical to the vector overload).
double TopTwoGap(const double* v, size_t n);

}  // namespace crowdrl

#endif  // CROWDRL_MATH_VECTOR_OPS_H_
