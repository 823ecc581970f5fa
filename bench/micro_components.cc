// Component microbenchmarks (google-benchmark): the per-iteration cost of
// every hot path in the labelling loop — truth inference, action scoring,
// enrichment, replay training, classifier fits — plus the GEMM kernel layer.
//
// Besides the google-benchmark suite, this binary emits BENCH_kernels.json:
// a before/after comparison of the GEMM kernels against the seed
// (pre-kernel) implementation at the paper's MLP scale and at the serving
// shapes (the Q network's InferInto, a classifier training step), with
// bit-identity verified, and the factorized Q head's ns per pair on one
// serial selection-sized forward. It also emits BENCH_scoring.json: a per-iteration
// breakdown of the candidate-scoring loop (featurize / Q forward / top-k)
// comparing the seed featurizer against the incremental ScoreCache
// engine, with the exact path's bit-identity verified every iteration.
// It also emits BENCH_obs.json: the per-op cost of the observability
// hooks (counter increment, histogram record, trace-span enter/exit) with
// metrics enabled vs disabled, net of an empty-loop baseline that stands
// in for the compiled-out (-DCROWDRL_OBS_BUILD=0) build, where the hooks
// expand to nothing.
// Extra flags (stripped before google-benchmark sees them):
//   --kernels_batch=N     largest batch in the kernel sweep (default 4096)
//   --kernels_json=PATH   kernel report path (default BENCH_kernels.json)
//   --scoring_objects=N   scoring-grid objects (default 2048, x40 annotators)
//   --scoring_json=PATH   scoring report path (default BENCH_scoring.json)
//   --obs_overhead_json=PATH  obs report path (default BENCH_obs.json)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "classifier/knn_classifier.h"
#include "classifier/mlp_classifier.h"
#include "core/enrichment.h"
#include "inference/dawid_skene.h"
#include "inference/joint_inference.h"
#include "inference/majority_vote.h"
#include "inference/pm.h"
#include "crowd/answer_log.h"
#include "math/backend.h"
#include "math/gemm.h"
#include "math/vector_ops.h"
#include "nn/mlp.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/dqn_agent.h"
#include "rl/q_network.h"
#include "rl/score_cache.h"
#include "tests/testing/reference_fills.h"
#include "tests/testing/reference_gemm.h"
#include "tests/testing/selection_lockstep.h"
#include "tests/testing/sim_helpers.h"

namespace crowdrl {
namespace {

testing::SimWorld& SharedWorld(size_t objects) {
  static auto* worlds =
      new std::map<size_t, std::unique_ptr<testing::SimWorld>>();
  auto it = worlds->find(objects);
  if (it == worlds->end()) {
    it = worlds
             ->emplace(objects, std::make_unique<testing::SimWorld>(
                                    testing::MakeSimWorld(
                                        objects, 3, 2, 3, 1234)))
             .first;
  }
  return *it->second;
}

inference::InferenceInput MakeInput(testing::SimWorld& world) {
  inference::InferenceInput input;
  input.answers = world.answers.get();
  input.num_classes = 2;
  input.objects = world.objects;
  return input;
}

void BM_MajorityVote(benchmark::State& state) {
  testing::SimWorld& world =
      SharedWorld(static_cast<size_t>(state.range(0)));
  inference::MajorityVote mv;
  for (auto _ : state) {
    inference::InferenceResult result;
    benchmark::DoNotOptimize(mv.Infer(MakeInput(world), &result));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MajorityVote)->Arg(256)->Arg(1024);

void BM_DawidSkeneEm(benchmark::State& state) {
  testing::SimWorld& world =
      SharedWorld(static_cast<size_t>(state.range(0)));
  inference::DawidSkene em;
  for (auto _ : state) {
    inference::InferenceResult result;
    benchmark::DoNotOptimize(em.Infer(MakeInput(world), &result));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DawidSkeneEm)->Arg(256)->Arg(1024);

void BM_PmInference(benchmark::State& state) {
  testing::SimWorld& world =
      SharedWorld(static_cast<size_t>(state.range(0)));
  inference::PmInference pm;
  for (auto _ : state) {
    inference::InferenceResult result;
    benchmark::DoNotOptimize(pm.Infer(MakeInput(world), &result));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PmInference)->Arg(256)->Arg(1024);

void BM_JointInference(benchmark::State& state) {
  testing::SimWorld& world =
      SharedWorld(static_cast<size_t>(state.range(0)));
  std::vector<crowd::AnnotatorType> types;
  for (const auto& a : world.pool) types.push_back(a.type());
  inference::JointInferenceOptions options;
  options.em.max_iterations = 8;
  for (auto _ : state) {
    classifier::MlpClassifierOptions cls;
    cls.hidden_sizes = {16};
    cls.epochs = 6;
    classifier::MlpClassifier phi(world.dataset.feature_dim(), 2, cls);
    inference::InferenceInput input = MakeInput(world);
    input.features = &world.dataset.features;
    input.classifier = &phi;
    input.annotator_types = &types;
    inference::JointInference joint(options);
    inference::InferenceResult result;
    benchmark::DoNotOptimize(joint.Infer(input, &result));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JointInference)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_DqnActionScoring(benchmark::State& state) {
  testing::SimWorld& world =
      SharedWorld(static_cast<size_t>(state.range(0)));
  rl::DqnAgent agent((rl::DqnAgentOptions()));
  agent.BeginEpisode(world.dataset.num_objects(), world.pool.size());
  std::vector<double> costs, qualities;
  std::vector<bool> is_expert, labelled, affordable;
  for (const auto& a : world.pool) {
    costs.push_back(a.cost());
    qualities.push_back(a.TrueQuality());
    is_expert.push_back(a.is_expert());
    affordable.push_back(true);
  }
  // Half-fresh log so there are valid pairs to score.
  crowd::AnswerLog empty_log(world.dataset.num_objects(),
                             world.pool.size());
  labelled.assign(world.dataset.num_objects(), false);
  rl::StateView view;
  view.answers = &empty_log;
  view.num_classes = 2;
  view.annotator_costs = &costs;
  view.annotator_qualities = &qualities;
  view.annotator_is_expert = &is_expert;
  view.labelled = &labelled;
  view.max_cost = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Score(view, affordable));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<int64_t>(world.pool.size()));
}
BENCHMARK(BM_DqnActionScoring)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_EnrichmentPass(benchmark::State& state) {
  testing::SimWorld& world =
      SharedWorld(static_cast<size_t>(state.range(0)));
  classifier::MlpClassifierOptions cls;
  cls.hidden_sizes = {16};
  cls.epochs = 6;
  classifier::MlpClassifier phi(world.dataset.feature_dim(), 2, cls);
  Matrix one_hot(world.dataset.num_objects(), 2);
  for (size_t i = 0; i < world.dataset.num_objects(); ++i) {
    one_hot.At(i, static_cast<size_t>(world.dataset.truths[i])) = 1.0;
  }
  CROWDRL_CHECK(phi.Train(world.dataset.features, one_hot, {}).ok());
  // The run reads phi's batch prediction (RunState::class_probs), which
  // every change to phi refreshes; the pass itself only rates rows.
  const Matrix class_probs = phi.PredictProbsBatch(world.dataset.features);
  core::EnrichmentOptions options;
  options.min_labelled = 0;
  options.min_labelled_fraction = 0.0;
  for (auto _ : state) {
    core::LabelState labels(world.dataset.num_objects(), 2);
    labels.SetLabel(0, 0, core::LabelSource::kInference);
    benchmark::DoNotOptimize(
        EnrichLabelledSet(&class_probs, options, &labels));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EnrichmentPass)->Arg(256)->Arg(1024);

void BM_QNetworkTrainBatch(benchmark::State& state) {
  rl::QNetwork q((rl::QNetworkOptions()));
  Rng rng(5);
  std::vector<rl::Transition> transitions(32);
  for (auto& t : transitions) {
    t.features.resize(rl::StateFeaturizer::kFeatureDim);
    for (double& f : t.features) f = rng.Uniform();
    t.reward = rng.Uniform();
    t.next_max_q = rng.Uniform();
  }
  std::vector<const rl::Transition*> batch;
  for (const auto& t : transitions) batch.push_back(&t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.TrainBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_QNetworkTrainBatch);

void BM_MlpClassifierTrain(benchmark::State& state) {
  testing::SimWorld& world =
      SharedWorld(static_cast<size_t>(state.range(0)));
  Matrix one_hot(world.dataset.num_objects(), 2);
  for (size_t i = 0; i < world.dataset.num_objects(); ++i) {
    one_hot.At(i, static_cast<size_t>(world.dataset.truths[i])) = 1.0;
  }
  classifier::MlpClassifierOptions cls;
  cls.hidden_sizes = {16};
  cls.epochs = 6;
  for (auto _ : state) {
    classifier::MlpClassifier phi(world.dataset.feature_dim(), 2, cls);
    benchmark::DoNotOptimize(
        phi.Train(world.dataset.features, one_hot, {}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpClassifierTrain)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_KnnPredict(benchmark::State& state) {
  testing::SimWorld& world = SharedWorld(1024);
  Matrix one_hot(world.dataset.num_objects(), 2);
  for (size_t i = 0; i < world.dataset.num_objects(); ++i) {
    one_hot.At(i, static_cast<size_t>(world.dataset.truths[i])) = 1.0;
  }
  classifier::KnnClassifier knn(world.dataset.feature_dim(), 2);
  CROWDRL_CHECK(knn.Train(world.dataset.features, one_hot, {}).ok());
  std::vector<double> probe = world.dataset.features.RowVector(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.PredictProbs(probe));
  }
}
BENCHMARK(BM_KnnPredict);

// ---- GEMM kernel layer (paper dims: feature 1600, hidden 256, out 64) ----

constexpr size_t kFeatureDim = 1600;
constexpr size_t kHiddenDim = 256;
constexpr size_t kOutDim = 64;

void BM_GemmNT(benchmark::State& state) {
  // Forward layout: activations (batch x in) times weights (out x in)^T.
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(31);
  Matrix a(batch, kFeatureDim);
  Matrix w(kHiddenDim, kFeatureDim);
  a.FillUniform(&rng, -1.0, 1.0);
  w.FillUniform(&rng, -0.1, 0.1);
  Matrix out, scratch;
  for (auto _ : state) {
    gemm::MatMulNTInto(a, w, &out, nullptr, {}, &scratch);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch * kFeatureDim *
                                               kHiddenDim));
}
BENCHMARK(BM_GemmNT)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_GemmTN(benchmark::State& state) {
  // Weight-gradient layout: grad (batch x out)^T times input (batch x in).
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(32);
  Matrix g(batch, kHiddenDim);
  Matrix x(batch, kFeatureDim);
  g.FillUniform(&rng, -1.0, 1.0);
  x.FillUniform(&rng, -1.0, 1.0);
  Matrix out;
  for (auto _ : state) {
    gemm::MatMulTNInto(g, x, &out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch * kFeatureDim *
                                               kHiddenDim));
}
BENCHMARK(BM_GemmTN)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_GemmNN(benchmark::State& state) {
  // Input-gradient layout: grad (batch x out) times weights (out x in).
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(33);
  Matrix g(batch, kHiddenDim);
  Matrix w(kHiddenDim, kFeatureDim);
  g.FillUniform(&rng, -1.0, 1.0);
  w.FillUniform(&rng, -0.1, 0.1);
  Matrix out;
  for (auto _ : state) {
    gemm::MatMulInto(g, w, &out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch * kFeatureDim *
                                               kHiddenDim));
}
BENCHMARK(BM_GemmNN)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

nn::Mlp MakePaperNet(Rng* rng) {
  return nn::Mlp({kFeatureDim, kHiddenDim, kOutDim},
                 {nn::Activation::kRelu, nn::Activation::kIdentity}, rng);
}

void BM_MlpForward(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(34);
  nn::Mlp net = MakePaperNet(&rng);
  Matrix x(batch, kFeatureDim);
  x.FillUniform(&rng, -1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Forward(x).data().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_MlpForward)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_MlpForwardBackward(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(35);
  nn::Mlp net = MakePaperNet(&rng);
  Matrix x(batch, kFeatureDim);
  Matrix grad(batch, kOutDim);
  x.FillUniform(&rng, -1.0, 1.0);
  grad.FillUniform(&rng, -1.0, 1.0);
  for (auto _ : state) {
    net.ZeroGrad();
    net.Forward(x);
    net.Backward(grad);
    benchmark::DoNotOptimize(net.ParamViews().front().grad);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_MlpForwardBackward)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// ---- BENCH_kernels.json: seed vs kernel, bit-identity verified ----------

using testing::BitEqual;
using testing::ReferenceMatMul;
using testing::ReferenceTransposed;

// The pre-kernel Mlp forward/backward, transcribed from the seed nn/mlp.cc
// and built on the seed matmul (with its data-dependent zero-skip), so the
// "before" timings reflect what the repo actually shipped.
struct SeedNet {
  struct Layer {
    Matrix weight;
    std::vector<double> bias;
    Matrix weight_grad;
    std::vector<double> bias_grad;
    nn::Activation activation;
    Matrix input;
    Matrix output;
  };
  std::vector<Layer> layers;

  SeedNet(const nn::Mlp& net, const std::vector<size_t>& sizes,
          const std::vector<nn::Activation>& acts) {
    std::vector<double> flat = net.FlatParameters();
    size_t offset = 0;
    layers.resize(sizes.size() - 1);
    for (size_t l = 0; l < layers.size(); ++l) {
      Layer& layer = layers[l];
      layer.weight = Matrix(sizes[l + 1], sizes[l]);
      for (double& w : layer.weight.data()) w = flat[offset++];
      layer.bias.assign(flat.begin() + static_cast<ptrdiff_t>(offset),
                        flat.begin() + static_cast<ptrdiff_t>(offset) +
                            static_cast<ptrdiff_t>(sizes[l + 1]));
      offset += sizes[l + 1];
      layer.weight_grad = Matrix(sizes[l + 1], sizes[l]);
      layer.bias_grad.assign(sizes[l + 1], 0.0);
      layer.activation = acts[l];
    }
  }

  void ZeroGrad() {
    for (Layer& layer : layers) {
      layer.weight_grad.Fill(0.0);
      for (double& g : layer.bias_grad) g = 0.0;
    }
  }

  Matrix Forward(const Matrix& batch) {
    Matrix current = batch;
    for (Layer& layer : layers) {
      layer.input = current;
      Matrix pre =
          ReferenceMatMul(current, ReferenceTransposed(layer.weight));
      for (size_t r = 0; r < pre.rows(); ++r) {
        double* row = pre.Row(r);
        for (size_t c = 0; c < pre.cols(); ++c) row[c] += layer.bias[c];
      }
      nn::ApplyActivation(layer.activation, &pre);
      layer.output = pre;
      current = std::move(pre);
    }
    return current;
  }

  Matrix Backward(const Matrix& grad_output) {
    Matrix grad = grad_output;
    for (size_t l = layers.size(); l > 0; --l) {
      Layer& layer = layers[l - 1];
      nn::ApplyActivationGrad(layer.activation, layer.output, &grad);
      Matrix dw = ReferenceMatMul(ReferenceTransposed(grad), layer.input);
      layer.weight_grad.Add(dw);
      for (size_t r = 0; r < grad.rows(); ++r) {
        const double* row = grad.Row(r);
        for (size_t c = 0; c < grad.cols(); ++c) {
          layer.bias_grad[c] += row[c];
        }
      }
      grad = ReferenceMatMul(grad, layer.weight);
    }
    return grad;
  }
};

template <typename Fn>
double MinSeconds(int reps, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // Warm caches and scratch allocations.
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

struct OpRow {
  const char* op;
  size_t m, k, n;
  double seed_ms, kernel_ms;
  bool bit_identical;
};

// One whole-network comparison row of the kernel report.
struct NetRow {
  const char* op;
  std::vector<size_t> sizes;
  size_t batch;
  double seed_ms, kernel_ms;
  bool bit_identical;
};

std::string SizesString(const std::vector<size_t>& sizes) {
  std::string out = "[";
  for (size_t i = 0; i < sizes.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::to_string(sizes[i]);
  }
  return out + "]";
}

// ReLU hidden layers and an identity output, like the Q network and the
// classifier.
std::vector<nn::Activation> ReluNetActivations(size_t layers) {
  std::vector<nn::Activation> acts(layers, nn::Activation::kRelu);
  acts.back() = nn::Activation::kIdentity;
  return acts;
}

// Seed vs kernel forward+backward of one `sizes` network at `batch` rows,
// timed per step as the best of a few runs of `iters` steps each (many
// steps for shapes that take microseconds); bit identity covers the
// outputs and every weight and bias gradient.
NetRow CompareForwardBackward(const char* op, const std::vector<size_t>& sizes,
                              size_t batch, int iters, Rng* rng) {
  const std::vector<nn::Activation> acts =
      ReluNetActivations(sizes.size() - 1);
  nn::Mlp net(sizes, acts, rng);
  SeedNet seed(net, sizes, acts);
  Matrix x(batch, sizes.front()), grad(batch, sizes.back());
  x.FillUniform(rng, -1.0, 1.0);
  grad.FillUniform(rng, -1.0, 1.0);
  const int reps = iters > 3 ? 5 : 2;
  const double seed_s = MinSeconds(reps, [&] {
    for (int i = 0; i < iters; ++i) {
      seed.ZeroGrad();
      seed.Forward(x);
      seed.Backward(grad);
    }
  });
  const double kernel_s = MinSeconds(reps, [&] {
    for (int i = 0; i < iters; ++i) {
      net.ZeroGrad();
      net.Forward(x);
      net.Backward(grad);
    }
  });
  // One more pass of each to compare bits: outputs and every gradient.
  seed.ZeroGrad();
  net.ZeroGrad();
  Matrix seed_fwd = seed.Forward(x);
  seed.Backward(grad);
  Matrix kernel_fwd = net.Forward(x);
  net.Backward(grad);
  bool biteq = BitEqual(seed_fwd, kernel_fwd);
  std::vector<nn::ParamView> views = net.ParamViews();
  for (size_t l = 0; l < seed.layers.size(); ++l) {
    biteq = biteq &&
            std::memcmp(views[2 * l].grad,
                        seed.layers[l].weight_grad.data().data(),
                        seed.layers[l].weight_grad.size() *
                            sizeof(double)) == 0 &&
            std::memcmp(views[2 * l + 1].grad,
                        seed.layers[l].bias_grad.data(),
                        seed.layers[l].bias_grad.size() *
                            sizeof(double)) == 0;
  }
  return {op, sizes, batch, seed_s * 1e3 / iters, kernel_s * 1e3 / iters,
          biteq};
}

// Seed forward vs the loop-fused Mlp::InferInto (serial) of one `sizes`
// network over `batch` rows.
NetRow CompareInferInto(const char* op, const std::vector<size_t>& sizes,
                        size_t batch, Rng* rng) {
  const std::vector<nn::Activation> acts =
      ReluNetActivations(sizes.size() - 1);
  nn::Mlp net(sizes, acts, rng);
  SeedNet seed(net, sizes, acts);
  Matrix x(batch, sizes.front());
  x.FillUniform(rng, -1.0, 1.0);
  Matrix seed_out, kernel_out;
  const double seed_s = MinSeconds(5, [&] { seed_out = seed.Forward(x); });
  const double kernel_s =
      MinSeconds(5, [&] { net.InferInto(x, nullptr, &kernel_out); });
  return {op, sizes, batch, seed_s * 1e3, kernel_s * 1e3,
          BitEqual(seed_out, kernel_out)};
}

// The factorized Q head (the agent's selection forward) on one serial
// call over a whole object-major grid.
struct HeadRow {
  size_t objects, annotators;
  double ms;
  bool bit_identical;
};

// QNetwork::PredictBatchFactorized, serial, over every pair of an
// `objects` x `annotators` grid in object-major order, timed as the best
// of 9 calls. The network's parameters are perturbed off their
// initialization (nonzero biases), and the scores are checked bit for
// bit against testing::ReferenceFactorizedQ, the head's scalar reference
// (the portable tier's order of operations).
HeadRow MeasureFactorizedHead(size_t objects, size_t annotators, Rng* rng) {
  testing::SelectionScenario scenario(/*seed=*/5, /*twins=*/false, objects,
                                      annotators);
  rl::ScoreCache cache;
  cache.Sync(scenario.View());
  rl::FeatureBlocks blocks;
  blocks.object_blocks = &cache.object_blocks();
  blocks.annotator_blocks = &cache.annotator_blocks();
  blocks.global_block = cache.global_block();
  rl::QNetwork net(rl::QNetworkOptions{});
  std::vector<double> params = net.FlatParameters();
  for (double& p : params) p += rng->Uniform(-0.1, 0.1);
  net.SetFlatParameters(params);
  std::vector<rl::Action> pairs;
  pairs.reserve(objects * annotators);
  for (size_t i = 0; i < objects; ++i) {
    for (size_t j = 0; j < annotators; ++j) {
      pairs.push_back({static_cast<int>(i), static_cast<int>(j)});
    }
  }
  std::vector<double> q;
  const double secs = MinSeconds(9, [&] {
    q = net.PredictBatchFactorized(blocks, pairs, /*use_target=*/false);
  });
  const std::vector<double> want =
      testing::ReferenceFactorizedQ(testing::OnlineMlp(net), blocks, pairs);
  const bool biteq =
      q.size() == want.size() &&
      std::memcmp(q.data(), want.data(), q.size() * sizeof(double)) == 0;
  return {objects, annotators, secs * 1e3, biteq};
}

void WriteKernelReport(size_t max_batch, const std::string& path) {
  std::printf("== kernel report (batch up to %zu, %zux%zux%zu net, "
              "simd tier %s) ==\n",
              max_batch, kFeatureDim, kHiddenDim, kOutDim,
              math::SimdTierName(math::ActiveSimdTier()));
  std::vector<size_t> batches;
  for (size_t b : {size_t{256}, size_t{1024}, max_batch}) {
    if (b <= max_batch &&
        (batches.empty() || b > batches.back())) {
      batches.push_back(b);
    }
  }

  // Per-variant sweep at layer-1 scale, dense operands (raw kernel view).
  std::vector<OpRow> rows;
  Rng rng(41);
  for (size_t b : batches) {
    const int reps = b >= 2048 ? 2 : 3;
    Matrix a(b, kFeatureDim), w(kHiddenDim, kFeatureDim);
    Matrix g(b, kHiddenDim);
    a.FillUniform(&rng, -1.0, 1.0);
    w.FillUniform(&rng, -0.1, 0.1);
    g.FillUniform(&rng, -1.0, 1.0);

    Matrix seed_out, kernel_out, scratch;
    double seed_s = MinSeconds(
        reps, [&] { seed_out = ReferenceMatMul(a, ReferenceTransposed(w)); });
    double kernel_s = MinSeconds(reps, [&] {
      gemm::MatMulNTInto(a, w, &kernel_out, nullptr, {}, &scratch);
    });
    rows.push_back({"nt", b, kFeatureDim, kHiddenDim, seed_s * 1e3,
                    kernel_s * 1e3, BitEqual(seed_out, kernel_out)});

    seed_s = MinSeconds(
        reps, [&] { seed_out = ReferenceMatMul(ReferenceTransposed(g), a); });
    kernel_s =
        MinSeconds(reps, [&] { gemm::MatMulTNInto(g, a, &kernel_out); });
    rows.push_back({"tn", kHiddenDim, b, kFeatureDim, seed_s * 1e3,
                    kernel_s * 1e3, BitEqual(seed_out, kernel_out)});

    seed_s = MinSeconds(reps, [&] { seed_out = ReferenceMatMul(g, w); });
    kernel_s =
        MinSeconds(reps, [&] { gemm::MatMulInto(g, w, &kernel_out); });
    rows.push_back({"nn", b, kHiddenDim, kFeatureDim, seed_s * 1e3,
                    kernel_s * 1e3, BitEqual(seed_out, kernel_out)});
  }
  for (const OpRow& r : rows) {
    std::printf("  %s %5zux%4zux%4zu  seed %9.3f ms  kernel %9.3f ms  "
                "%.2fx  biteq=%d\n",
                r.op, r.m, r.k, r.n, r.seed_ms, r.kernel_ms,
                r.seed_ms / r.kernel_ms, r.bit_identical);
  }

  // Whole networks, seed vs kernels, on real network dataflow (so the
  // seed's zero-skip sees genuine post-ReLU sparsity): the paper-scale
  // MLP forward+backward, and the two serving shapes every labelling
  // iteration runs — the Q network's loop-fused InferInto over a scoring
  // batch and one classifier training step at the M-step batch size.
  std::vector<NetRow> nets;
  nets.push_back(CompareForwardBackward("mlp_forward_backward",
                                        {kFeatureDim, kHiddenDim, kOutDim},
                                        max_batch, 1, &rng));
  nets.push_back(CompareInferInto("q_infer_into", {12, 64, 32, 1}, 4096,
                                  &rng));
  nets.push_back(CompareForwardBackward("classifier_forward_backward",
                                        {208, 16, 2}, 64, 2000, &rng));
  for (const NetRow& r : nets) {
    std::printf("  %-28s %s batch %5zu: seed %9.4f ms  kernel %9.4f ms  "
                "%.2fx  biteq=%d\n",
                r.op, SizesString(r.sizes).c_str(), r.batch, r.seed_ms,
                r.kernel_ms, r.seed_ms / r.kernel_ms, r.bit_identical);
  }
  const HeadRow head = MeasureFactorizedHead(2048, 200, &rng);
  const size_t head_pairs = head.objects * head.annotators;
  const double head_ns = head.ms * 1e6 / static_cast<double>(head_pairs);
  std::printf("  %-28s %zux%zu grid: %9.4f ms  %.1f ns/pair  biteq=%d\n",
              "factorized_head", head.objects, head.annotators, head.ms,
              head_ns, head.bit_identical);

  std::FILE* json = std::fopen(path.c_str(), "w");
  CROWDRL_CHECK(json != nullptr) << "cannot write " << path;
  std::fprintf(json, "{\n");
  bench::WriteBenchMeta(json, 1);
  std::fprintf(json,
               "  \"bench\": \"kernels\",\n"
               "  \"simd_tier\": \"%s\",\n"
               "  \"dims\": {\"in\": %zu, \"hidden\": %zu, \"out\": %zu},\n"
               "  \"gemm\": [\n",
               math::SimdTierName(math::ActiveSimdTier()), kFeatureDim,
               kHiddenDim, kOutDim);
  for (size_t i = 0; i < rows.size(); ++i) {
    const OpRow& r = rows[i];
    std::fprintf(json,
                 "    {\"op\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu, "
                 "\"seed_ms\": %.4f, \"kernel_ms\": %.4f, "
                 "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                 r.op, r.m, r.k, r.n, r.seed_ms, r.kernel_ms,
                 r.seed_ms / r.kernel_ms, r.bit_identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  for (size_t i = 0; i < nets.size(); ++i) {
    const NetRow& r = nets[i];
    std::fprintf(json,
                 "  \"%s\": {\"sizes\": %s, \"batch\": %zu, "
                 "\"seed_ms\": %.4f, \"kernel_ms\": %.4f, "
                 "\"speedup\": %.3f, \"bit_identical\": %s},\n",
                 r.op, SizesString(r.sizes).c_str(), r.batch, r.seed_ms,
                 r.kernel_ms, r.seed_ms / r.kernel_ms,
                 r.bit_identical ? "true" : "false");
  }
  std::fprintf(json,
               "  \"factorized_head\": {\"sizes\": [12, 64, 32, 1], "
               "\"objects\": %zu, \"annotators\": %zu, \"pairs\": %zu, "
               "\"threads\": 1, \"ms\": %.4f, \"ns_per_pair\": %.1f, "
               "\"bit_identical\": %s}\n",
               head.objects, head.annotators, head_pairs, head.ms, head_ns,
               head.bit_identical ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path.c_str());
}

// ---- BENCH_scoring.json: seed vs incremental scoring engine -------------

// The pre-ScoreCache featurizer, transcribed from the seed rl/state.cc and
// crowd/answer_log.cc (per-call histogram / fraction / probability-row
// allocations and all), so the "seed" timings reflect what the repo
// actually shipped before the incremental engine.
std::vector<int> SeedLabelHistogram(const crowd::AnswerLog& log, int object,
                                    int num_classes) {
  std::vector<int> histogram(static_cast<size_t>(num_classes), 0);
  for (const auto& [annotator, label] : log.AnswersFor(object)) {
    (void)annotator;
    ++histogram[static_cast<size_t>(label)];
  }
  return histogram;
}

void SeedFeaturize(const rl::StateView& view, int object, int annotator,
                   std::vector<double>* out) {
  out->assign(rl::StateFeaturizer::kFeatureDim, 0.0);
  size_t num_annotators = view.answers->num_annotators();
  double log_c = std::log(static_cast<double>(view.num_classes));

  std::vector<int> hist =
      SeedLabelHistogram(*view.answers, object, view.num_classes);
  int answer_count = 0;
  int top_votes = 0;
  for (int v : hist) {
    answer_count += v;
    top_votes = std::max(top_votes, v);
  }
  double answer_entropy = 0.0;
  if (answer_count > 0) {
    std::vector<double> frac(hist.size());
    for (size_t i = 0; i < hist.size(); ++i) {
      frac[i] = static_cast<double>(hist[i]) /
                static_cast<double>(answer_count);
    }
    answer_entropy = Entropy(frac) / log_c;
  }
  double agreement = answer_count > 0
                         ? static_cast<double>(top_votes) /
                               static_cast<double>(answer_count)
                         : 0.0;

  double cls_margin = 0.0;
  double cls_entropy = 1.0;
  if (view.class_probs != nullptr) {
    std::vector<double> probs =
        view.class_probs->RowVector(static_cast<size_t>(object));
    cls_margin = TopTwoGap(probs);
    cls_entropy = Entropy(probs) / log_c;
  }

  size_t j = static_cast<size_t>(annotator);
  double cost = (*view.annotator_costs)[j];
  double max_cost = view.max_cost > 0.0 ? view.max_cost : 1.0;
  double norm_cost = cost / max_cost;
  double quality = (*view.annotator_qualities)[j];
  double quality_per_cost = quality / (norm_cost + 0.1);
  double is_expert =
      view.annotator_is_expert != nullptr && (*view.annotator_is_expert)[j]
          ? 1.0
          : 0.0;

  (*out)[0] = 1.0;
  (*out)[1] = static_cast<double>(answer_count) /
              static_cast<double>(num_annotators);
  (*out)[2] = answer_entropy;
  (*out)[3] = agreement;
  (*out)[4] = cls_margin;
  (*out)[5] = cls_entropy;
  (*out)[6] = quality;
  (*out)[7] = norm_cost;
  (*out)[8] = quality_per_cost / 10.0;
  (*out)[9] = is_expert;
  (*out)[10] = view.budget_fraction_remaining;
  (*out)[11] = view.fraction_labelled;
}

uint64_t OrderedDoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (bits & (uint64_t{1} << 63)) ? ~bits : bits | (uint64_t{1} << 63);
}

uint64_t UlpDistance(double a, double b) {
  uint64_t ua = OrderedDoubleBits(a);
  uint64_t ub = OrderedDoubleBits(b);
  return ua > ub ? ua - ub : ub - ua;
}

// A paper-scale labelling run in steady state: every Mutate() applies one
// loop iteration's worth of state change — a handful of fresh answers, a
// class-probability refresh for every object (the inference step reruns
// each iteration), re-estimated annotator qualities, and decayed progress
// counters. Both scorers then featurize the same state, so the comparison
// is dirty-sync against full recompute, not first-build against rebuild.
struct ScoringScenario {
  size_t n, m;
  int num_classes;
  crowd::AnswerLog answers;
  std::vector<double> costs, qualities;
  std::vector<bool> is_expert, labelled;
  Matrix class_probs;
  size_t probs_version = 1;
  double budget_fraction = 0.9;
  double fraction_labelled = 0.0;
  std::vector<int> answers_per_object;
  size_t touch_cursor;
  Rng rng{4242};

  ScoringScenario(size_t objects, size_t annotators, int classes)
      : n(objects),
        m(annotators),
        num_classes(classes),
        answers(objects, annotators),
        class_probs(objects, static_cast<size_t>(classes)),
        answers_per_object(objects, 0),
        touch_cursor(objects / 4) {
    for (size_t j = 0; j < m; ++j) {
      is_expert.push_back(j % 8 == 7);
      costs.push_back(is_expert[j] ? 10.0 : 1.0);
      qualities.push_back(0.5 + 0.4 * rng.Uniform());
    }
    labelled.assign(n, false);
    // A quarter of the objects already carry one to three answers.
    for (size_t i = 0; i < n / 4; ++i) {
      int count = 1 + static_cast<int>(i % 3);
      for (int a = 0; a < count; ++a) {
        answers.Record(static_cast<int>(i), a, rng.UniformInt(num_classes));
      }
      answers_per_object[i] = count;
    }
    RefreshProbs();
  }

  void RefreshProbs() {
    for (size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      double* row = class_probs.Row(i);
      for (int c = 0; c < num_classes; ++c) {
        row[c] = 0.05 + rng.Uniform();
        sum += row[c];
      }
      for (int c = 0; c < num_classes; ++c) row[c] /= sum;
    }
    ++probs_version;
  }

  // Steady-state inference step: only the objects that received fresh
  // answers get their beliefs updated, and only a little — the regime of
  // a converging run, and the one the gate's drift bounds are built for
  // (a wholesale re-roll is legitimate drift too, it just forces full
  // rescoring every iteration).
  void NudgeProbsFor(const std::vector<size_t>& touched) {
    for (size_t i : touched) {
      double sum = 0.0;
      double* row = class_probs.Row(i);
      for (int c = 0; c < num_classes; ++c) {
        row[c] = std::max(0.01, row[c] + 0.01 * rng.Uniform(-1.0, 1.0));
        sum += row[c];
      }
      for (int c = 0; c < num_classes; ++c) row[c] /= sum;
    }
    ++probs_version;
  }

  void Mutate(bool steady = false) {
    std::vector<size_t> touched;
    for (int picks = 0; picks < 8; ++picks) {
      size_t object = touch_cursor;
      touch_cursor = (touch_cursor + 1) % n;
      if (answers_per_object[object] >= static_cast<int>(m)) continue;
      // The lowest annotator without an answer: the gated-selection row
      // also records the agent's picks, which can be any annotator.
      int next = 0;
      while (answers.HasAnswer(static_cast<int>(object), next)) ++next;
      answers.Record(static_cast<int>(object), next,
                     rng.UniformInt(num_classes));
      ++answers_per_object[object];
      touched.push_back(object);
    }
    if (steady) {
      // Quality re-estimates are periodic and small in steady state.
      if (++steady_ticks % 4 == 0) {
        for (size_t j = 0; j < m; ++j) {
          qualities[j] = std::min(
              0.95, std::max(0.05, qualities[j] + rng.Uniform(-0.002,
                                                              0.002)));
        }
      }
      NudgeProbsFor(touched);
    } else {
      for (size_t j = 0; j < m; ++j) {
        qualities[j] = std::min(0.95, std::max(0.05, qualities[j] +
                                                         rng.Uniform(-0.01,
                                                                     0.01)));
      }
      RefreshProbs();
    }
    budget_fraction *= 0.997;
    fraction_labelled = std::min(0.9, fraction_labelled + 0.002);
  }
  size_t steady_ticks = 0;

  rl::StateView View() const {
    rl::StateView view;
    view.answers = &answers;
    view.num_classes = num_classes;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.labelled = &labelled;
    view.class_probs = &class_probs;
    view.class_probs_version = probs_version;
    view.budget_fraction_remaining = budget_fraction;
    view.fraction_labelled = fraction_labelled;
    view.max_cost = 10.0;
    return view;
  }
};

struct StageTimes {
  double featurize_seed = 1e300, featurize_cached = 1e300;
  double forward_seed = 1e300, forward_cached = 1e300;
  double forward_factorized = 1e300;
  double topk_seed = 1e300, topk_cached = 1e300;
};

void WriteScoringReport(size_t objects, const std::string& path) {
  const size_t kAnnotators = 40;
  const int kClasses = 8;
  const int kIterations = 4;
  const int kTopK = 3;
  const int kObjectsToPick = 8;
  using Clock = std::chrono::steady_clock;
  auto secs = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  ScoringScenario sc(objects, kAnnotators, kClasses);
  const size_t pairs = sc.n * sc.m;
  std::printf("== scoring report (%zu objects x %zu annotators, %d classes, "
              "%zu pairs) ==\n",
              sc.n, sc.m, kClasses, pairs);

  // Every (object, annotator) pair is a candidate: nothing is labelled yet,
  // which matches the early-run grids where scoring cost peaks. The UCB
  // exploration bonus is identical in both paths and excluded.
  std::vector<rl::Action> actions(pairs);
  {
    size_t idx = 0;
    for (size_t i = 0; i < sc.n; ++i) {
      for (size_t j = 0; j < sc.m; ++j) {
        actions[idx++] = rl::Action{static_cast<int>(i),
                                    static_cast<int>(j)};
      }
    }
  }

  Matrix seed_features(pairs, rl::StateFeaturizer::kFeatureDim);
  Matrix cached_features(pairs, rl::StateFeaturizer::kFeatureDim);
  rl::ScoreCache cache;
  rl::QNetwork q{rl::QNetworkOptions()};
  cache.Sync(sc.View());  // First build is a full rebuild; untimed.

  StageTimes best;
  bool features_biteq = true;
  bool scores_biteq = true;
  bool topk_biteq = true;
  uint64_t max_ulps = 0;
  double max_abs_diff = 0.0;

  for (int iter = 0; iter < kIterations; ++iter) {
    sc.Mutate();
    const rl::StateView view = sc.View();

    // Stage 1: featurize every candidate pair. Seed path recomputes each
    // row from scratch; cached path dirty-syncs the block store and
    // assembles rows from it.
    auto t0 = Clock::now();
    {
      std::vector<double> row;
      size_t idx = 0;
      for (size_t i = 0; i < sc.n; ++i) {
        for (size_t j = 0; j < sc.m; ++j) {
          SeedFeaturize(view, static_cast<int>(i), static_cast<int>(j),
                        &row);
          std::memcpy(seed_features.Row(idx++), row.data(),
                      row.size() * sizeof(double));
        }
      }
    }
    best.featurize_seed = std::min(best.featurize_seed, secs(t0));

    t0 = Clock::now();
    {
      cache.Sync(view);
      size_t idx = 0;
      for (size_t i = 0; i < sc.n; ++i) {
        for (size_t j = 0; j < sc.m; ++j) {
          cache.AssembleRowInto(static_cast<int>(i), static_cast<int>(j),
                                cached_features.Row(idx++));
        }
      }
    }
    best.featurize_cached = std::min(best.featurize_cached, secs(t0));
    features_biteq =
        features_biteq &&
        std::memcmp(seed_features.data().data(),
                    cached_features.data().data(),
                    seed_features.size() * sizeof(double)) == 0;

    // Stage 2: the Q forward pass. Identical work on the exact path (the
    // cache changes how features are produced, not how they are scored);
    // both sides are timed on their own feature matrix.
    t0 = Clock::now();
    std::vector<double> seed_scores = q.PredictBatch(seed_features);
    best.forward_seed = std::min(best.forward_seed, secs(t0));

    t0 = Clock::now();
    std::vector<double> cached_scores = q.PredictBatch(cached_features);
    best.forward_cached = std::min(best.forward_cached, secs(t0));
    scores_biteq = scores_biteq &&
                   std::memcmp(seed_scores.data(), cached_scores.data(),
                               seed_scores.size() * sizeof(double)) == 0;

    // The factorized head (the agent's selection forward): same network,
    // block-decomposed first layer. Not bit-identical to the dense forward
    // by design (accumulation order changes), so it is tracked in ULPs.
    rl::FeatureBlocks blocks;
    blocks.object_blocks = &cache.object_blocks();
    blocks.annotator_blocks = &cache.annotator_blocks();
    blocks.global_block = cache.global_block();
    t0 = Clock::now();
    std::vector<double> fact_scores =
        q.PredictBatchFactorized(blocks, actions, false);
    best.forward_factorized = std::min(best.forward_factorized, secs(t0));
    for (size_t i = 0; i < fact_scores.size(); ++i) {
      max_ulps = std::max(max_ulps,
                          UlpDistance(cached_scores[i], fact_scores[i]));
      max_abs_diff = std::max(max_abs_diff,
                              std::abs(cached_scores[i] - fact_scores[i]));
    }

    // Stage 3: top-k-sum selection over the scored grid.
    rl::ScoredCandidates seed_cand, cached_cand;
    seed_cand.actions = actions;
    seed_cand.scores = std::move(seed_scores);
    cached_cand.actions = actions;
    cached_cand.scores = std::move(cached_scores);
    std::vector<size_t> seed_chosen, cached_chosen;
    t0 = Clock::now();
    std::vector<rl::Assignment> seed_asg = rl::PickTopKSumAssignments(
        seed_cand, kTopK, kObjectsToPick, sc.n, &seed_chosen);
    best.topk_seed = std::min(best.topk_seed, secs(t0));
    t0 = Clock::now();
    std::vector<rl::Assignment> cached_asg = rl::PickTopKSumAssignments(
        cached_cand, kTopK, kObjectsToPick, sc.n, &cached_chosen);
    best.topk_cached = std::min(best.topk_cached, secs(t0));
    topk_biteq = topk_biteq && seed_chosen == cached_chosen &&
                 seed_asg.size() == cached_asg.size();
    for (size_t i = 0; topk_biteq && i < seed_asg.size(); ++i) {
      topk_biteq = seed_asg[i].object == cached_asg[i].object &&
                   seed_asg[i].annotators == cached_asg[i].annotators;
    }
  }

  // ---- Gated (tiled) end-to-end selection -----------------------------
  // Two agents drive the same steady-drift run: full scoring through the
  // public API (incremental cache, the factorized head over every pair:
  // Score + PickTopKSumAssignments + Commit) and the gated SelectBatch
  // engine. The gate runs only on tiled grids, which by default start at
  // 2^22 pairs; untiled, SelectBatch is itself one full pass. So the gated
  // agent tiles this grid (hier_min_pairs = 0, kGateBucket-object buckets
  // x kGateGroup-annotator groups) and the row keeps timing the gate. Both
  // score on the head, whose rows do not depend on the batch they come
  // in, so exact scores agree bit for bit. Timed on selection end to end;
  // the selected assignments must be identical every iteration — the gate
  // falls back to full scoring whenever it cannot prove that.
  const int kPrunedIters = 10;
  const int kPrunedWarmup = 3;  // First pass + bound calibration.
  const size_t kGateBucket = 64;
  const size_t kGateGroup = 8;
  double best_base = 1e300;
  double best_pruned = 1e300;
  bool assignments_identical = true;
  ScoringScenario drift(objects, kAnnotators, kClasses);
  rl::DqnAgentOptions base_options;
  rl::DqnAgentOptions pruned_options;
  pruned_options.hier_min_pairs = 0;
  pruned_options.hier_object_bucket = kGateBucket;
  pruned_options.hier_annotator_group = kGateGroup;
  rl::DqnAgent base_agent(base_options);
  rl::DqnAgent pruned_agent(pruned_options);
  base_agent.BeginEpisode(drift.n, drift.m);
  pruned_agent.BeginEpisode(drift.n, drift.m);
  CROWDRL_CHECK(pruned_agent.HierEngaged());
  std::vector<bool> affordable(drift.m, true);
  for (int iter = 0; iter < kPrunedIters; ++iter) {
    drift.Mutate(/*steady=*/true);
    const rl::StateView view = drift.View();
    auto t0 = Clock::now();
    rl::ScoredCandidates base_cand = base_agent.Score(view, affordable);
    std::vector<size_t> base_chosen;
    std::vector<rl::Assignment> base_asg = rl::PickTopKSumAssignments(
        base_cand, kTopK, kObjectsToPick, drift.n, &base_chosen);
    base_agent.Commit(base_cand, base_chosen);
    double base_s = secs(t0);
    t0 = Clock::now();
    std::vector<rl::Assignment> pruned_asg =
        pruned_agent.SelectBatch(view, kTopK, kObjectsToPick, affordable);
    double pruned_s = secs(t0);
    if (iter >= kPrunedWarmup) {
      best_base = std::min(best_base, base_s);
      best_pruned = std::min(best_pruned, pruned_s);
    }
    assignments_identical =
        assignments_identical && base_asg.size() == pruned_asg.size();
    for (size_t i = 0;
         assignments_identical && i < base_asg.size(); ++i) {
      assignments_identical =
          base_asg[i].object == pruned_asg[i].object &&
          base_asg[i].annotators == pruned_asg[i].annotators;
    }
    // The world answers the selected assignments; the next iteration's
    // Mutate folds them into the drifting beliefs. Like the stage rows
    // above, the network itself is held fixed — this row isolates the
    // per-iteration scoring cost, not the training schedule.
    for (const rl::Assignment& assignment : base_asg) {
      for (int j : assignment.annotators) {
        if (drift.answers_per_object[assignment.object] >=
            static_cast<int>(drift.m)) {
          break;
        }
        drift.answers.Record(assignment.object, j,
                             drift.rng.UniformInt(kClasses));
        ++drift.answers_per_object[assignment.object];
      }
    }
  }
  const rl::ShortlistPruner::Stats& prune_stats =
      pruned_agent.shortlist_pruner().stats();
  double pruned_speedup = best_base / best_pruned;
  std::printf("  gated selection (tiled %zux%zu): base %.3f ms  gated "
              "%.3f ms  %.2fx  identical=%d  (pruned_iters=%zu "
              "gate_fallbacks=%zu exact_rows=%zu)\n",
              kGateBucket, kGateGroup, best_base * 1e3, best_pruned * 1e3,
              pruned_speedup, assignments_identical,
              prune_stats.pruned_iterations, prune_stats.gate_fallbacks,
              prune_stats.exact_rows);

  struct StageRow {
    const char* stage;
    double seed_ms, cached_ms;
    bool bit_identical;
  };
  const StageRow rows[] = {
      {"featurize", best.featurize_seed * 1e3, best.featurize_cached * 1e3,
       features_biteq},
      {"q_forward", best.forward_seed * 1e3, best.forward_cached * 1e3,
       scores_biteq},
      {"topk", best.topk_seed * 1e3, best.topk_cached * 1e3, topk_biteq},
  };
  for (const StageRow& r : rows) {
    std::printf("  %-10s seed %8.3f ms  cached %8.3f ms  %5.2fx  biteq=%d\n",
                r.stage, r.seed_ms, r.cached_ms, r.seed_ms / r.cached_ms,
                r.bit_identical);
  }
  // The scoring engine is what this PR replaces: per-iteration candidate
  // featurization. The composite also counts the (unchanged) Q forward and
  // top-k, so it is forward-bound and its speedup is necessarily modest.
  double engine_speedup = best.featurize_seed / best.featurize_cached;
  double iter_seed =
      best.featurize_seed + best.forward_seed + best.topk_seed;
  double iter_cached =
      best.featurize_cached + best.forward_cached + best.topk_cached;
  double iter_fact =
      best.featurize_cached + best.forward_factorized + best.topk_cached;
  bool all_biteq = features_biteq && scores_biteq && topk_biteq;
  std::printf("  scoring engine (featurize): %.2fx  biteq=%d\n",
              engine_speedup, features_biteq);
  std::printf("  per-iteration exact: seed %.3f ms  cached %.3f ms  %.2fx  "
              "biteq=%d\n",
              iter_seed * 1e3, iter_cached * 1e3, iter_seed / iter_cached,
              all_biteq);
  std::printf("  per-iteration factorized: %.3f ms  %.2fx  max_ulps=%llu\n",
              iter_fact * 1e3, iter_seed / iter_fact,
              static_cast<unsigned long long>(max_ulps));

  std::FILE* json = std::fopen(path.c_str(), "w");
  CROWDRL_CHECK(json != nullptr) << "cannot write " << path;
  std::fprintf(json, "{\n");
  bench::WriteBenchMeta(json, 1);
  std::fprintf(json,
               "  \"bench\": \"scoring\",\n"
               "  \"simd_tier\": \"%s\",\n"
               "  \"dims\": {\"objects\": %zu, \"annotators\": %zu, "
               "\"classes\": %d, \"pairs\": %zu, \"feature_dim\": %zu},\n"
               "  \"stages\": [\n",
               math::SimdTierName(math::ActiveSimdTier()), sc.n, sc.m,
               kClasses, pairs,
               static_cast<size_t>(rl::StateFeaturizer::kFeatureDim));
  const size_t num_rows = sizeof(rows) / sizeof(rows[0]);
  for (size_t i = 0; i < num_rows; ++i) {
    const StageRow& r = rows[i];
    std::fprintf(json,
                 "    {\"stage\": \"%s\", \"seed_ms\": %.4f, "
                 "\"cached_ms\": %.4f, \"speedup\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 r.stage, r.seed_ms, r.cached_ms, r.seed_ms / r.cached_ms,
                 r.bit_identical ? "true" : "false",
                 i + 1 < num_rows ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"scoring_engine\": {\"seed_ms\": %.4f, "
               "\"cached_ms\": %.4f, \"speedup\": %.3f, "
               "\"bit_identical\": %s},\n",
               best.featurize_seed * 1e3, best.featurize_cached * 1e3,
               engine_speedup, features_biteq ? "true" : "false");
  std::fprintf(json,
               "  \"per_iteration_exact\": {\"seed_ms\": %.4f, "
               "\"cached_ms\": %.4f, \"speedup\": %.3f, "
               "\"bit_identical\": %s},\n",
               iter_seed * 1e3, iter_cached * 1e3, iter_seed / iter_cached,
               all_biteq ? "true" : "false");
  std::fprintf(json,
               "  \"factorized_q_head\": {\"exact_forward_ms\": %.4f, "
               "\"factorized_forward_ms\": %.4f, \"forward_speedup\": %.3f, "
               "\"per_iteration_ms\": %.4f, \"per_iteration_speedup\": "
               "%.3f, \"max_ulps\": %llu, \"max_abs_diff\": %.3e},\n",
               best.forward_cached * 1e3, best.forward_factorized * 1e3,
               best.forward_cached / best.forward_factorized,
               iter_fact * 1e3, iter_seed / iter_fact,
               static_cast<unsigned long long>(max_ulps), max_abs_diff);
  std::fprintf(json,
               "  \"pruned_selection\": {\"tiled\": true, "
               "\"object_bucket\": %zu, \"annotator_group\": %zu, "
               "\"baseline_ms\": %.4f, "
               "\"pruned_ms\": %.4f, \"speedup\": %.3f, "
               "\"assignments_identical\": %s, "
               "\"pruned_iterations\": %zu, \"full_iterations\": %zu, "
               "\"gate_fallbacks\": %zu, \"precheck_fallbacks\": %zu, "
               "\"exact_rows\": %zu}\n"
               "}\n",
               kGateBucket, kGateGroup, best_base * 1e3, best_pruned * 1e3,
               pruned_speedup,
               assignments_identical ? "true" : "false",
               prune_stats.pruned_iterations, prune_stats.full_iterations,
               prune_stats.gate_fallbacks, prune_stats.precheck_fallbacks,
               prune_stats.exact_rows);
  std::fclose(json);
  std::printf("wrote %s\n", path.c_str());
}

// ---- BENCH_obs.json: observability hook overhead ------------------------

// The loop floor every hook figure is net of.
void EmptyLoop(size_t n) {
  for (size_t i = 0; i < n; ++i) benchmark::DoNotOptimize(i);
}

// ns per op of `fn`, net of the empty loop, by paired passes: each of
// kPairs rounds times one empty-loop pass and one `fn` pass of `iters`
// calls back to back, alternating which runs first, and the figure is
// the median of the per-round differences. A clock ramp or a busy
// neighbour hits both halves of a round alike, and a one-off stall lands
// in a tail the median ignores; a floor timed once up front, or the best
// of a few passes per op, lets either decide a 1 ns verdict. The loop
// body must not be removable: every measured op either mutates an atomic
// or is pinned with DoNotOptimize. Each floor pass is appended to
// `floor_ns` when given.
template <typename Fn>
double NetNsPerOp(size_t iters, Fn&& fn,
                  std::vector<double>* floor_ns = nullptr) {
  constexpr size_t kPairs = 21;
  auto pass_ns = [iters](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body(iters);
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count() / static_cast<double>(iters);
  };
  fn(iters / 16 + 1);  // Warm the branch predictors and caches.
  EmptyLoop(iters / 16 + 1);
  std::vector<double> net(kPairs);
  for (size_t p = 0; p < kPairs; ++p) {
    double floor = 0.0;
    double raw = 0.0;
    if (p % 2 == 0) {
      floor = pass_ns(EmptyLoop);
      raw = pass_ns(fn);
    } else {
      raw = pass_ns(fn);
      floor = pass_ns(EmptyLoop);
    }
    net[p] = raw - floor;
    if (floor_ns != nullptr) floor_ns->push_back(floor);
  }
  std::nth_element(net.begin(), net.begin() + kPairs / 2, net.end());
  return std::max(0.0, net[kPairs / 2]);
}

struct ObsOpRow {
  const char* op;
  double enabled_ns;   // Net of the empty-loop baseline.
  double disabled_ns;  // Net of the empty-loop baseline.
};

// Measures the three hook kinds with metrics (and, for spans, tracing)
// globally enabled and disabled. The "compiled-out" row of the report is
// the empty-loop baseline itself: with -DCROWDRL_OBS_BUILD=0 every hook
// expands to nothing, so its cost *is* the loop floor, and the net figure
// is zero by construction.
void WriteObsReport(const std::string& path) {
  const bool prior_enabled = obs::Enabled();
  const bool prior_tracing = obs::TracingEnabled();

  obs::Counter* counter = obs::MetricsRegistry::Get().GetCounter(
      "crowdrl.bench.obs_overhead_counter");
  obs::Histogram* histogram = obs::MetricsRegistry::Get().GetHistogram(
      "crowdrl.bench.obs_overhead_histogram");

  // Disabled hooks cost about a cycle, so their passes are long; enabled
  // ones cost 5-100 ns, so shorter passes take as long. An enabled span
  // takes two steady_clock reads plus a buffer append; keep its passes
  // under the recorder's per-thread cap and clear between them.
  const size_t kDisabledIters = size_t{1} << 22;
  const size_t kEnabledIters = size_t{1} << 18;
  const size_t kSpanIters = size_t{1} << 16;

  auto counter_loop = [counter](size_t n) {
    for (size_t i = 0; i < n; ++i) counter->Inc();
    benchmark::DoNotOptimize(counter->value());
  };
  auto histogram_loop = [histogram](size_t n) {
    // Varying values keep the bucket search honest.
    for (size_t i = 0; i < n; ++i) histogram->Record(i & 127);
    benchmark::DoNotOptimize(histogram->sum());
  };
  auto span_loop = [](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      CROWDRL_TRACE_SPAN("bench.obs_overhead");
      benchmark::DoNotOptimize(i);
    }
  };
  auto event_loop = [](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      obs::RecordFlightEvent(obs::FlightEventType::kCheckpoint, 0, i);
    }
    benchmark::DoNotOptimize(obs::FlightRecorder::Get().total_appended());
  };

  obs::SetEnabled(false);
  obs::SetTracing(false);
  CROWDRL_CHECK(!obs::Enabled());
  std::vector<double> floor_passes;
  const double counter_off =
      NetNsPerOp(kDisabledIters, counter_loop, &floor_passes);
  const double histogram_off =
      NetNsPerOp(kDisabledIters, histogram_loop, &floor_passes);
  const double span_off =
      NetNsPerOp(kDisabledIters, span_loop, &floor_passes);
  const double event_off =
      NetNsPerOp(kDisabledIters, event_loop, &floor_passes);
  std::nth_element(floor_passes.begin(),
                   floor_passes.begin() + floor_passes.size() / 2,
                   floor_passes.end());
  const double baseline_ns = floor_passes[floor_passes.size() / 2];

  obs::SetEnabled(true);
  obs::SetTracing(true);
  obs::FlightRecorder::Get().Configure(size_t{1} << 16);
  const double counter_on = NetNsPerOp(kEnabledIters, counter_loop);
  const double histogram_on = NetNsPerOp(kEnabledIters, histogram_loop);
  const double event_on = NetNsPerOp(kEnabledIters, event_loop);
  obs::TraceRecorder::Get().Clear();
  const double span_on = NetNsPerOp(kSpanIters, [&](size_t n) {
    obs::TraceRecorder::Get().Clear();  // Stay under the buffer cap.
    span_loop(n);
  });
  obs::TraceRecorder::Get().Clear();

  obs::FlightRecorder::Get().ResetForTesting();
  obs::SetEnabled(prior_enabled);
  obs::SetTracing(prior_tracing);

  const ObsOpRow rows[] = {
      {"counter_inc", counter_on, counter_off},
      {"histogram_record", histogram_on, histogram_off},
      {"span_enter_exit", span_on, span_off},
      {"event_append", event_on, event_off},
  };
  // DESIGN.md §10/§15 budget: enabled counter increments stay under
  // 25 ns, enabled flight-recorder appends under 75 ns (a clock read plus
  // a wait-free ring write), and every disabled hook under 1 ns (all net
  // of the loop floor).
  const double kEnabledCounterBudgetNs = 25.0;
  const double kEnabledEventAppendBudgetNs = 75.0;
  const double kDisabledBudgetNs = 1.0;
  bool within_budget = rows[0].enabled_ns <= kEnabledCounterBudgetNs &&
                       rows[3].enabled_ns <= kEnabledEventAppendBudgetNs;
  for (const ObsOpRow& r : rows) {
    within_budget = within_budget && r.disabled_ns <= kDisabledBudgetNs;
  }

  std::printf("== obs overhead report (baseline loop %.3f ns/op) ==\n",
              baseline_ns);
  for (const ObsOpRow& r : rows) {
    std::printf("  %-16s enabled %8.3f ns/op  disabled %8.3f ns/op  "
                "compiled-out 0.000\n",
                r.op, r.enabled_ns, r.disabled_ns);
  }
  std::printf("  within budget (counter<=%.0fns enabled, <=%.0fns "
              "disabled): %s\n",
              kEnabledCounterBudgetNs, kDisabledBudgetNs,
              within_budget ? "yes" : "NO");

  std::FILE* json = std::fopen(path.c_str(), "w");
  CROWDRL_CHECK(json != nullptr) << "cannot write " << path;
  std::fprintf(json, "{\n");
  bench::WriteBenchMeta(json, 1);
  std::fprintf(json,
               "  \"bench\": \"obs_overhead\",\n"
               "  \"baseline_loop_ns\": %.4f,\n"
               "  \"ops\": [\n",
               baseline_ns);
  const size_t num_rows = sizeof(rows) / sizeof(rows[0]);
  for (size_t i = 0; i < num_rows; ++i) {
    const ObsOpRow& r = rows[i];
    std::fprintf(json,
                 "    {\"op\": \"%s\", \"enabled_ns\": %.4f, "
                 "\"disabled_ns\": %.4f, \"compiled_out_ns\": 0.0}%s\n",
                 r.op, r.enabled_ns, r.disabled_ns,
                 i + 1 < num_rows ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"budget\": {\"counter_inc_enabled_max_ns\": %.1f, "
               "\"event_append_enabled_max_ns\": %.1f, "
               "\"disabled_max_ns\": %.1f, \"within_budget\": %s}\n"
               "}\n",
               kEnabledCounterBudgetNs, kEnabledEventAppendBudgetNs,
               kDisabledBudgetNs, within_budget ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace crowdrl

int main(int argc, char** argv) {
  size_t kernels_batch = 4096;
  std::string kernels_json = "BENCH_kernels.json";
  size_t scoring_objects = 2048;
  std::string scoring_json = "BENCH_scoring.json";
  std::string obs_json = "BENCH_obs.json";
  // Strip the report flags before google-benchmark parses argv.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--kernels_batch=", 16) == 0) {
      kernels_batch = static_cast<size_t>(std::atoll(argv[i] + 16));
      CROWDRL_CHECK(kernels_batch > 0);
    } else if (std::strncmp(argv[i], "--kernels_json=", 15) == 0) {
      kernels_json = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--scoring_objects=", 18) == 0) {
      scoring_objects = static_cast<size_t>(std::atoll(argv[i] + 18));
      CROWDRL_CHECK(scoring_objects >= 64);
    } else if (std::strncmp(argv[i], "--scoring_json=", 15) == 0) {
      scoring_json = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--obs_overhead_json=", 20) == 0) {
      obs_json = argv[i] + 20;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  crowdrl::WriteKernelReport(kernels_batch, kernels_json);
  crowdrl::WriteScoringReport(scoring_objects, scoring_json);
  crowdrl::WriteObsReport(obs_json);
  return 0;
}
