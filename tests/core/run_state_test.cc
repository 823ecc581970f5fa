// RunState's two truth-inference paths: the synchronous step the batch
// loop and synchronous campaigns run, and the snapshot job asynchronous
// campaigns run on a TI lane and fold back with ApplyInference. Both call
// one infer -> fit -> predict step, so from the same state they must
// leave bit-identical labels, qualities, log-likelihood, phi and
// class_probs, with one class_probs_version bump each.

#include "core/run_state.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/crowdrl.h"
#include "io/serializer.h"

namespace crowdrl::core {
namespace {

constexpr double kBudget = 500.0;
constexpr uint64_t kSeed = 9;

struct Workload {
  data::Dataset dataset;
  std::vector<crowd::Annotator> pool;

  Workload() {
    data::GaussianMixtureOptions options;
    options.num_objects = 150;
    options.view = {10, 2.6, 0.5};
    options.seed = 3;
    dataset = data::MakeGaussianMixture(options);
    crowd::PoolOptions pool_options;
    pool_options.num_workers = 3;
    pool_options.num_experts = 2;
    pool_options.seed = 4;
    pool = crowd::MakePool(pool_options);
  }
};

template <typename T>
std::string StateBytes(const T& component) {
  io::Writer writer;
  component.SaveState(&writer);
  return writer.bytes();
}

std::string DoubleBytes(const std::vector<double>& values) {
  io::Writer writer;
  writer.WriteDoubleVector(values);
  return writer.bytes();
}

// Bootstraps `rs` and logs the same extra answers on every RunState built
// from the same inputs: the environment samples them from its seeded
// stream, so the answer logs agree.
void BootstrapAndAnswerMore(RunState* rs) {
  ASSERT_TRUE(rs->Bootstrap().ok());
  for (int object = 0; object < 60; ++object) {
    const int annotator = object % static_cast<int>(rs->num_annotators);
    if (rs->env.answers().HasAnswer(object, annotator)) continue;
    Status s = rs->env.RequestAnswer(object, annotator);
    ASSERT_TRUE(s.ok() || s.IsOutOfBudget()) << s.ToString();
  }
}

class InferenceJobTest : public ::testing::TestWithParam<bool> {};

TEST_P(InferenceJobTest, JobOnAnotherThreadMatchesSyncBitwise) {
  const Workload w;
  CrowdRlConfig config;
  config.use_pm_inference = GetParam();
  RunState sync(&config, &w.dataset, &w.pool, kBudget, kSeed);
  RunState async(&config, &w.dataset, &w.pool, kBudget, kSeed);
  BootstrapAndAnswerMore(&sync);
  BootstrapAndAnswerMore(&async);
  ASSERT_EQ(StateBytes(sync.env), StateBytes(async.env));
  ASSERT_GT(sync.env.answers_revision(), 0u);
  const size_t version = sync.class_probs_version;
  ASSERT_EQ(async.class_probs_version, version);

  ASSERT_TRUE(sync.RunInferenceSync().ok());

  TruthInferenceJob job;
  async.SnapshotInference(&job);
  EXPECT_EQ(job.base_revision, async.env.answers_revision());
  std::thread lane([&job] { RunState::ExecuteInferenceJob(&job); });
  lane.join();
  ASSERT_TRUE(job.status.ok()) << job.status.ToString();
  // Nothing of the live state moved while the job ran.
  EXPECT_EQ(async.class_probs_version, version);
  ASSERT_TRUE(async.ApplyInference(&job).ok());

  EXPECT_EQ(sync.class_probs_version, version + 1);
  EXPECT_EQ(async.class_probs_version, version + 1);
  EXPECT_TRUE(async.have_probs);
  EXPECT_EQ(async.have_probs, sync.have_probs);
  EXPECT_EQ(StateBytes(async.state), StateBytes(sync.state));
  EXPECT_EQ(DoubleBytes(async.qualities), DoubleBytes(sync.qualities));
  EXPECT_EQ(std::bit_cast<uint64_t>(async.last_log_likelihood),
            std::bit_cast<uint64_t>(sync.last_log_likelihood));
  EXPECT_EQ(StateBytes(async.phi), StateBytes(sync.phi));
  EXPECT_EQ(StateBytes(async.class_probs), StateBytes(sync.class_probs));
  // And the posteriors are the folded phi's own prediction.
  EXPECT_EQ(StateBytes(async.class_probs),
            StateBytes(async.phi.PredictProbsBatch(w.dataset.features)));
}

INSTANTIATE_TEST_SUITE_P(Models, InferenceJobTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Pm" : "Joint";
                         });

}  // namespace
}  // namespace crowdrl::core
