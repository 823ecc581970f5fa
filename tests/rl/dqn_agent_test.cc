#include "rl/dqn_agent.h"

#include <set>

#include <gtest/gtest.h>

namespace crowdrl::rl {
namespace {

struct AgentFixture {
  crowd::AnswerLog answers{4, 3};
  std::vector<double> costs = {1.0, 1.0, 10.0};
  std::vector<double> qualities = {0.6, 0.7, 0.95};
  std::vector<bool> is_expert = {false, false, true};
  std::vector<bool> labelled = {false, false, false, false};
  std::vector<bool> affordable = {true, true, true};

  StateView View() {
    StateView view;
    view.answers = &answers;
    view.num_classes = 2;
    view.annotator_costs = &costs;
    view.annotator_qualities = &qualities;
    view.annotator_is_expert = &is_expert;
    view.labelled = &labelled;
    view.budget_fraction_remaining = 1.0;
    view.fraction_labelled = 0.0;
    view.max_cost = 10.0;
    return view;
  }

  DqnAgent MakeAgent(ExplorationMode mode = ExplorationMode::kUcb) {
    DqnAgentOptions options;
    options.exploration = mode;
    options.seed = 13;
    DqnAgent agent(options);
    agent.BeginEpisode(4, 3);
    return agent;
  }
};

TEST(DqnAgentTest, ScoreEnumeratesAllValidPairs) {
  AgentFixture f;
  DqnAgent agent = f.MakeAgent();
  ScoredCandidates c = agent.Score(f.View(), f.affordable);
  EXPECT_EQ(c.actions.size(), 12u);  // 4 objects x 3 annotators.
  EXPECT_EQ(c.scores.size(), 12u);
  EXPECT_EQ(c.features.rows(), 12u);
}

TEST(DqnAgentTest, LabelledObjectsAreMasked) {
  AgentFixture f;
  f.labelled[1] = true;
  DqnAgent agent = f.MakeAgent();
  ScoredCandidates c = agent.Score(f.View(), f.affordable);
  EXPECT_EQ(c.actions.size(), 9u);
  for (const Action& a : c.actions) EXPECT_NE(a.object, 1);
}

TEST(DqnAgentTest, AnsweredPairsAreMasked) {
  AgentFixture f;
  f.answers.Record(2, 1, 0);
  DqnAgent agent = f.MakeAgent();
  ScoredCandidates c = agent.Score(f.View(), f.affordable);
  EXPECT_EQ(c.actions.size(), 11u);
  for (const Action& a : c.actions) {
    EXPECT_FALSE(a.object == 2 && a.annotator == 1);
  }
}

TEST(DqnAgentTest, UnaffordableAnnotatorsAreMasked) {
  AgentFixture f;
  f.affordable[2] = false;
  DqnAgent agent = f.MakeAgent();
  ScoredCandidates c = agent.Score(f.View(), f.affordable);
  EXPECT_EQ(c.actions.size(), 8u);
  for (const Action& a : c.actions) EXPECT_NE(a.annotator, 2);
}

TEST(DqnAgentTest, SelectBatchAssignsKAnnotatorsPerObject) {
  AgentFixture f;
  DqnAgent agent = f.MakeAgent();
  std::vector<Assignment> batch =
      agent.SelectBatch(f.View(), 2, 3, f.affordable);
  ASSERT_EQ(batch.size(), 3u);
  std::set<int> objects;
  for (const Assignment& a : batch) {
    EXPECT_EQ(a.annotators.size(), 2u);
    objects.insert(a.object);
    std::set<int> distinct(a.annotators.begin(), a.annotators.end());
    EXPECT_EQ(distinct.size(), a.annotators.size());
  }
  EXPECT_EQ(objects.size(), 3u);
  EXPECT_EQ(agent.pending_transitions(), 6u);
}

TEST(DqnAgentTest, SelectBatchWithNoCandidatesReturnsEmpty) {
  AgentFixture f;
  f.labelled.assign(4, true);
  DqnAgent agent = f.MakeAgent();
  EXPECT_TRUE(agent.SelectBatch(f.View(), 2, 3, f.affordable).empty());
  EXPECT_EQ(agent.pending_transitions(), 0u);
}

TEST(DqnAgentTest, ObserveDrainsPendingIntoReplay) {
  AgentFixture f;
  DqnAgent agent = f.MakeAgent();
  agent.SelectBatch(f.View(), 2, 2, f.affordable);
  size_t pending = agent.pending_transitions();
  EXPECT_GT(pending, 0u);
  agent.Observe(1.0, f.View(), f.affordable, /*terminal=*/false);
  EXPECT_EQ(agent.pending_transitions(), 0u);
  EXPECT_EQ(agent.replay().size(), pending);
}

TEST(DqnAgentTest, ObservePerPairRequiresMatchingSize) {
  AgentFixture f;
  DqnAgent agent = f.MakeAgent();
  agent.SelectBatch(f.View(), 1, 1, f.affordable);
  EXPECT_DEATH(
      agent.ObservePerPair({1.0, 2.0}, f.View(), f.affordable, false),
      "one reward per pending pair");
}

TEST(DqnAgentTest, UcbSpreadsSelectionsAcrossPairs) {
  AgentFixture f;
  DqnAgent agent = f.MakeAgent(ExplorationMode::kUcb);
  // Repeatedly select 1 object / 1 annotator without recording answers:
  // the UCB bonus must rotate through different pairs.
  std::set<std::pair<int, int>> chosen;
  for (int round = 0; round < 12; ++round) {
    std::vector<Assignment> batch =
        agent.SelectBatch(f.View(), 1, 1, f.affordable);
    ASSERT_EQ(batch.size(), 1u);
    chosen.insert({batch[0].object, batch[0].annotators[0]});
    agent.Observe(0.0, f.View(), f.affordable, false);
  }
  EXPECT_GE(chosen.size(), 6u);
}

// Below hier_min_pairs SelectBatch is one exact full pass: it never
// touches the gated engine's pruner, and on the factorized head it
// assembles no candidate feature rows — only the committed pairs' pending
// rows.
TEST(DqnAgentTest, UntiledSelectionNeverTouchesThePruner) {
  AgentFixture f;
  DqnAgent agent = f.MakeAgent();
  ASSERT_FALSE(agent.HierEngaged());
  for (int round = 0; round < 4; ++round) {
    std::vector<Assignment> batch =
        agent.SelectBatch(f.View(), 1, 2, f.affordable);
    ASSERT_EQ(batch.size(), 2u);
    f.answers.Record(batch[0].object, batch[0].annotators[0], 0);
    agent.Observe(0.5, f.View(), f.affordable, /*terminal=*/false);
  }
  const ShortlistPruner::Stats& stats = agent.shortlist_pruner().stats();
  EXPECT_EQ(stats.pruned_iterations + stats.full_iterations, 0u);
  EXPECT_EQ(agent.rows_featurized(), 0u);
  EXPECT_EQ(agent.hier_stats().iterations, 0u);
}

TEST(DqnAgentTest, EpsilonDecays) {
  AgentFixture f;
  DqnAgentOptions options;
  options.exploration = ExplorationMode::kEpsilonGreedy;
  options.epsilon = 0.5;
  options.epsilon_decay = 0.5;
  options.epsilon_min = 0.1;
  options.seed = 3;
  DqnAgent agent(options);
  agent.BeginEpisode(4, 3);
  for (int i = 0; i < 10; ++i) {
    agent.Score(f.View(), f.affordable);
  }
  EXPECT_DOUBLE_EQ(agent.current_epsilon(), 0.1);
}

TEST(DqnAgentDeathTest, ScoreBeforeBeginEpisodeAborts) {
  AgentFixture f;
  DqnAgentOptions options;
  DqnAgent agent(options);
  EXPECT_DEATH(agent.Score(f.View(), f.affordable), "BeginEpisode");
}

TEST(PickTopKSumAssignmentsTest, PicksHighestSums) {
  ScoredCandidates c;
  // Two objects; object 0 has scores {5, 1}, object 1 has {3, 3}.
  c.actions = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  c.features = Matrix(4, 1);
  c.scores = {5.0, 1.0, 3.0, 3.0};
  std::vector<size_t> chosen;
  std::vector<Assignment> out =
      PickTopKSumAssignments(c, /*k=*/2, /*num_objects_to_pick=*/1, 2,
                             &chosen);
  ASSERT_EQ(out.size(), 1u);
  // Sum for object 0 = 6, object 1 = 6; tie resolves deterministically —
  // either is acceptable, but exactly one object with 2 annotators.
  EXPECT_EQ(out[0].annotators.size(), 2u);
  EXPECT_EQ(chosen.size(), 2u);
}

TEST(PickTopKSumAssignmentsTest, KOneIsArgmaxPerObject) {
  ScoredCandidates c;
  c.actions = {{0, 0}, {0, 1}, {1, 0}};
  c.features = Matrix(3, 1);
  c.scores = {1.0, 9.0, 5.0};
  std::vector<size_t> chosen;
  std::vector<Assignment> out = PickTopKSumAssignments(c, 1, 2, 2, &chosen);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].object, 0);  // Score 9 beats 5.
  EXPECT_EQ(out[0].annotators[0], 1);
  EXPECT_EQ(out[1].object, 1);
  EXPECT_EQ(out[1].annotators[0], 0);
}

}  // namespace
}  // namespace crowdrl::rl
