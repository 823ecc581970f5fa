#include "core/run_state.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/enrichment.h"
#include "core/reward.h"
#include "math/vector_ops.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/state.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace crowdrl::core {

namespace {

/// Run-loop metrics (Algorithm 1 stage counters plus the inference
/// gauges). Fetched once per process; registration before the first
/// iteration guarantees every per-iteration JSONL record carries these
/// keys.
struct FrameworkMetrics {
  obs::Counter* iterations;
  obs::Counter* objects_selected;
  obs::Counter* assignments_executed;
  obs::Counter* enrichment_labels;
  obs::Counter* em_iterations;
  obs::Gauge* log_likelihood;
  obs::Gauge* budget_remaining;

  FrameworkMetrics() {
    auto& registry = obs::MetricsRegistry::Get();
    iterations = registry.GetCounter("crowdrl.framework.iterations");
    objects_selected =
        registry.GetCounter("crowdrl.framework.objects_selected");
    assignments_executed =
        registry.GetCounter("crowdrl.framework.assignments_executed");
    enrichment_labels =
        registry.GetCounter("crowdrl.framework.enrichment_labels");
    em_iterations = registry.GetCounter("crowdrl.framework.em_iterations");
    log_likelihood = registry.GetGauge("crowdrl.framework.log_likelihood");
    budget_remaining =
        registry.GetGauge("crowdrl.framework.budget_remaining");
  }
};

FrameworkMetrics& FwMetrics() {
  static FrameworkMetrics* const metrics = new FrameworkMetrics();
  return *metrics;
}

// Groups candidate indices by object id; returns (object, indices) pairs.
std::vector<std::pair<int, std::vector<size_t>>> GroupByObject(
    const rl::ScoredCandidates& candidates, size_t num_objects) {
  std::vector<int> slot(num_objects, -1);
  std::vector<std::pair<int, std::vector<size_t>>> groups;
  for (size_t idx = 0; idx < candidates.actions.size(); ++idx) {
    int object = candidates.actions[idx].object;
    int s = slot[static_cast<size_t>(object)];
    if (s < 0) {
      s = static_cast<int>(groups.size());
      slot[static_cast<size_t>(object)] = s;
      groups.emplace_back(object, std::vector<size_t>());
    }
    groups[static_cast<size_t>(s)].second.push_back(idx);
  }
  return groups;
}

// Takes the k best-scoring candidate indices of one group.
std::vector<size_t> TopKOfGroup(const rl::ScoredCandidates& candidates,
                                const std::vector<size_t>& group, int k) {
  std::vector<size_t> sorted = group;
  std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
    return candidates.scores[a] > candidates.scores[b];
  });
  if (sorted.size() > static_cast<size_t>(k)) {
    sorted.resize(static_cast<size_t>(k));
  }
  return sorted;
}

// Takes k random candidate indices of one group.
std::vector<size_t> RandomKOfGroup(const std::vector<size_t>& group, int k,
                                   Rng* rng) {
  std::vector<int> picks = rng->SampleWithoutReplacement(
      static_cast<int>(group.size()),
      std::min<int>(k, static_cast<int>(group.size())));
  std::vector<size_t> out;
  out.reserve(picks.size());
  for (int p : picks) out.push_back(group[static_cast<size_t>(p)]);
  return out;
}

std::vector<rl::Assignment> BuildAssignments(
    const rl::ScoredCandidates& candidates,
    const std::vector<std::pair<int, std::vector<size_t>>>& groups,
    const std::vector<size_t>& group_order, int batch, int k,
    bool random_annotators, Rng* rng, std::vector<size_t>* chosen) {
  std::vector<rl::Assignment> assignments;
  for (size_t rank = 0;
       rank < group_order.size() &&
       assignments.size() < static_cast<size_t>(batch);
       ++rank) {
    const auto& [object, indices] = groups[group_order[rank]];
    std::vector<size_t> picked =
        random_annotators ? RandomKOfGroup(indices, k, rng)
                          : TopKOfGroup(candidates, indices, k);
    rl::Assignment assignment;
    assignment.object = object;
    for (size_t idx : picked) {
      assignment.annotators.push_back(candidates.actions[idx].annotator);
      chosen->push_back(idx);
    }
    assignments.push_back(std::move(assignment));
  }
  return assignments;
}

// M1 (and M1+M2): objects chosen uniformly at random.
std::vector<rl::Assignment> PickRandomObjects(
    const rl::ScoredCandidates& candidates, int k, int batch,
    size_t num_objects, bool random_annotators, Rng* rng,
    std::vector<size_t>* chosen) {
  auto groups = GroupByObject(candidates, num_objects);
  if (groups.empty()) return {};
  std::vector<size_t> order(groups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);
  return BuildAssignments(candidates, groups, order, batch, k,
                          random_annotators, rng, chosen);
}

// M2: objects chosen by the learned top-k-sum criterion, annotators random.
std::vector<rl::Assignment> PickTopObjectsRandomAnnotators(
    const rl::ScoredCandidates& candidates, int k, int batch,
    size_t num_objects, Rng* rng, std::vector<size_t>* chosen) {
  auto groups = GroupByObject(candidates, num_objects);
  if (groups.empty()) return {};
  std::vector<std::pair<double, size_t>> sums;
  sums.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    double sum = 0.0;
    for (size_t idx : TopKOfGroup(candidates, groups[g].second, k)) {
      sum += candidates.scores[idx];
    }
    sums.emplace_back(sum, g);
  }
  std::sort(sums.begin(), sums.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<size_t> order;
  order.reserve(sums.size());
  for (const auto& [sum, g] : sums) order.push_back(g);
  return BuildAssignments(candidates, groups, order, batch, k,
                          /*random_annotators=*/true, rng, chosen);
}

// Objects selected per iteration: the configured value, or the |O|-scaled
// default.
int ResolveBatchObjects(const CrowdRlConfig& config, size_t n) {
  if (config.batch_objects != 0) return config.batch_objects;
  return std::clamp(static_cast<int>(n) / 32, 4, 12);
}

classifier::MlpClassifierOptions MakeClassifierOptions(
    const CrowdRlConfig& config, uint64_t seed) {
  classifier::MlpClassifierOptions options = config.classifier;
  options.seed = seed;
  return options;
}

rl::DqnAgentOptions MakeAgentOptions(const CrowdRlConfig& config,
                                     uint64_t seed) {
  rl::DqnAgentOptions options = config.agent;
  options.seed = seed;
  options.q.feature_dim = rl::StateFeaturizer::kFeatureDim;
  return options;
}

// Folds an inference outcome into the live state: labels for the inferred
// objects, annotator qualities, log-likelihood (+ gauges) and phi's class
// posteriors, moved in. The caller has already put the phi that
// `class_probs` came from in place; bumping class_probs_version is the
// revision barrier for the agent's ScoreCache.
void FoldInference(const inference::InferenceResult& inferred,
                   const std::vector<int>& objects, Matrix class_probs,
                   RunState* rs) {
  FrameworkMetrics& fw = FwMetrics();
  for (size_t row = 0; row < objects.size(); ++row) {
    rs->state.SetLabel(objects[row], inferred.labels[row],
                       LabelSource::kInference);
  }
  rs->qualities = inferred.qualities;
  rs->last_log_likelihood = inferred.log_likelihood;
  fw.em_iterations->Inc(static_cast<uint64_t>(inferred.iterations));
  fw.log_likelihood->Set(inferred.log_likelihood);
  rs->class_probs = std::move(class_probs);
  rs->have_probs = rs->phi.is_trained();
  ++rs->class_probs_version;
}

// The one truth-inference step behind RunInferenceSync and
// ExecuteInferenceJob, which differ only in where the inputs live: infer
// the truths (PM inference over the objects' answers, or the joint model,
// which retrains `phi` in place), fit the PM ablation's `phi` on the hard
// labels (Algorithm 1 line 5), and predict `phi`'s posteriors over every
// object into `class_probs`. All of it is a pure function of the inputs
// and `phi`, so a TI job runs it off the pump thread and leaves the pump
// a swap. Both inference classes hold nothing but their options, so each
// call builds its own.
Status InferFitPredict(const crowd::AnswerLog& answers,
                       const std::vector<int>& objects,
                       const Matrix& features,
                       const std::vector<crowd::AnnotatorType>& types,
                       int num_classes, bool use_pm,
                       const inference::JointInferenceOptions& joint_options,
                       const inference::PmOptions& pm_options,
                       classifier::MlpClassifier* phi,
                       inference::InferenceResult* result,
                       Matrix* class_probs) {
  inference::InferenceInput input;
  input.answers = &answers;
  input.num_classes = num_classes;
  input.objects = objects;
  input.features = &features;
  input.annotator_types = &types;
  if (use_pm) {
    CROWDRL_RETURN_IF_ERROR(
        inference::PmInference(pm_options).Infer(input, result));
    Matrix train_y(objects.size(), static_cast<size_t>(num_classes));
    for (size_t row = 0; row < objects.size(); ++row) {
      train_y.At(row, static_cast<size_t>(result->labels[row])) = 1.0;
    }
    CROWDRL_RETURN_IF_ERROR(phi->TrainRows(features, objects, train_y, {}));
  } else {
    input.classifier = phi;
    CROWDRL_RETURN_IF_ERROR(
        inference::JointInference(joint_options).Infer(input, result));
  }
  *class_probs = phi->PredictProbsBatch(features);
  return Status::Ok();
}

}  // namespace

RunState::RunState(const CrowdRlConfig* config_in,
                   const data::Dataset* dataset_in,
                   const std::vector<crowd::Annotator>* pool_in,
                   double budget_in, uint64_t seed_in)
    : config(config_in),
      dataset(dataset_in),
      pool(pool_in),
      n(dataset_in->num_objects()),
      num_classes(dataset_in->num_classes),
      num_annotators(pool_in->size()),
      budget(budget_in),
      seed(seed_in),
      batch_objects(ResolveBatchObjects(*config_in, n)),
      env(dataset_in, pool_in, budget_in, Rng(seed_in).Fork(1).seed()),
      state(n, num_classes),
      phi(dataset_in->feature_dim(), num_classes,
          MakeClassifierOptions(*config_in, Rng(seed_in).Fork(2).seed())),
      agent(MakeAgentOptions(*config_in, Rng(seed_in).Fork(3).seed())),
      local(Rng(seed_in).Fork(4)) {
  agent.BeginEpisode(n, num_annotators);
  if (!config->pretrained_q_params.empty()) {
    agent.q_network().SetFlatParameters(config->pretrained_q_params);
  }
  types.reserve(num_annotators);
  is_expert.reserve(num_annotators);
  for (const crowd::Annotator& a : *pool) {
    types.push_back(a.type());
    is_expert.push_back(a.is_expert());
  }
  // Zero-knowledge prior quality tr(uniform)/|C| = 1/|C|.
  qualities.assign(num_annotators, 1.0 / static_cast<double>(num_classes));
}

Status RunState::Bootstrap() {
  if (bootstrapped) return Status::Ok();
  CROWDRL_TRACE_SPAN("framework.bootstrap");
  size_t bootstrap_count = static_cast<size_t>(
      std::llround(config->alpha * static_cast<double>(n)));
  bootstrap_count = std::clamp<size_t>(bootstrap_count, 1, n);
  std::vector<int> bootstrap = local.SampleWithoutReplacement(
      static_cast<int>(n), static_cast<int>(bootstrap_count));
  for (int object : bootstrap) {
    std::vector<int> ids(static_cast<int>(num_annotators));
    for (size_t j = 0; j < num_annotators; ++j) {
      ids[j] = static_cast<int>(j);
    }
    local.Shuffle(&ids);
    int asked = 0;
    for (int j : ids) {
      if (asked >= config->k) break;
      Status s = env.RequestAnswer(object, j);
      if (s.IsOutOfBudget()) continue;  // Try a cheaper annotator.
      CROWDRL_RETURN_IF_ERROR(s);
      ++asked;
    }
    if (asked == 0) break;  // Budget exhausted mid-bootstrap.
  }
  CROWDRL_RETURN_IF_ERROR(RunInferenceSync());
  bootstrapped = true;
  return Status::Ok();
}

void RunState::PlanIteration(const std::vector<bool>* connected,
                             bool observe_pending, IterationPlan* plan) {
  CROWDRL_CHECK(plan != nullptr);
  *plan = IterationPlan();
  if (next_t >= config->max_iterations) {
    // Iteration cap: the batch loop's `for (t ...)` condition exits here
    // before any stage runs; pending rewards are observed by the driver
    // via ObserveFinalPending.
    plan->stop = true;
    return;
  }
  CROWDRL_TRACE_SPAN("framework.iteration");
  plan->t = next_t;
  plan->ran = true;
  FrameworkMetrics& fw = FwMetrics();

  plan->unlabelled_before = n - state.num_labelled();
  {
    CROWDRL_TRACE_SPAN("framework.enrich");
    // class_probs is phi's batch prediction; every change to phi refreshes
    // it (FoldInference, ApplyRestore).
    CROWDRL_CHECK(have_probs == phi.is_trained());
    plan->enriched = EnrichLabelledSet(have_probs ? &class_probs : nullptr,
                                       config->enrichment, &state);
  }
  fw.enrichment_labels->Inc(plan->enriched);

  std::vector<bool> affordable = env.AffordableAnnotators();
  if (connected != nullptr) {
    CROWDRL_CHECK(connected->size() == affordable.size());
    for (size_t j = 0; j < affordable.size(); ++j) {
      affordable[j] = affordable[j] && (*connected)[j];
    }
  }
  // The view references live members (labelled mask, class_probs) and is
  // built before refinement so the observation below sees refinement's
  // effect through those references, exactly as the batch loop did.
  rl::StateView view = MakeView();
  bool terminal = state.AllLabelled() || !env.AnyAffordable();
  if (terminal && state.AllLabelled() && env.AnyAffordable() &&
      config->refine_with_leftover_budget && have_probs) {
    // Refinement: reopen the labelled objects phi is least sure about
    // and spend the leftover budget on additional human answers for
    // them (existing answers are kept; inference re-aggregates).
    std::vector<std::pair<double, int>> reopenable;
    for (size_t i = 0; i < n; ++i) {
      int object = static_cast<int>(i);
      bool has_valid_pair = false;
      for (size_t j = 0; j < num_annotators; ++j) {
        if (affordable[j] &&
            !env.answers().HasAnswer(object, static_cast<int>(j))) {
          has_valid_pair = true;
          break;
        }
      }
      if (!has_valid_pair) continue;
      reopenable.emplace_back(TopTwoGap(class_probs.RowVector(i)), object);
    }
    std::sort(reopenable.begin(), reopenable.end());
    size_t reopen = std::min<size_t>(
        reopenable.size(), static_cast<size_t>(config->refine_batch));
    for (size_t r = 0; r < reopen; ++r) {
      state.ClearLabel(reopenable[r].second);
    }
    if (reopen > 0) terminal = false;
  }
  if (has_pending && observe_pending) {
    // The shared r_phi term becomes observable only now: it counts the
    // enrichment enabled by the classifier the action caused to be
    // retrained.
    double shared = SharedEnrichmentReward(config->reward, plan->enriched,
                                           plan->unlabelled_before);
    std::vector<double> rewards = pending_pair_rewards;
    for (double& r : rewards) r += shared;
    agent.ObservePerPair(rewards, view, affordable, terminal);
    has_pending = false;
  }
  if (terminal) {
    plan->stop = true;
    plan->affordable = std::move(affordable);
    return;
  }
  ++iterations;
  fw.iterations->Inc();

  // Task selection + assignment (joint policy, or the M1/M2 ablations).
  {
    CROWDRL_TRACE_SPAN("framework.select_assign");
    if (!config->random_task_selection && !config->random_task_assignment) {
      plan->assignments =
          agent.SelectBatch(view, config->k, batch_objects, affordable);
    } else {
      rl::ScoredCandidates candidates = agent.Score(view, affordable);
      std::vector<size_t> chosen;
      if (config->random_task_selection) {
        plan->assignments = PickRandomObjects(
            candidates, config->k, batch_objects, n,
            /*random_annotators=*/config->random_task_assignment, &local,
            &chosen);
      } else {
        plan->assignments = PickTopObjectsRandomAnnotators(
            candidates, config->k, batch_objects, n, &local, &chosen);
      }
      agent.Commit(candidates, chosen);
    }
  }
  fw.objects_selected->Inc(plan->assignments.size());
  plan->affordable = std::move(affordable);
  if (plan->assignments.empty()) {
    plan->stop = true;
    return;
  }
  for (const rl::Assignment& assignment : plan->assignments) {
    for (int annotator : assignment.annotators) {
      plan->pairs.emplace_back(assignment.object, annotator);
    }
  }
}

Status RunState::ExecutePair(int object, int annotator, bool* executed,
                             bool* out_of_budget) {
  CROWDRL_CHECK(executed != nullptr && out_of_budget != nullptr);
  *executed = false;
  *out_of_budget = false;
  Status s = env.RequestAnswer(object, annotator);
  if (s.IsOutOfBudget()) {
    *out_of_budget = true;
    return Status::Ok();
  }
  CROWDRL_RETURN_IF_ERROR(s);
  *executed = true;
  FwMetrics().assignments_executed->Inc();
  return Status::Ok();
}

std::vector<double> RunState::ComputePairRewards(
    const std::vector<std::pair<int, int>>& pairs,
    const std::vector<bool>& executed) const {
  CROWDRL_CHECK(executed.size() == pairs.size());
  std::vector<double> rewards(pairs.size(), 0.0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (!executed[p]) continue;  // Never paid: no signal.
    auto [object, annotator] = pairs[p];
    bool agreed =
        env.answers().Answer(object, annotator) == state.label(object);
    rewards[p] =
        PairReward(config->reward, agreed,
                   env.costs()[static_cast<size_t>(annotator)],
                   env.max_cost());
  }
  return rewards;
}

Status RunState::FinishIteration(const IterationPlan& plan,
                                 const std::vector<bool>& executed) {
  CROWDRL_RETURN_IF_ERROR(RunInferenceSync());
  // Per-pair reward components, now that the inferred truths are known.
  pending_pair_rewards = ComputePairRewards(plan.pairs, executed);
  has_pending = true;
  AdvanceIteration(plan, executed);
  return Status::Ok();
}

void RunState::AdvanceIteration(const IterationPlan& plan,
                                const std::vector<bool>& executed) {
  CROWDRL_CHECK(executed.size() == plan.pairs.size());
  for (size_t p = 0; p < plan.pairs.size(); ++p) {
    assignment_log.push_back(AssignmentRecord{plan.t, plan.pairs[p].first,
                                              plan.pairs[p].second,
                                              executed[p]});
  }
  // End of iteration t: everything live is inside this RunState, so this
  // is the consistent cut point for periodic checkpoints and simulated
  // crashes.
  next_t = plan.t + 1;
  FwMetrics().budget_remaining->Set(env.budget().remaining());
}

void RunState::ObserveFinalPending() {
  if (!has_pending) return;
  // Loop left via the iteration cap or an empty candidate set.
  agent.ObservePerPair(pending_pair_rewards, MakeView(),
                       env.AffordableAnnotators(), /*terminal=*/true);
  has_pending = false;
}

Status RunState::Finalize(LabellingResult* result) {
  CROWDRL_CHECK(result != nullptr);
  // Every object must carry a label. Classifier-sourced labels are
  // re-rated with the *final* phi: it has been retrained by every
  // joint-inference round since those objects were first enriched, so its
  // current prediction strictly dominates the snapshot that enriched
  // them. phi cannot change after the last fold, so class_probs is that
  // prediction.
  CROWDRL_CHECK(have_probs == phi.is_trained());
  const size_t classes = static_cast<size_t>(num_classes);
  if (have_probs) {
    for (size_t i = 0; i < n; ++i) {
      int object = static_cast<int>(i);
      if (state.IsLabelled(object) &&
          state.source(object) == LabelSource::kClassifier) {
        state.SetLabel(object,
                       static_cast<int>(Argmax(class_probs.Row(i), classes)),
                       LabelSource::kClassifier);
      }
    }
  }
  for (int object : state.UnlabelledObjects()) {
    int label = 0;
    if (have_probs) {
      label = static_cast<int>(
          Argmax(class_probs.Row(static_cast<size_t>(object)), classes));
    }
    state.SetLabel(object, label, LabelSource::kFallback);
  }

  state.ExportTo(result);
  result->budget_spent = env.budget().spent();
  result->iterations = iterations;
  result->human_answers = env.human_answers();
  result->final_annotator_qualities = qualities;
  result->final_log_likelihood = last_log_likelihood;
  return Status::Ok();
}

Status RunState::RunInferenceSync() {
  CROWDRL_TRACE_SPAN("framework.inference");
  std::vector<int> objects = env.AnsweredObjects();
  if (objects.empty()) return Status::Ok();
  inference::InferenceResult inferred;
  Matrix probs;
  CROWDRL_RETURN_IF_ERROR(InferFitPredict(
      env.answers(), objects, dataset->features, types, num_classes,
      config->use_pm_inference, config->joint, config->pm, &phi, &inferred,
      &probs));
  FoldInference(inferred, objects, std::move(probs), this);
  return Status::Ok();
}

void RunState::SnapshotInference(TruthInferenceJob* job) const {
  CROWDRL_CHECK(job != nullptr);
  // AnswerLog and MlpClassifier are plain-vector value types: the copy IS
  // the copy-on-write snapshot, taken while no answer is being committed.
  job->answers = std::make_unique<crowd::AnswerLog>(env.answers());
  job->objects = env.AnsweredObjects();
  job->phi = std::make_unique<classifier::MlpClassifier>(phi);
  job->types = types;
  job->features = &dataset->features;
  job->num_classes = num_classes;
  job->use_pm = config->use_pm_inference;
  job->joint_options = config->joint;
  job->pm_options = config->pm;
  job->base_revision = env.answers_revision();
  job->result = inference::InferenceResult();
  job->class_probs = Matrix();
  job->status = Status::Ok();
}

void RunState::ExecuteInferenceJob(TruthInferenceJob* job) {
  CROWDRL_CHECK(job != nullptr);
  CROWDRL_TRACE_SPAN("serve.inference_job");
  if (job->objects.empty()) {
    job->status = Status::Ok();
    return;
  }
  job->status = InferFitPredict(*job->answers, job->objects, *job->features,
                                job->types, job->num_classes, job->use_pm,
                                job->joint_options, job->pm_options,
                                job->phi.get(), &job->result,
                                &job->class_probs);
}

Status RunState::ApplyInference(TruthInferenceJob* job) {
  CROWDRL_CHECK(job != nullptr);
  CROWDRL_RETURN_IF_ERROR(job->status);
  if (job->objects.empty()) return Status::Ok();
  // The job already retrained phi and predicted its posteriors, so this is
  // a swap: moves plus the version bump inside FoldInference, on the pump
  // thread between selections, which makes that bump a clean revision
  // barrier.
  phi = std::move(*job->phi);
  FoldInference(job->result, job->objects, std::move(job->class_probs),
                this);
  return Status::Ok();
}

rl::StateView RunState::MakeView() const {
  rl::StateView view;
  view.answers = &env.answers();
  view.num_classes = num_classes;
  view.annotator_costs = &env.costs();
  view.annotator_qualities = &qualities;
  view.annotator_is_expert = &is_expert;
  view.class_probs = have_probs ? &class_probs : nullptr;
  view.class_probs_version = have_probs ? class_probs_version : 0;
  view.labelled = &state.labelled_mask();
  view.budget_fraction_remaining =
      budget > 0.0 ? env.budget().remaining() / budget : 0.0;
  view.fraction_labelled = state.fraction_labelled();
  view.max_cost = env.max_cost();
  return view;
}

Status RunState::WriteSnapshot(const std::string& path) const {
  io::SnapshotStreamWriter writer;
  CROWDRL_RETURN_IF_ERROR(writer.Open(path, /*section_count=*/6));
  io::Writer meta;
  meta.WriteSize(n);
  meta.WriteI32(num_classes);
  meta.WriteSize(num_annotators);
  meta.WriteDouble(budget);
  meta.WriteU64(seed);
  meta.WriteBool(bootstrapped);
  meta.WriteSize(next_t);
  meta.WriteSize(iterations);
  meta.WriteBool(has_pending);
  meta.WriteDoubleVector(pending_pair_rewards);
  meta.WriteBool(have_probs);
  meta.WriteDouble(last_log_likelihood);
  meta.WriteDoubleVector(qualities);
  CROWDRL_RETURN_IF_ERROR(writer.AppendSection("meta", meta));
  auto append = [&writer](const char* name, const auto& component) {
    io::Writer payload;
    component.SaveState(&payload);
    return writer.AppendSection(name, payload);
  };
  CROWDRL_RETURN_IF_ERROR(append("env", env));
  CROWDRL_RETURN_IF_ERROR(append("labels", state));
  CROWDRL_RETURN_IF_ERROR(append("phi", phi));
  CROWDRL_RETURN_IF_ERROR(append("agent", agent));
  io::Writer rng;
  rng.WriteString(local.SaveStateString());
  CROWDRL_RETURN_IF_ERROR(writer.AppendSection("rng", rng));
  return writer.Close();
}

Status RunState::ApplyRestore(const io::SnapshotStreamReader& snapshot) {
  std::string buffer;
  io::Reader meta;
  CROWDRL_RETURN_IF_ERROR(snapshot.ReadSection("meta", &buffer, &meta));
  size_t meta_n = 0;
  int32_t meta_classes = 0;
  size_t meta_annotators = 0;
  double meta_budget = 0.0;
  uint64_t meta_seed = 0;
  CROWDRL_RETURN_IF_ERROR(meta.ReadSize(&meta_n));
  CROWDRL_RETURN_IF_ERROR(meta.ReadI32(&meta_classes));
  CROWDRL_RETURN_IF_ERROR(meta.ReadSize(&meta_annotators));
  CROWDRL_RETURN_IF_ERROR(meta.ReadDouble(&meta_budget));
  CROWDRL_RETURN_IF_ERROR(meta.ReadU64(&meta_seed));
  if (meta_n != n || meta_classes != num_classes ||
      meta_annotators != num_annotators || meta_budget != budget ||
      meta_seed != seed) {
    return Status::InvalidArgument(StringPrintf(
        "checkpoint was taken from a different run (checkpoint: %zu objects, "
        "%d classes, %zu annotators, budget %.3f, seed %llu; this run: %zu, "
        "%d, %zu, %.3f, %llu)",
        meta_n, static_cast<int>(meta_classes), meta_annotators, meta_budget,
        static_cast<unsigned long long>(meta_seed), n, num_classes,
        num_annotators, budget, static_cast<unsigned long long>(seed)));
  }
  CROWDRL_RETURN_IF_ERROR(meta.ReadBool(&bootstrapped));
  CROWDRL_RETURN_IF_ERROR(meta.ReadSize(&next_t));
  CROWDRL_RETURN_IF_ERROR(meta.ReadSize(&iterations));
  CROWDRL_RETURN_IF_ERROR(meta.ReadBool(&has_pending));
  CROWDRL_RETURN_IF_ERROR(meta.ReadDoubleVector(&pending_pair_rewards));
  CROWDRL_RETURN_IF_ERROR(meta.ReadBool(&have_probs));
  CROWDRL_RETURN_IF_ERROR(meta.ReadDouble(&last_log_likelihood));
  CROWDRL_RETURN_IF_ERROR(meta.ReadDoubleVector(&qualities));
  if (qualities.size() != num_annotators) {
    return Status::DataLoss("quality vector does not match the pool size");
  }
  CROWDRL_RETURN_IF_ERROR(meta.ExpectEnd());

  // The agent already began this run's episode, so its LoadState rejects
  // a checkpointed shape other than (n, num_annotators).
  auto load = [&](const char* name, auto& component) -> Status {
    io::Reader section;
    CROWDRL_RETURN_IF_ERROR(snapshot.ReadSection(name, &buffer, &section));
    CROWDRL_RETURN_IF_ERROR(component.LoadState(&section));
    return section.ExpectEnd();
  };
  CROWDRL_RETURN_IF_ERROR(load("env", env));
  CROWDRL_RETURN_IF_ERROR(load("labels", state));
  CROWDRL_RETURN_IF_ERROR(load("phi", phi));
  CROWDRL_RETURN_IF_ERROR(load("agent", agent));
  io::Reader section;
  CROWDRL_RETURN_IF_ERROR(snapshot.ReadSection("rng", &buffer, &section));
  std::string rng_state;
  CROWDRL_RETURN_IF_ERROR(section.ReadString(&rng_state));
  CROWDRL_RETURN_IF_ERROR(local.LoadStateString(rng_state));
  CROWDRL_RETURN_IF_ERROR(section.ExpectEnd());

  // class_probs is a pure function of the restored phi, and is valid
  // exactly when phi is trained (enrichment and Finalize rely on it).
  if (have_probs != phi.is_trained()) {
    return Status::DataLoss(
        "checkpoint's class-probability flag disagrees with its classifier");
  }
  if (have_probs) {
    class_probs = phi.PredictProbsBatch(env.dataset().features);
    ++class_probs_version;
  }
  return Status::Ok();
}

Status RunState::MaybeCheckpoint() const {
  if (config->checkpoint_dir.empty() ||
      config->checkpoint_every_n_iterations == 0 ||
      iterations % config->checkpoint_every_n_iterations != 0) {
    return Status::Ok();
  }
  return WriteCheckpointNow();
}

Status RunState::WriteCheckpointNow() const {
  if (config->checkpoint_dir.empty()) return Status::Ok();
  obs::RecordFlightEvent(obs::FlightEventType::kCheckpoint, /*scope=*/0,
                         static_cast<uint64_t>(iterations));
  return io::WriteCheckpointRotating(
      config->checkpoint_dir, iterations, config->checkpoint_keep_last,
      [this](const std::string& path) { return WriteSnapshot(path); });
}

Status ValidateRunInputs(const CrowdRlConfig& config,
                         const data::Dataset& dataset,
                         const std::vector<crowd::Annotator>& pool,
                         double budget) {
  if (pool.empty()) return Status::InvalidArgument("empty annotator pool");
  if (dataset.num_objects() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  if (budget < 0.0) return Status::InvalidArgument("negative budget");
  if (config.alpha <= 0.0 || config.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (config.k <= 0 || config.batch_objects < 0) {
    return Status::InvalidArgument("k and batch_objects must be positive");
  }
  return Status::Ok();
}

Status MaybeResumeFromCheckpointDir(RunState* rs) {
  CROWDRL_CHECK(rs != nullptr);
  if (!rs->config->resume || rs->config->checkpoint_dir.empty()) {
    return Status::Ok();
  }
  std::string latest;
  Status found = io::FindLatestCheckpoint(rs->config->checkpoint_dir,
                                          &latest);
  if (found.IsNotFound()) return Status::Ok();
  CROWDRL_RETURN_IF_ERROR(found);
  io::SnapshotStreamReader snapshot;
  CROWDRL_RETURN_IF_ERROR(snapshot.Open(latest));
  return rs->ApplyRestore(snapshot);
}

}  // namespace crowdrl::core
