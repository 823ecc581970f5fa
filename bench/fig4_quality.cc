// Figure 4: labelling quality (Precision / Recall / F1) of the six
// end-to-end frameworks on the seven dataset variants at equal budget.
//
// Paper shape: CrowdRL best everywhere (5-20% over baselines on speech),
// OBA worst, IDLE below DLTA, Hybrid best among baselines, and the
// concatenated views (S12CP, S3CP) beating the single views.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using crowdrl::bench::BenchConfig;
  using crowdrl::bench::Workload;

  BenchConfig config = crowdrl::bench::ParseArgs(argc, argv);
  crowdrl::bench::PrintBanner("Figure 4: quality at equal budget", config);

  const std::vector<std::string> variants = {"S12C", "S12P", "S12CP",
                                             "S3C",  "S3P",  "S3CP",
                                             "Fashion"};
  auto frameworks = crowdrl::bench::MakeAllFrameworks(
      crowdrl::bench::PretrainCrowdRl(config), &config);

  struct MetricTable {
    const char* title;
    crowdrl::Table table;
  };
  std::vector<std::string> header = {"method"};
  header.insert(header.end(), variants.begin(), variants.end());
  MetricTable tables[3] = {{"Precision", crowdrl::Table(header)},
                           {"Recall", crowdrl::Table(header)},
                           {"F1", crowdrl::Table(header)}};

  // One workload per variant, shared across frameworks (equal budget and
  // identical pools — the comparison the paper makes).
  std::vector<Workload> workloads;
  workloads.reserve(variants.size());
  for (const std::string& name : variants) {
    workloads.push_back(crowdrl::bench::MakeWorkload(name, config));
  }

  for (auto& framework : frameworks) {
    std::vector<double> precision, recall, f1;
    for (const Workload& workload : workloads) {
      auto outcome =
          crowdrl::bench::RunCell(framework.get(), workload, config);
      precision.push_back(outcome.mean.precision);
      recall.push_back(outcome.mean.recall);
      f1.push_back(outcome.mean.f1);
      std::fflush(stdout);
    }
    tables[0].table.AddRow(framework->name(), precision);
    tables[1].table.AddRow(framework->name(), recall);
    tables[2].table.AddRow(framework->name(), f1);
  }

  for (const MetricTable& t : tables) {
    std::printf("-- %s --\n", t.title);
    t.table.Print(std::cout);
    std::printf("\n");
  }
  crowdrl::bench::WriteTraceOut(config);
  return 0;
}
