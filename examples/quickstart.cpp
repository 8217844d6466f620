// Quickstart: run DIAL end to end on a product-matching dataset.
//
// Demonstrates the whole public API surface in ~40 lines:
//   1. generate (or bring) two record lists with gold labels,
//   2. train a subword vocab + MLM-pretrain the TPLM on the unlabeled corpus,
//   3. run the integrated matcher-blocker active-learning loop,
//   4. read per-round metrics.
//
// Usage: quickstart [--dataset=walmart_amazon] [--scale=smoke] [--rounds=2]

#include <cstdio>

#include "core/experiment.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "walmart_amazon", "dataset name");
  std::string* scale = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* rounds = flags.AddInt("rounds", 2, "active learning rounds");
  int64_t* seed = flags.AddInt("seed", 7, "experiment seed");
  int64_t* matcher_epochs = flags.AddInt("matcher-epochs", 0, "override matcher epochs");
  int64_t* blocker_epochs = flags.AddInt("blocker-epochs", 0, "override blocker epochs");
  int64_t* seed_per_class = flags.AddInt("seed-per-class", 0, "override seed size");
  int64_t* budget = flags.AddInt("budget", 0, "override per-round label budget");
  flags.Parse(argc, argv);

  // 1-2. Dataset + pretrained model (cached on disk after the first run).
  dial::core::ExperimentConfig exp_config;
  exp_config.scale = dial::util::CheckFlag(dial::data::ParseScale(*scale));
  dial::core::Experiment exp = dial::core::PrepareExperiment(*dataset, exp_config);
  const auto stats = dial::data::ComputeStats(exp.bundle);
  std::printf("dataset %s: |R|=%zu |S|=%zu |dups|=%zu |Dtest|=%zu\n",
              stats.name.c_str(), stats.r_size, stats.s_size, stats.num_dups,
              stats.test_size);

  // 3. DIAL active learning loop.
  dial::core::AlConfig al = dial::core::DefaultAlConfig(exp_config.scale,
                                                        static_cast<uint64_t>(*seed));
  al.rounds = static_cast<size_t>(*rounds);
  if (*matcher_epochs > 0) al.matcher.epochs = static_cast<size_t>(*matcher_epochs);
  if (*blocker_epochs > 0) al.blocker.epochs = static_cast<size_t>(*blocker_epochs);
  if (*seed_per_class > 0) al.seed_per_class = static_cast<size_t>(*seed_per_class);
  if (*budget > 0) al.budget_per_round = static_cast<size_t>(*budget);
  dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(),
                                      al);
  dial::core::AlResult result = loop.Run();

  // 4. Report.
  std::printf("\n%-6s %-8s %-10s %-8s %-8s %-8s\n", "round", "|T|", "cand_rec",
              "test_F1", "ap_F1", "sec");
  for (const auto& r : result.rounds) {
    std::printf("%-6zu %-8zu %-10.3f %-8.3f %-8.3f %-8.1f\n", r.round, r.labels_in_t,
                r.cand_recall, r.test_prf.f1, r.allpairs_prf.f1,
                r.t_train_matcher + r.t_train_committee + r.t_index_retrieve +
                    r.t_select);
  }
  std::printf("\nfinal: cand recall %.3f | test F1 %.3f | all-pairs F1 %.3f | "
              "block+match %.2fs | labels used %zu\n",
              result.final_cand_recall, result.final_test.f1,
              result.final_allpairs.f1, result.block_match_seconds,
              result.labels_used);
  return 0;
}
