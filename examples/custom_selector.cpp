// Plugging selection strategies into the AL loop: compares uncertainty
// sampling against Partition-2 and BADGE on one dataset (the Sec. 4.7
// experiment in miniature), demonstrating the selector API surface.
//
// Usage: custom_selector [--dataset=amazon_google] [--scale=smoke] [--rounds=2]

#include <cstdio>

#include "core/experiment.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "amazon_google", "dataset name");
  std::string* scale_text = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* rounds = flags.AddInt("rounds", 2, "active learning rounds");
  flags.Parse(argc, argv);
  const auto scale = dial::util::CheckFlag(dial::data::ParseScale(*scale_text));

  dial::core::Experiment exp = dial::core::PrepareExperiment(
      *dataset, dial::core::DefaultExperimentConfig(scale));

  const dial::core::SelectorKind kSelectors[] = {
      dial::core::SelectorKind::kUncertainty,
      dial::core::SelectorKind::kPartition2,
      dial::core::SelectorKind::kBadge,
  };
  std::printf("%-14s %-10s %-10s %-10s\n", "selector", "pos found", "cand_rec",
              "ap_F1");
  for (const auto selector : kSelectors) {
    dial::core::AlConfig al = dial::core::DefaultAlConfig(scale, 31);
    al.rounds = static_cast<size_t>(*rounds);
    al.selector = selector;
    dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab,
                                        exp.pretrained.get(), al);
    const dial::core::AlResult result = loop.Run();
    const auto& last = result.rounds.back();
    std::printf("%-14s %-10zu %-10.3f %-10.3f\n",
                dial::core::SelectorName(selector).c_str(), last.positives_in_t,
                last.cand_recall, last.allpairs_prf.f1);
  }
  return 0;
}
