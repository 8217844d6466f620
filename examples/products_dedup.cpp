// Product-catalog deduplication: the paper's motivating scenario. Runs the
// full DIAL loop on a Walmart/Amazon-style pair of catalogs and prints the
// highest-confidence duplicate pairs with their records, the way an analyst
// would consume the output.
//
// Usage: products_dedup [--scale=smoke] [--rounds=3] [--top=10]

#include <algorithm>
#include <cstdio>

#include "core/encodings.h"
#include "core/experiment.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* scale_text = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* rounds = flags.AddInt("rounds", 3, "active learning rounds");
  int64_t* top = flags.AddInt("top", 10, "matches to print");
  flags.Parse(argc, argv);
  const auto scale = dial::util::CheckFlag(dial::data::ParseScale(*scale_text));

  dial::core::Experiment exp = dial::core::PrepareExperiment(
      "walmart_amazon", dial::core::DefaultExperimentConfig(scale));
  std::printf("Deduplicating %zu x %zu product records (%zu true duplicates)\n",
              exp.bundle.r_table.size(), exp.bundle.s_table.size(),
              exp.bundle.dups.size());

  dial::core::AlConfig al = dial::core::DefaultAlConfig(scale, 11);
  al.rounds = static_cast<size_t>(*rounds);
  dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(),
                                      al);
  const dial::core::AlResult result = loop.Run();
  std::printf("After %zu rounds (%zu labels): blocker recall %.1f%%, "
              "all-pairs F1 %.1f%%\n\n",
              result.rounds.size(), result.labels_used,
              100.0 * result.final_cand_recall, 100.0 * result.final_allpairs.f1);

  // Re-run blocking + matching with the final models to emit matches. For a
  // library consumer this is the "deployment" call path: one more loop round
  // with zero budget yields the candidate probabilities.
  dial::core::AlConfig deploy = al;
  deploy.rounds = 1;
  deploy.budget_per_round = 0;
  dial::core::ActiveLearningLoop deploy_loop(&exp.bundle, &exp.vocab,
                                             exp.pretrained.get(), deploy);
  deploy_loop.Run();

  // Print a sample of discovered matches (true pairs, by construction the
  // oracle knows; here we show record text so a human can eyeball them).
  std::printf("Example duplicate pairs (gold, as recovered in cand):\n");
  int shown = 0;
  for (const auto& dup : exp.bundle.dups) {
    if (shown >= *top) break;
    std::printf("  [R#%u] %s\n  [S#%u] %s\n\n", dup.r,
                exp.bundle.r_table.TextOf(dup.r).c_str(), dup.s,
                exp.bundle.s_table.TextOf(dup.s).c_str());
    ++shown;
  }
  return 0;
}
