// Dirty-data robustness: TPLM matching vs classical features when the
// schema breaks.
//
// Sec. 2.2 of the paper motivates transformer matchers with their robustness
// on "dirty" datasets. This example makes that concrete: it runs DIAL
// (schema-agnostic full-text serialization) and the Random-Forest baseline
// (schema-aligned similarity features) on a dataset and on its dirty variant
// — same records, but attribute values displaced into wrong columns
// (data/dirty.h). The forest's per-attribute features degrade; DIAL's
// serialized text is unchanged up to token order, so it barely moves.
//
// Usage: dirty_robustness [--dataset=walmart_amazon] [--scale=smoke]
//                         [--rounds=2]

#include <cstdio>

#include "baselines/rf_al.h"
#include "baselines/rules.h"
#include "core/experiment.h"
#include "util/flags.h"

namespace {

struct Row {
  double dial_f1 = 0.0;
  double rf_f1 = 0.0;
};

Row RunBoth(const std::string& dataset, dial::data::Scale scale, size_t rounds,
            uint64_t seed) {
  dial::core::ExperimentConfig exp_config;
  exp_config.scale = scale;
  dial::core::Experiment exp = dial::core::PrepareExperiment(dataset, exp_config);

  dial::core::AlConfig al = dial::core::DefaultAlConfig(scale, seed);
  al.rounds = rounds;
  dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab,
                                      exp.pretrained.get(), al);
  const dial::core::AlResult dial_result = loop.Run();

  dial::baselines::RfAlConfig rf;
  rf.rounds = rounds;
  rf.budget_per_round = al.budget_per_round;
  rf.seed_per_class = al.seed_per_class;
  rf.seed = seed;
  const dial::core::AlResult rf_result =
      dial::baselines::RunRandomForestAl(exp.bundle, rf);

  return {dial_result.final_allpairs.f1, rf_result.final_allpairs.f1};
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "walmart_amazon", "dataset name");
  std::string* scale_text = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* rounds = flags.AddInt("rounds", 2, "active learning rounds");
  int64_t* seed = flags.AddInt("seed", 7, "experiment seed");
  flags.Parse(argc, argv);

  const dial::data::Scale scale =
      dial::util::CheckFlag(dial::data::ParseScale(*scale_text));
  std::printf("running clean variant (%s)...\n", dataset->c_str());
  const Row clean = RunBoth(*dataset, scale, static_cast<size_t>(*rounds),
                            static_cast<uint64_t>(*seed));
  const std::string dirty_name = "dirty_" + *dataset;
  std::printf("running dirty variant (%s)...\n\n", dirty_name.c_str());
  const Row dirty = RunBoth(dirty_name, scale, static_cast<size_t>(*rounds),
                            static_cast<uint64_t>(*seed));

  std::printf("All-pairs F1 (x100)\n");
  std::printf("%-22s %-10s %-10s %-10s\n", "method", "clean", "dirty", "drop");
  std::printf("%-22s %-10.1f %-10.1f %-10.1f\n", "DIAL (TPLM)",
              clean.dial_f1 * 100, dirty.dial_f1 * 100,
              (clean.dial_f1 - dirty.dial_f1) * 100);
  std::printf("%-22s %-10.1f %-10.1f %-10.1f\n", "RandomForest (features)",
              clean.rf_f1 * 100, dirty.rf_f1 * 100,
              (clean.rf_f1 - dirty.rf_f1) * 100);
  std::printf(
      "\nExpected shape: the forest's schema-aligned features lose far more F1\n"
      "on the dirty variant than DIAL's schema-agnostic TPLM serialization.\n");
  return 0;
}
