// Checkpoint / resume: interrupt a labeling session and pick it back up.
//
// Active-learning sessions are human-in-the-loop and long-lived; DIAL's loop
// writes a checkpoint after every round (the labeled set T, calibration
// pairs, RNG stream, budget counter) and can resume bit-exactly — models are
// retrained from the pretrained weights each round per the paper's protocol
// (Sec. 4.2), so no weights need to be stored.
//
// This example runs a session in two halves against a reference run and
// verifies the metrics agree round for round.
//
// Usage: checkpoint_resume [--dataset=walmart_amazon] [--scale=smoke]
//                          [--rounds=2]

#include <cstdio>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "walmart_amazon", "dataset name");
  std::string* scale = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* rounds = flags.AddInt("rounds", 2, "total AL rounds");
  int64_t* seed = flags.AddInt("seed", 7, "experiment seed");
  std::string* path = flags.AddString("checkpoint", "/tmp/dial_example.ckpt",
                                      "checkpoint file");
  flags.Parse(argc, argv);

  dial::core::ExperimentConfig exp_config;
  exp_config.scale = dial::util::CheckFlag(dial::data::ParseScale(*scale));
  dial::core::Experiment exp = dial::core::PrepareExperiment(*dataset, exp_config);

  dial::core::AlConfig al =
      dial::core::DefaultAlConfig(exp_config.scale, static_cast<uint64_t>(*seed));
  al.rounds = static_cast<size_t>(*rounds);

  // Reference: one uninterrupted run.
  std::printf("== reference: %lld rounds uninterrupted\n",
              static_cast<long long>(*rounds));
  dial::core::ActiveLearningLoop reference(&exp.bundle, &exp.vocab,
                                           exp.pretrained.get(), al);
  const dial::core::AlResult expected = reference.Run();

  // First half: run with checkpointing, "crash" after round rounds-1 by
  // configuring a shorter run (round behaviour is independent of the total).
  std::printf("== session 1: runs %lld round(s), writes %s, 'crashes'\n",
              static_cast<long long>(*rounds - 1), path->c_str());
  dial::core::AlConfig first_half = al;
  first_half.rounds = al.rounds - 1;
  dial::core::ActiveLearningLoop session1(&exp.bundle, &exp.vocab,
                                          exp.pretrained.get(), first_half);
  session1.SetCheckpointPath(*path);
  session1.Run();

  // Second half: a fresh process would do exactly this. The `rounds` count
  // is not part of the config fingerprint, so resuming under a longer
  // budget Just Works.
  std::printf("== session 2: restores %s, finishes the remaining round(s)\n\n",
              path->c_str());
  dial::core::ActiveLearningLoop session2(&exp.bundle, &exp.vocab,
                                          exp.pretrained.get(), al);
  DIAL_CHECK_OK(session2.RestoreCheckpoint(*path));
  const dial::core::AlResult resumed = session2.Run();

  std::printf("%-6s %-22s %-22s %-6s\n", "round", "reference(test F1)",
              "resumed(test F1)", "equal");
  bool all_equal = true;
  for (size_t i = 0; i < expected.rounds.size(); ++i) {
    const bool equal =
        expected.rounds[i].test_prf.f1 == resumed.rounds[i].test_prf.f1 &&
        expected.rounds[i].cand_recall == resumed.rounds[i].cand_recall;
    all_equal = all_equal && equal;
    std::printf("%-6zu %-22.6f %-22.6f %-6s\n", i, expected.rounds[i].test_prf.f1,
                resumed.rounds[i].test_prf.f1, equal ? "yes" : "NO");
  }
  std::printf("\nresume %s the uninterrupted run (labels used: %zu vs %zu)\n",
              all_equal ? "exactly reproduces" : "DIVERGED FROM",
              resumed.labels_used, expected.labels_used);
  return all_equal ? 0 : 1;
}
