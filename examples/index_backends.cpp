// Index-backend comparison: "to index or not to index" for DIAL's blocker.
//
// The paper retrieves blocker candidates with FAISS (Sec. 3.3) and contrasts
// that choice with DITTO's blocked matrix multiplication and DeepER's LSH
// (Sec. 5.4). This example embeds a dataset's records in single mode with the
// pretrained TPLM and runs the identical kNN retrieval through every index
// backend in this repo — exact (flat, matmul), quantized (pq, ivfpq),
// partitioned (ivf), hashed (lsh) and graph-based (hnsw) — reporting
// candidate recall and wall time for each.
//
// Usage: index_backends [--dataset=walmart_amazon] [--scale=smoke] [--k=3]

#include <cstdio>

#include "core/experiment.h"
#include "util/flags.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* dataset = flags.AddString("dataset", "walmart_amazon", "dataset name");
  std::string* scale = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* k = flags.AddInt("k", 3, "neighbours per probe");
  int64_t* seed = flags.AddInt("seed", 7, "experiment seed");
  flags.Parse(argc, argv);

  dial::core::ExperimentConfig exp_config;
  exp_config.scale = dial::util::CheckFlag(dial::data::ParseScale(*scale));
  dial::core::Experiment exp = dial::core::PrepareExperiment(*dataset, exp_config);

  // Single-mode embeddings E(x) from the pretrained TPLM (the PairedFixed
  // embedding space — what every backend indexes).
  dial::core::AlConfig al =
      dial::core::DefaultAlConfig(exp_config.scale, static_cast<uint64_t>(*seed));
  dial::core::Matcher matcher(exp.pretrained->config(), al.matcher, 0x1d1);
  matcher.ResetFromPretrained(*exp.pretrained);
  dial::core::RecordEncodings encodings(exp.bundle, exp.vocab,
                                        exp.pretrained->config().max_single_len);
  std::vector<const dial::text::EncodedSequence*> r_seqs, s_seqs;
  for (size_t i = 0; i < encodings.r_size(); ++i) r_seqs.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) s_seqs.push_back(&encodings.S(i));
  const dial::la::Matrix emb_r = matcher.EmbedSingleMode(r_seqs);
  const dial::la::Matrix emb_s = matcher.EmbedSingleMode(s_seqs);

  std::printf("dataset %s: |R|=%zu |S|=%zu dim=%zu, k=%lld\n\n",
              exp.bundle.name.c_str(), emb_r.rows(), emb_s.rows(), emb_r.cols(),
              static_cast<long long>(*k));
  std::printf("%-8s %-10s %-12s %-10s\n", "backend", "cand", "recall", "ms");

  for (const dial::core::IndexBackend backend : dial::core::AllIndexBackends()) {
    dial::core::IbcConfig ibc;
    ibc.k_neighbors = static_cast<size_t>(*k);
    ibc.backend = backend;
    dial::util::WallTimer timer;
    const auto cand = dial::core::DirectKnnCandidates(emb_r, emb_s, ibc);
    const double ms = timer.Seconds() * 1000.0;
    const double recall = dial::core::CandidateRecall(
        dial::core::CandidatePairs(cand), exp.bundle);
    std::printf("%-8s %-10zu %-12.3f %-10.2f\n",
                dial::core::IndexBackendName(backend).c_str(), cand.size(), recall,
                ms);
  }
  std::printf(
      "\nExact backends (flat, matmul) agree on recall by construction; the\n"
      "approximate ones trade recall for sublinear probing — at blocker scale\n"
      "the paper's FAISS-flat choice is hard to beat, which is why DIAL\n"
      "defaults to exact k-selection.\n");
  return 0;
}
