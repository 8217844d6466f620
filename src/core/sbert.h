#ifndef DIAL_CORE_SBERT_H_
#define DIAL_CORE_SBERT_H_

#include <memory>
#include <vector>

#include "autograd/inference.h"
#include "core/encodings.h"
#include "nn/layers.h"
#include "tplm/tplm.h"

/// \file
/// The SentenceBERT blocking baseline (Sec. 4.3): a separate copy of the
/// TPLM fine-tuned *in single mode* on the labeled pairs T with a classifier
/// over [u ; v ; |u - v|] — i.e. DITTO's "advanced blocking", run inside the
/// AL loop. Its embeddings feed a plain kNN retrieval.

namespace dial::core {

struct SbertConfig {
  size_t epochs = 4;
  size_t batch_size = 8;
  float lr_transformer = 2e-4f;
  float lr_head = 1e-3f;
  uint64_t seed = 303;
};

class SentenceBertBlocker {
 public:
  SentenceBertBlocker(const tplm::TplmConfig& config, const SbertConfig& sbert_config,
                      uint64_t weight_seed);

  /// Restores pretrained transformer weights and a fresh head.
  void ResetFromPretrained(tplm::TplmModel& pretrained, uint64_t salt);

  /// Fine-tunes on labeled pairs (positives and the labeled negatives of T —
  /// the paper shows this, among other choices, is why its recall lags DIAL).
  /// Returns final-epoch mean loss.
  double Train(const RecordEncodings& encodings,
               const std::vector<data::LabeledPair>& labeled);

  /// Embeds all of R (or S) with the fine-tuned transformer (tape-free
  /// batched engine; training always uses the Tape).
  la::Matrix EmbedR(const RecordEncodings& encodings);
  la::Matrix EmbedS(const RecordEncodings& encodings);

  tplm::TplmModel& model() { return *model_; }

  /// Unowned pool for this blocker's inference engine (see Matcher).
  void SetThreadPool(util::ThreadPool* pool) { infer_ctx_.SetThreadPool(pool); }

 private:
  la::Matrix Embed(const std::vector<const text::EncodedSequence*>& seqs);

  SbertConfig config_;
  std::unique_ptr<tplm::TplmModel> model_;
  std::unique_ptr<nn::SentencePairHead> head_;
  util::Rng rng_;
  autograd::InferenceContext infer_ctx_;  // tape-free activation arena
};

}  // namespace dial::core

#endif  // DIAL_CORE_SBERT_H_
