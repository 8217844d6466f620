#ifndef DIAL_TPLM_MODEL_CACHE_H_
#define DIAL_TPLM_MODEL_CACHE_H_

#include <string>
#include <vector>

#include "tplm/tplm.h"
#include "util/status.h"

/// \file
/// Disk cache for pretrained TPLM weights, so benches and tests that share a
/// dataset reuse one pretrained model instead of re-running MLM. The key
/// fingerprints the transformer shape, `max_single_len`, the pretrain
/// options (seed included) and the corpus, plus two digests of this build's
/// arithmetic: la::kernels::OutputDigest(), the kernels' output bits on
/// probes that reach every 16-lane chain and tile edge, and
/// PretrainDigest(), the weights a tiny pretraining run ends with, which
/// covers autograd, the coarse transformer nodes, the optimizer and the
/// pretraining loops. A build that would pretrain other bits misses instead
/// of loading weights another build pretrained. Plain rebuilds, and every
/// dispatch tier, keep both digests and hit. al_golden_test's golden-file
/// case still pretrains uncached, so it pins this build's pretraining
/// whatever a cache holds.

namespace dial::tplm {

class ModelCache {
 public:
  /// `dir` is created if missing. An empty dir disables caching entirely.
  explicit ModelCache(std::string dir);

  /// Default directory: $DIAL_CACHE_DIR or /tmp/dial_model_cache.
  static ModelCache Default();

  /// Loads cached weights into `model` if present; otherwise runs
  /// `PretrainMlm(model, vocab, corpus, options)` and stores the result.
  /// `corpus_tag` must uniquely identify the corpus content (e.g. a content
  /// hash); it is combined with the model/pretrain fingerprints.
  PretrainStats GetOrPretrain(TplmModel& model, const text::SubwordVocab& vocab,
                              const std::vector<std::string>& corpus,
                              const PretrainOptions& options, uint64_t corpus_tag);

  /// True if the last GetOrPretrain call hit the cache.
  bool last_was_hit() const { return last_was_hit_; }

 private:
  std::string KeyPath(const TplmModel& model, const PretrainOptions& options,
                      uint64_t corpus_tag) const;

  std::string dir_;
  bool last_was_hit_ = false;
};

/// Content hash of corpus lines (order-sensitive).
uint64_t CorpusFingerprint(const std::vector<std::string>& corpus);

/// Hash of the weights a tiny deterministic pretraining run produces: a
/// one-layer dim-8 TPLM on a fixed twenty-line corpus, two MLM steps and two
/// pair-discrimination steps, dropout on. A few milliseconds; ModelCache
/// computes it once per process. Equal on every dispatch tier
/// (tests/arch_test.cc). Its GEMMs are too small to reach the 16-lane
/// chains of the dim-32 model, which is why the key keeps
/// la::kernels::OutputDigest() beside it.
uint64_t PretrainDigest();

}  // namespace dial::tplm

#endif  // DIAL_TPLM_MODEL_CACHE_H_
