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
/// options (seed included), the corpus, and la::kernels::OutputDigest(): the
/// la/kernels.h accumulation order decides the weights' bits, so a build
/// under another contract misses instead of loading them. Plain rebuilds,
/// and every dispatch tier, keep the digest and hit. Other code the weights
/// depend on (autograd, the optimizer, the MLM loop) is not in the key: the
/// default directory and the tests' TempDir() caches outlive builds, so
/// after such a change a warm cache still loads weights another build
/// pretrained. Whatever must pin this build's pretraining (al_golden_test's
/// golden-file case) runs uncached.

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

}  // namespace dial::tplm

#endif  // DIAL_TPLM_MODEL_CACHE_H_
