#ifndef DIAL_TPLM_TPLM_H_
#define DIAL_TPLM_TPLM_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/transformer.h"
#include "text/vocab.h"

/// \file
/// The "transformer pre-trained language model" substrate. Substitutes for
/// RoBERTa / multilingual BERT (see DESIGN.md §2): same interface contract —
/// a transformer with contextual token embeddings, pretrained on unlabeled
/// text via masked-language modelling, invokable in paired mode (joint CLS
/// embedding, Sec. 2.2.1) and single mode (mean-pooled record embedding,
/// Sec. 2.2.2 / Eq. 3).

namespace dial::tplm {

struct TplmConfig {
  nn::TransformerConfig transformer;
  /// Max sequence length for single-mode encodings (records).
  size_t max_single_len = 28;
  /// Max sequence length for paired-mode encodings.
  size_t max_pair_len = 60;
  /// Single-mode pooling mix: E(x) = mean over tokens of
  /// (1-w)*embedding_layer + w*last_layer. At small model scales the
  /// embedding layer carries the lexical-overlap signal blocking needs;
  /// w blends in contextual information.
  float single_mode_last_weight = 0.0f;

  TplmConfig() {
    transformer.max_positions = 60;
  }

  uint64_t Fingerprint() const;
};

/// Transformer encoder + tied-weight MLM head.
class TplmModel : public nn::Module {
 public:
  TplmModel(std::string name, TplmConfig config, uint64_t seed);

  const TplmConfig& config() const { return config_; }
  size_t dim() const { return config_.transformer.dim; }
  nn::TransformerEncoder& encoder() { return encoder_; }

  /// Single mode: mean of contextual token embeddings (Eq. 3). Returns (1, d).
  autograd::Var EncodeSingle(nn::ForwardContext& ctx, const text::EncodedSequence& seq);

  /// Paired mode: CLS contextual embedding (Sec. 2.2.1). Returns (1, d).
  autograd::Var EncodePair(nn::ForwardContext& ctx, const text::EncodedSequence& seq);

  /// Enriched pair embedding E(r,s) for the matcher head: [CLS ; mean(seg0) ;
  /// mean(seg1) ; |mean(seg0) - mean(seg1)|], returns (1, 4d). At RoBERTa
  /// scale CLS alone suffices (Eq. 5); at this repo's model scale the
  /// explicit segment-difference features are required for the head to see
  /// cross-record evidence. Documented substitution (DESIGN.md §2).
  autograd::Var EncodePairFeatures(nn::ForwardContext& ctx,
                                   const text::EncodedSequence& seq);

  /// Output dimension of EncodePairFeatures.
  size_t pair_feature_dim() const { return 4 * config_.transformer.dim + 4; }

  /// Masked-LM loss for one sequence: BERT's 15% dynamic masking
  /// (80% [MASK] / 10% random / 10% keep); logits share weights with the
  /// token embedding table. Returns a 1x1 loss var, or an invalid var when
  /// no position was masked.
  autograd::Var MlmLoss(nn::ForwardContext& ctx, const text::EncodedSequence& seq,
                        util::Rng& rng, float mask_prob = 0.15f);

  // ---- Inference engine (tape-free, cross-sequence batched) ----
  // The batched entry points length-bucket their inputs, pack each bucket
  // into one (B·len, dim) activation, and run the no-grad encoder forward
  // through an InferenceContext arena. Outputs are bit-identical to running
  // the corresponding Tape forward per sequence (dropout off), and
  // bit-identical across thread counts.

  /// Single-mode embeddings E(x) (Eq. 3): one row per sequence.
  la::Matrix EncodeSingleBatch(
      autograd::InferenceContext& ctx,
      const std::vector<const text::EncodedSequence*>& seqs) const;

  /// Matcher input features (see EncodePairFeatures): one row per sequence,
  /// pair_feature_dim() columns.
  la::Matrix EncodePairFeaturesBatch(
      autograd::InferenceContext& ctx,
      const std::vector<const text::EncodedSequence*>& seqs) const;

  /// Forward-only MLM loss under the same dynamic masking as MlmLoss (the
  /// rng streams stay in lockstep), without recording a tape — the held-out
  /// eval path. Returns -1 when no position was masked.
  double EvalMlmLoss(autograd::InferenceContext& ctx,
                     const text::EncodedSequence& seq, util::Rng& rng,
                     float mask_prob = 0.15f) const;

 private:
  /// The four soft token-alignment features of EncodePairFeatures, computed
  /// tape-free for one sequence into out4[0..4).
  void InferAlignFeatures(autograd::InferenceContext& ctx,
                          const text::EncodedSequence& seq, size_t split,
                          float* out4) const;

  TplmConfig config_;
  util::Rng init_rng_;  // must precede encoder_: consumed during construction
  nn::TransformerEncoder encoder_;
};

struct PretrainOptions {
  size_t epochs = 30;
  size_t batch_size = 16;
  float lr = 1e-3f;
  uint64_t seed = 13;
  /// Emit a progress log line every N batches (0 = quiet).
  size_t log_every = 0;

  /// Self-supervised pair-discrimination (SPD) phase after MLM: the model
  /// classifies (x, perturb(x)) vs (x, random y) in paired mode with a
  /// throwaway head. This teaches cross-segment token comparison — the
  /// capability web-scale pretraining gives real TPLMs and the paired-mode
  /// matcher depends on. 0 disables.
  size_t pair_epochs = 20;
  float pair_lr = 1e-3f;
  /// Per-piece perturbation rates when forming the positive copy.
  double pair_drop_prob = 0.15;
  double pair_swap_prob = 0.10;
  double pair_replace_prob = 0.05;

  uint64_t Fingerprint() const;
};

/// Result diagnostics from pretraining.
struct PretrainStats {
  double initial_loss = 0.0;
  double final_loss = 0.0;
  size_t steps = 0;
  double pair_initial_loss = 0.0;
  double pair_final_loss = 0.0;
  double pair_accuracy = 0.0;  // final-epoch SPD accuracy
};

/// Pretrains `model` with MLM on raw text lines (the unlabeled record corpus
/// R ∪ S — the stand-in for RoBERTa's web-scale pretraining).
PretrainStats PretrainMlm(TplmModel& model, const text::SubwordVocab& vocab,
                          const std::vector<std::string>& corpus,
                          const PretrainOptions& options);

/// Self-supervised pair-discrimination phase (see PretrainOptions). Returns
/// stats with only the pair_* fields filled.
PretrainStats PretrainPairDiscrimination(TplmModel& model,
                                         const text::SubwordVocab& vocab,
                                         const std::vector<std::string>& corpus,
                                         const PretrainOptions& options);

/// Full pretraining pipeline: MLM followed by pair discrimination.
PretrainStats Pretrain(TplmModel& model, const text::SubwordVocab& vocab,
                       const std::vector<std::string>& corpus,
                       const PretrainOptions& options);

}  // namespace dial::tplm

#endif  // DIAL_TPLM_TPLM_H_
