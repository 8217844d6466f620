#ifndef DIAL_NN_TRANSFORMER_H_
#define DIAL_NN_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

/// \file
/// A BERT/RoBERTa-style transformer encoder (post-LN), sized for CPU-only
/// training. The Tape path processes one sequence per forward call; batching
/// is done by building several sequences on one tape and averaging their
/// losses, which avoids padding/masking logic entirely.
///
/// On the Tape, each `TransformerLayer` records four coarse nodes, one per
/// sublayer: self-attention (q/k/v, per-head scores, softmax, dropout,
/// output projection), the residual add + LayerNorm after it, the FFN (both
/// linears and GELU), and the second residual add + LayerNorm. Their
/// hand-written backwards replay the per-op composition of ops.h bit for
/// bit: the same la::kernels calls and layouts, every gradient summed from
/// +0 in per-op order (the layer input takes the residual's gradient, then
/// v's, k's and q's), each parameter's gradient for the sequence added to
/// `Parameter::grad` when the node's backward runs, and dropout masks drawn
/// from ctx.rng in the same order. nn_test pins values, gradients and the
/// rng stream against that composition. The embedding sum stays per-op.
///
/// The inference engine adds a second, tape-free path (`InferForward`):
/// same-length sequences are packed into one (batch·len, dim) activation so
/// every linear layer runs as a single matrix-matrix GEMM, while attention
/// stays per sequence (fanned out over the context's pool). Outputs are
/// bit-identical to the per-sequence Tape forward with dropout off, and
/// bit-identical across thread counts — no padding or masking ever enters
/// the arithmetic.

namespace dial::nn {

struct TransformerConfig {
  size_t vocab_size = 2048;
  size_t max_positions = 64;
  size_t num_segments = 2;  // 0 = first record, 1 = second (paired mode)
  size_t dim = 32;
  size_t num_layers = 2;
  size_t num_heads = 2;
  size_t ffn_dim = 64;
  float dropout = 0.1f;
  /// Positional embeddings are initialized at this fraction of the token
  /// embedding scale so that content dominates mean-pooled representations
  /// (critical for single-mode blocking embeddings at small model sizes).
  float position_init_scale = 0.25f;

  /// Stable fingerprint used as a model-cache key component.
  uint64_t Fingerprint() const;
};

/// One self-attention block: MHA + residual + LN, FFN + residual + LN.
class TransformerLayer : public Module {
 public:
  TransformerLayer(std::string name, const TransformerConfig& config, util::Rng& rng);

  /// Records four tape nodes (see the file comment).
  autograd::Var Forward(ForwardContext& ctx, autograd::Var x);

  /// Tape-free forward over `batch` packed same-length sequences: x is
  /// (batch*len, dim) and is updated in place. Linear sublayers run as one
  /// packed GEMM; attention runs per sequence over ctx's pool.
  void InferForward(autograd::InferenceContext& ctx, size_t batch, size_t len,
                    la::Matrix& x) const;

  /// Final-layer shortcut: computes ONLY each sequence's first row (the CLS
  /// state) of this layer's output into `cls` (batch, dim). Bit-identical to
  /// row b*len of InferForward — attention still attends over every token of
  /// `x`, but the query/FFN/LN work for the discarded rows is skipped. Valid
  /// only when no later layer consumes the other rows.
  void InferForwardCls(autograd::InferenceContext& ctx, size_t batch, size_t len,
                       const la::Matrix& x, la::Matrix& cls) const;

 private:
  /// The coarse self-attention node: wo(MultiHead(x)), before dropout.
  autograd::Var SelfAttention(ForwardContext& ctx, autograd::Var x);
  /// The coarse FFN node: ffn_out(Gelu(ffn_in(x))), before dropout.
  autograd::Var FeedForward(ForwardContext& ctx, autograd::Var x);

  const TransformerConfig& config_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
  Linear ffn_in_;
  Linear ffn_out_;
  LayerNorm ln_attn_;
  LayerNorm ln_ffn_;
};

/// Full encoder: token + position + segment embeddings, N layers.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(std::string name, TransformerConfig config, util::Rng& rng);

  /// Contextual embeddings for one sequence. `ids` and `segments` must have
  /// equal length <= max_positions. Returns (len, dim). When `embed_out` is
  /// non-null it receives the embedding-layer output (before any attention
  /// block) — used by first+last-layer average pooling in single mode.
  autograd::Var Forward(ForwardContext& ctx, const std::vector<int>& ids,
                        const std::vector<int>& segments,
                        autograd::Var* embed_out = nullptr);

  /// Output-pruning knobs for the batched inference forward. The engine may
  /// skip work whose results the caller never reads; every value it does
  /// produce stays bit-identical to the full Tape forward.
  struct InferOptions {
    /// Stop after the embedding layer: `hidden` receives the embedding-layer
    /// output (== `embed_out`) and no attention layer runs. What single-mode
    /// pooling consumes when `single_mode_last_weight <= 0`.
    bool embed_only = false;
    /// In the final layer, compute only each sequence's CLS row: row b*len
    /// of `hidden` is exact, every other row is unspecified. What paired-
    /// mode feature extraction consumes.
    bool cls_only_last = false;
  };

  /// Tape-free batched forward: `ids`/`segments` hold `batch` sequences of
  /// equal length `len` packed back to back (size batch*len). Fills `hidden`
  /// (batch*len, dim); `embed_out` (optional, same shape) receives the
  /// embedding-layer output. Bit-identical to Forward per sequence with
  /// dropout off (modulo rows `options` declares unread).
  void InferForward(autograd::InferenceContext& ctx, const std::vector<int>& ids,
                    const std::vector<int>& segments, size_t batch, size_t len,
                    la::Matrix& hidden, la::Matrix* embed_out,
                    const InferOptions& options) const;
  void InferForward(autograd::InferenceContext& ctx, const std::vector<int>& ids,
                    const std::vector<int>& segments, size_t batch, size_t len,
                    la::Matrix& hidden, la::Matrix* embed_out = nullptr) const {
    InferForward(ctx, ids, segments, batch, len, hidden, embed_out,
                 InferOptions());
  }

  const TransformerConfig& config() const { return config_; }
  Embedding& token_embedding() { return tokens_; }
  const Embedding& token_embedding() const { return tokens_; }

 private:
  TransformerConfig config_;
  Embedding tokens_;
  Embedding positions_;
  Embedding segments_;
  LayerNorm ln_embed_;
  std::vector<std::unique_ptr<TransformerLayer>> layers_;
};

}  // namespace dial::nn

#endif  // DIAL_NN_TRANSFORMER_H_
