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
/// Each sublayer's forward is one raw-buffer routine (`AttentionInto`,
/// `FeedForwardInto`, `LayerNorm::ForwardInto`) that the tape node and the
/// tape-free inference engine (`InferForward`) both call. The engine packs
/// same-length sequences into one (batch·len, dim) activation, so every
/// linear layer runs as a single GEMM whose rows split over the context's
/// pool, while attention mixes rows within one sequence at a time. Outputs
/// are bit-identical to the per-sequence Tape forward with dropout off, and
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

  /// Tape-free forward over `batch` packed same-length sequences, x
  /// (batch*len, dim). Writes every row of the layer's output to `out`
  /// (batch*len, dim), which may be x; with `cls_only`, only each
  /// sequence's first row (the CLS state) into `out` (batch, dim).
  /// Attention still reads every row of x, so out's rows are bit-identical
  /// to the full forward's.
  void InferForward(autograd::InferenceContext& ctx, size_t batch, size_t len,
                    const la::Matrix& x, bool cls_only, la::Matrix& out) const;

 private:
  /// What one AttentionInto call works in. Per-sequence buffers hold the
  /// last sequence's values when it returns; the tape node passes one
  /// sequence and keeps those its backward reads.
  struct AttentionBuffers {
    float* merged;    // (batch*q_len, dim): wq's output, then the heads'
    float* kv;        // (2*batch*len, dim): wk's output, then wv's
    float* qkv;       // (q_len + 2*len, dim): one sequence's q, k, v per head
    float* probs;     // (heads*q_len, len): one sequence's attention weights
    float* masks;     // like probs: dropout masks; null for no dropout
    float* dropped;   // like probs: probs * masks, or `probs` without masks
    float* head_out;  // (q_len, head_dim): one head's output
  };

  /// wo(MultiHead(x)), before dropout, over `batch` packed sequences of
  /// `len` rows: keys and values come from every row of x (batch*len, dim),
  /// queries from the first `q_len` rows of each sequence (len, or 1 for
  /// the CLS row), packed in xq (batch*q_len, dim); out is (batch*q_len,
  /// dim). Draws the dropout masks from `rng` when buf.masks is non-null.
  void AttentionInto(const float* xq, const float* x, size_t batch, size_t len,
                     size_t q_len, const AttentionBuffers& buf, util::Rng* rng,
                     float* out, util::ThreadPool* pool) const;
  /// ffn_out(GELU(ffn_in(x))), before dropout, for `rows` rows of x:
  /// ffn_in's output goes to `pre`, the GELU to `act` (which may be `pre`)
  /// and each element's GELU tanh to `gelu_tanh` when it is non-null.
  void FeedForwardInto(const float* x, size_t rows, float* pre, float* gelu_tanh,
                       float* act, float* out, util::ThreadPool* pool) const;

  /// The coarse self-attention node: AttentionInto over one sequence.
  autograd::Var SelfAttention(ForwardContext& ctx, autograd::Var x);
  /// The coarse FFN node: FeedForwardInto over one sequence.
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
