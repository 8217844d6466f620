#ifndef DIAL_NN_LAYERS_H_
#define DIAL_NN_LAYERS_H_

#include <string>
#include <vector>

#include "autograd/inference.h"
#include "autograd/ops.h"
#include "nn/module.h"

/// \file
/// Basic trainable layers: Linear, LayerNorm (affine), Embedding, and the
/// two task heads used by DIAL (the matcher's pair classifier and the
/// SentenceBERT-style single-mode classifier).
///
/// `Forward` records autograd nodes on the context's Tape (training).
/// `Linear::Forward` records the per-op nodes of ops.h (two `Leaf`s, MatMul,
/// AddRowBroadcast). `LayerNorm::Forward`, with or without a residual,
/// records one coarse node whose hand-written backward replays the per-op
/// sweep bit for bit.
///
/// `ForwardInto` is the forward arithmetic over raw row-major buffers. The
/// coarse tape nodes and the tape-free inference engine both call it, so
/// the engine's outputs are the tape's by construction (dropout off).
/// `Linear::Backward` is the raw backward the transformer's coarse nodes
/// build on (nn/transformer.h).

namespace dial::nn {

/// y = x W + b, W: (in, out), b: (1, out).
class Linear : public Module {
 public:
  Linear(std::string name, size_t in, size_t out, util::Rng& rng);

  autograd::Var Forward(ForwardContext& ctx, autograd::Var x);

  /// Tape-free y = x W + b into a borrowed arena matrix (x: (m, in)).
  autograd::Scratch InferForward(autograd::InferenceContext& ctx,
                                 const la::Matrix& x) const;

  /// y(m, out) = x(m, in) W + b with Forward's arithmetic, over dense
  /// row-major buffers; y is overwritten. The GEMM splits rows over `pool`
  /// when one is given, with the same bits.
  void ForwardInto(const float* x, size_t m, float* y,
                   util::ThreadPool* pool = nullptr) const;

  /// For coarse tape nodes: the backward of one ForwardInto, in the order
  /// the per-op sweep runs it. dx(m, in) += dy W^T when dx is non-null; then
  /// W's gradient x^T dy and b's column sums of dy, each summed from +0 in
  /// `tape` scratch, are added to the parameters' grad, as a Leaf would.
  void Backward(autograd::Tape& tape, const float* x, size_t m,
                const float* dy, float* dx);

  size_t in_features() const { return weight_->value.rows(); }
  size_t out_features() const { return weight_->value.cols(); }

 private:
  autograd::Parameter* weight_;
  autograd::Parameter* bias_;
};

/// Per-row layer normalization with learned gain/bias.
class LayerNorm : public Module {
 public:
  LayerNorm(std::string name, size_t dim);

  /// One tape node: LN(x) * gain + bias. With `sublayer`, the post-LN
  /// residual LN(x + Dropout(sublayer)) * gain + bias, dropout active when
  /// ctx.training and drawn from ctx.rng as autograd::Dropout draws it.
  autograd::Var Forward(ForwardContext& ctx, autograd::Var x,
                        autograd::Var sublayer = autograd::Var(),
                        float dropout = 0.0f);

  /// Forward's arithmetic over dense (rows, dim) buffers: the residual sum
  /// x + sublayer (times `mask` when that is non-null) when `sublayer` is
  /// non-null, its per-row norm into `xhat`, then out = xhat * gain + bias.
  /// `xhat` and `out` may alias each other and x; `inv_sigma` (rows)
  /// receives each row's 1/sigma when it is non-null.
  void ForwardInto(const float* x, const float* sublayer, const float* mask,
                   size_t rows, float* xhat, float* inv_sigma, float* out) const;

 private:
  autograd::Parameter* gain_;
  autograd::Parameter* bias_;
};

/// Token (or positional / segment) embedding table.
class Embedding : public Module {
 public:
  Embedding(std::string name, size_t vocab, size_t dim, util::Rng& rng);

  autograd::Var Forward(ForwardContext& ctx, const std::vector<int>& ids);

  size_t vocab_size() const { return table_->value.rows(); }
  size_t dim() const { return table_->value.cols(); }
  autograd::Parameter* table() { return table_; }
  const autograd::Parameter* table() const { return table_; }

 private:
  autograd::Parameter* table_;
};

/// The matcher head of Eq. 5: dropout → linear(d→d) → tanh → dropout →
/// linear(d→1); the logit feeds a sigmoid / BCE loss.
class PairClassifierHead : public Module {
 public:
  PairClassifierHead(std::string name, size_t dim, float dropout, util::Rng& rng);

  /// x: (m, d) CLS embeddings → (m, 1) logits.
  autograd::Var Forward(ForwardContext& ctx, autograd::Var x);

 private:
  Linear dense_;
  Linear out_;
  float dropout_;
};

/// SentenceBERT-style pair classifier over single-mode embeddings:
/// logits = Linear([u ; v ; |u - v|]).
class SentencePairHead : public Module {
 public:
  SentencePairHead(std::string name, size_t dim, util::Rng& rng);

  /// u, v: (m, d) record embeddings → (m, 1) logits.
  autograd::Var Forward(ForwardContext& ctx, autograd::Var u, autograd::Var v);

 private:
  Linear out_;
};

}  // namespace dial::nn

#endif  // DIAL_NN_LAYERS_H_
