#include "nn/layers.h"

#include <algorithm>

namespace dial::nn {

using autograd::Var;

Linear::Linear(std::string name, size_t in, size_t out, util::Rng& rng)
    : Module(std::move(name)) {
  weight_ = AddParameter("weight", in, out);
  bias_ = AddParameter("bias", 1, out);
  XavierInit(weight_, rng);
}

Var Linear::Forward(ForwardContext& ctx, Var x) {
  Var w = ctx.tape->Leaf(weight_);
  Var b = ctx.tape->Leaf(bias_);
  return autograd::AddRowBroadcast(autograd::MatMul(x, w), b);
}

autograd::Scratch Linear::InferForward(autograd::InferenceContext& ctx,
                                       const la::Matrix& x) const {
  autograd::Scratch out(ctx, x.rows(), out_features());
  autograd::infer::MatMul(x, weight_->value, *out, ctx.pool());
  la::AddRowBroadcast(*out, bias_->value);
  return out;
}

LayerNorm::LayerNorm(std::string name, size_t dim) : Module(std::move(name)) {
  gain_ = AddParameter("gain", 1, dim);
  bias_ = AddParameter("bias", 1, dim);
  gain_->value.Fill(1.0f);
}

Var LayerNorm::Forward(ForwardContext& ctx, Var x) {
  Var normalized = autograd::LayerNormRows(x);
  Var g = ctx.tape->Leaf(gain_);
  Var b = ctx.tape->Leaf(bias_);
  return autograd::AddRowBroadcast(autograd::MulRowBroadcast(normalized, g), b);
}

void LayerNorm::InferForward(const la::Matrix& x, la::Matrix& out) const {
  autograd::infer::LayerNormRows(x, out);
  const float* gain = gain_->value.row(0);
  const float* bias = bias_->value.row(0);
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] *= gain[c];
  }
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.row(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] += bias[c];
  }
}

Embedding::Embedding(std::string name, size_t vocab, size_t dim, util::Rng& rng)
    : Module(std::move(name)) {
  table_ = AddParameter("table", vocab, dim);
  NormalInit(table_, rng);
}

Var Embedding::Forward(ForwardContext& ctx, const std::vector<int>& ids) {
  return autograd::EmbeddingGather(*ctx.tape, table_, ids);
}

autograd::Scratch Embedding::InferGather(autograd::InferenceContext& ctx,
                                         const std::vector<int>& ids) const {
  const size_t d = table_->value.cols();
  autograd::Scratch out(ctx, ids.size(), d);
  for (size_t i = 0; i < ids.size(); ++i) {
    DIAL_CHECK_GE(ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(ids[i]), table_->value.rows());
    const float* src = table_->value.row(ids[i]);
    std::copy(src, src + d, out->row(i));
  }
  return out;
}

PairClassifierHead::PairClassifierHead(std::string name, size_t dim, float dropout,
                                       util::Rng& rng)
    : Module(std::move(name)),
      dense_(this->name() + ".dense", dim, dim, rng),
      out_(this->name() + ".out", dim, 1, rng),
      dropout_(dropout) {
  AddChild(&dense_);
  AddChild(&out_);
}

Var PairClassifierHead::Forward(ForwardContext& ctx, Var x) {
  Var h = autograd::Dropout(x, dropout_, *ctx.rng, ctx.training);
  h = autograd::Tanh(dense_.Forward(ctx, h));
  h = autograd::Dropout(h, dropout_, *ctx.rng, ctx.training);
  return out_.Forward(ctx, h);
}

SentencePairHead::SentencePairHead(std::string name, size_t dim, util::Rng& rng)
    : Module(std::move(name)), out_(this->name() + ".out", 3 * dim, 1, rng) {
  AddChild(&out_);
}

Var SentencePairHead::Forward(ForwardContext& ctx, Var u, Var v) {
  Var diff = autograd::Abs(autograd::Sub(u, v));
  Var features = autograd::ConcatCols({u, v, diff});
  return out_.Forward(ctx, features);
}

}  // namespace dial::nn
