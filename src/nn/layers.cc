#include "nn/layers.h"

#include <algorithm>

#include "la/kernels.h"

namespace dial::nn {

using autograd::Node;
using autograd::Var;

namespace {

/// Adds one sequence's gradient for `p`, summed from +0 in `sum`, to
/// p->grad: what the per-op sweep's Leaf node did.
void AddToGrad(autograd::Parameter* p, const float* sum) {
  DIAL_CHECK_EQ(p->grad.rows(), p->value.rows());
  DIAL_CHECK_EQ(p->grad.cols(), p->value.cols());
  float* g = p->grad.data();
  for (size_t i = 0; i < p->grad.size(); ++i) g[i] += sum[i];
}

/// Column sums of the dense (rows, cols) dy, from +0 in row order, in tape
/// scratch: a bias's gradient, as AddRowBroadcast's backward sums it.
const float* ColumnSums(autograd::Tape& tape, const float* dy, size_t rows,
                        size_t cols) {
  float* sums = tape.Alloc(cols);
  std::fill(sums, sums + cols, 0.0f);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) sums[c] += dy[r * cols + c];
  }
  return sums;
}

}  // namespace

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
  DIAL_CHECK_EQ(x.cols(), in_features());
  autograd::Scratch out(ctx, x.rows(), out_features());
  ForwardInto(x.data(), x.rows(), out->data(), ctx.pool());
  return out;
}

void Linear::ForwardInto(const float* x, size_t m, float* y,
                         util::ThreadPool* pool) const {
  const size_t in = in_features();
  const size_t out = out_features();
  std::fill(y, y + m * out, 0.0f);
  la::kernels::GemmNN(m, out, in, x, weight_->value.data(), y, pool);
  const float* b = bias_->value.data();
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < out; ++c) y[r * out + c] += b[c];
  }
}

void Linear::Backward(autograd::Tape& tape, const float* x, size_t m,
                      const float* dy, float* dx) {
  const size_t in = in_features();
  const size_t out = out_features();
  if (dx != nullptr) {
    la::kernels::GemmNT(m, in, out, dy, weight_->value.data(), dx);
  }
  float* dw = tape.Alloc(in * out);
  std::fill(dw, dw + in * out, 0.0f);
  la::kernels::GemmTN(in, out, m, x, dy, dw);
  AddToGrad(weight_, dw);
  AddToGrad(bias_, ColumnSums(tape, dy, m, out));
}

LayerNorm::LayerNorm(std::string name, size_t dim) : Module(std::move(name)) {
  gain_ = AddParameter("gain", 1, dim);
  bias_ = AddParameter("bias", 1, dim);
  gain_->value.Fill(1.0f);
}

Var LayerNorm::Forward(ForwardContext& ctx, Var x, Var sublayer, float dropout) {
  autograd::Tape& tape = *ctx.tape;
  const size_t rows = x.rows();
  const size_t n = x.cols();
  DIAL_CHECK_EQ(n, gain_->value.cols());
  const size_t size = rows * n;

  // Saved for the backward: the normalized rows, 1/sigma per row and the
  // dropout mask.
  float* xhat = tape.Alloc(size);
  float* inv_sigma = tape.Alloc(rows);
  float* mask = nullptr;
  if (sublayer.valid()) {
    DIAL_CHECK_EQ(sublayer.rows(), rows);
    DIAL_CHECK_EQ(sublayer.cols(), n);
    if (ctx.training && dropout > 0.0f) {
      mask = tape.Alloc(size);
      autograd::DropoutMask(dropout, *ctx.rng, mask, size);
    }
  }
  la::Matrix out(rows, n);
  ForwardInto(x.value().data(),
              sublayer.valid() ? sublayer.value().data() : nullptr, mask, rows,
              xhat, inv_sigma, out.data());

  Node* node = tape.NewNode(std::move(out), /*requires_grad=*/true);
  Node* nx = x.node();
  Node* ns = sublayer.valid() ? sublayer.node() : nullptr;
  node->backward = [this, node, nx, ns, xhat, inv_sigma, mask]() {
    autograd::Tape& tape = *node->tape;
    const size_t rows = node->rows();
    const size_t n = node->cols();
    const float* dy = node->grad.data();
    const float* gain = gain_->value.data();
    // The per-op sweep: the bias's broadcast, the gain's, then the
    // normalization, whose gradient `ds` goes to x and (through the mask)
    // to the sublayer.
    AddToGrad(bias_, ColumnSums(tape, dy, rows, n));
    float* dgain = tape.Alloc(n);
    std::fill(dgain, dgain + n, 0.0f);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < n; ++c) dgain[c] += dy[r * n + c] * xhat[r * n + c];
    }
    AddToGrad(gain_, dgain);
    float* ds = tape.Alloc(rows * n);
    for (size_t r = 0; r < rows; ++r) {
      const float* xh = xhat + r * n;
      float* d = ds + r * n;
      float mean_dy = 0.0f;
      float mean_dyxhat = 0.0f;
      for (size_t c = 0; c < n; ++c) {
        d[c] = dy[r * n + c] * gain[c];
        mean_dy += d[c];
        mean_dyxhat += d[c] * xh[c];
      }
      mean_dy /= static_cast<float>(n);
      mean_dyxhat /= static_cast<float>(n);
      const float is = inv_sigma[r];
      for (size_t c = 0; c < n; ++c) {
        d[c] = is * (d[c] - mean_dy - xh[c] * mean_dyxhat);
      }
    }
    if (nx->requires_grad) {
      float* gx = nx->EnsureGrad().data();
      for (size_t i = 0; i < rows * n; ++i) gx[i] += ds[i];
    }
    if (ns != nullptr && ns->requires_grad) {
      float* gs = ns->EnsureGrad().data();
      for (size_t i = 0; i < rows * n; ++i) {
        gs[i] += mask != nullptr ? ds[i] * mask[i] : ds[i];
      }
    }
  };
  return Var(node);
}

void LayerNorm::ForwardInto(const float* x, const float* sublayer,
                            const float* mask, size_t rows, float* xhat,
                            float* inv_sigma, float* out) const {
  const size_t n = gain_->value.cols();
  const size_t size = rows * n;
  const float* in = x;
  if (sublayer != nullptr) {
    if (mask != nullptr) {
      for (size_t i = 0; i < size; ++i) xhat[i] = x[i] + sublayer[i] * mask[i];
    } else {
      for (size_t i = 0; i < size; ++i) xhat[i] = x[i] + sublayer[i];
    }
    in = xhat;
  }
  autograd::infer::LayerNormRows(in, rows, n, xhat, inv_sigma);
  const float* gain = gain_->value.data();
  const float* bias = bias_->value.data();
  for (size_t r = 0; r < rows; ++r) {
    const float* row = xhat + r * n;
    float* orow = out + r * n;
    for (size_t c = 0; c < n; ++c) orow[c] = row[c] * gain[c] + bias[c];
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
