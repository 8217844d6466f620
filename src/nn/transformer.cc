#include "nn/transformer.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dial::nn {

using autograd::Var;

uint64_t TransformerConfig::Fingerprint() const {
  const std::string text = util::StrFormat(
      "v=%zu,p=%zu,s=%zu,d=%zu,l=%zu,h=%zu,f=%zu,do=%.4f,pi=%.3f,pool=fl", vocab_size,
      max_positions, num_segments, dim, num_layers, num_heads, ffn_dim, dropout,
      position_init_scale);
  return util::Fnv1a(text);
}

TransformerLayer::TransformerLayer(std::string name, const TransformerConfig& config,
                                   util::Rng& rng)
    : Module(name),
      config_(config),
      wq_(name + ".wq", config.dim, config.dim, rng),
      wk_(name + ".wk", config.dim, config.dim, rng),
      wv_(name + ".wv", config.dim, config.dim, rng),
      wo_(name + ".wo", config.dim, config.dim, rng),
      ffn_in_(name + ".ffn_in", config.dim, config.ffn_dim, rng),
      ffn_out_(name + ".ffn_out", config.ffn_dim, config.dim, rng),
      ln_attn_(name + ".ln_attn", config.dim),
      ln_ffn_(name + ".ln_ffn", config.dim) {
  DIAL_CHECK_EQ(config.dim % config.num_heads, 0u);
  AddChild(&wq_);
  AddChild(&wk_);
  AddChild(&wv_);
  AddChild(&wo_);
  AddChild(&ffn_in_);
  AddChild(&ffn_out_);
  AddChild(&ln_attn_);
  AddChild(&ln_ffn_);
}

namespace {

/// Copies columns [c0, c0 + cols) of the dense (rows, stride) `src` into
/// the dense (rows, cols) `dst`.
void CopyCols(const float* src, size_t rows, size_t stride, size_t c0,
              size_t cols, float* dst) {
  for (size_t r = 0; r < rows; ++r) {
    const float* s = src + r * stride + c0;
    std::copy(s, s + cols, dst + r * cols);
  }
}

/// Writes the dense (rows, cols) `src` into columns [c0, c0 + cols) of the
/// dense (rows, stride) `dst`.
void PlaceCols(const float* src, size_t rows, size_t cols, size_t stride,
               size_t c0, float* dst) {
  for (size_t r = 0; r < rows; ++r) {
    std::copy(src + r * cols, src + (r + 1) * cols, dst + r * stride + c0);
  }
}

/// Tape storage for n floats, zeroed: a GEMM accumulator.
float* Zeroed(autograd::Tape& tape, size_t n) {
  float* p = tape.Alloc(n);
  std::fill(p, p + n, 0.0f);
  return p;
}

}  // namespace

Var TransformerLayer::SelfAttention(ForwardContext& ctx, Var x) {
  autograd::Tape& tape = *ctx.tape;
  const size_t len = x.rows();
  const size_t d = config_.dim;
  const size_t heads = config_.num_heads;
  const size_t head_dim = d / heads;
  const size_t head_size = len * head_dim;  // one head's (len, head_dim)
  const size_t probs_size = len * len;      // one head's (len, len)
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool dropout = ctx.training && config_.dropout > 0.0f;
  DIAL_CHECK_EQ(x.cols(), d);

  // Saved for the backward: q, k and v split into per-head (len, head_dim)
  // blocks, each head's attention probabilities, their dropout masks and
  // the dropped probabilities the value GEMM read, and the merged head
  // outputs, which first hold each projection's full-width output.
  float* qkv = tape.Alloc(3 * len * d);
  float* probs = tape.Alloc(heads * probs_size);
  float* masks = dropout ? tape.Alloc(heads * probs_size) : nullptr;
  float* dropped = dropout ? tape.Alloc(heads * probs_size) : probs;
  float* merged = tape.Alloc(len * d);
  float* head_out = tape.Alloc(head_size);
  const Linear* projections[3] = {&wq_, &wk_, &wv_};
  for (size_t p = 0; p < 3; ++p) {
    projections[p]->ForwardInto(x.value().data(), len, merged);
    for (size_t h = 0; h < heads; ++h) {
      CopyCols(merged, len, d, h * head_dim, head_dim,
               qkv + (p * heads + h) * head_size);
    }
  }
  for (size_t h = 0; h < heads; ++h) {
    const float* q = qkv + h * head_size;
    const float* k = qkv + (heads + h) * head_size;
    const float* v = qkv + (2 * heads + h) * head_size;
    float* a = probs + h * probs_size;
    std::fill(a, a + probs_size, 0.0f);
    la::kernels::GemmNT(len, len, head_dim, q, k, a);
    for (size_t i = 0; i < probs_size; ++i) a[i] *= scale;
    autograd::infer::SoftmaxRowsInPlace(a, len, len);
    if (dropout) {
      float* mask = masks + h * probs_size;
      float* ad = dropped + h * probs_size;
      autograd::DropoutMask(config_.dropout, *ctx.rng, mask, probs_size);
      for (size_t i = 0; i < probs_size; ++i) ad[i] = a[i] * mask[i];
    }
    std::fill(head_out, head_out + head_size, 0.0f);
    la::kernels::GemmNN(len, head_dim, len, dropped + h * probs_size, v,
                        head_out);
    PlaceCols(head_out, len, head_dim, d, h * head_dim, merged);
  }
  la::Matrix out(len, d);
  wo_.ForwardInto(merged, len, out.data());

  autograd::Node* node = tape.NewNode(std::move(out), /*requires_grad=*/true);
  autograd::Node* in = x.node();
  node->backward = [this, node, in, qkv, probs, masks, dropped, merged]() {
    autograd::Tape& tape = *node->tape;
    const size_t len = node->rows();
    const size_t d = config_.dim;
    const size_t heads = config_.num_heads;
    const size_t head_dim = d / heads;
    const size_t head_size = len * head_dim;
    const size_t probs_size = len * len;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    float* dmerged = Zeroed(tape, len * d);
    wo_.Backward(tape, merged, len, node->grad.data(), dmerged);
    // dq, dk and dv, each (len, d); the heads fill disjoint columns.
    float* dqkv = tape.Alloc(3 * len * d);
    float* dhead = tape.Alloc(head_size);
    float* dprobs = tape.Alloc(probs_size);
    float* dpart = tape.Alloc(head_size);
    for (size_t h = 0; h < heads; ++h) {
      const size_t c0 = h * head_dim;
      const float* q = qkv + h * head_size;
      const float* k = qkv + (heads + h) * head_size;
      const float* v = qkv + (2 * heads + h) * head_size;
      const float* a = probs + h * probs_size;
      CopyCols(dmerged, len, d, c0, head_dim, dhead);
      std::fill(dprobs, dprobs + probs_size, 0.0f);
      la::kernels::GemmNT(len, len, head_dim, dhead, v, dprobs);
      std::fill(dpart, dpart + head_size, 0.0f);
      la::kernels::GemmTN(len, head_dim, len, dropped + h * probs_size, dhead,
                          dpart);
      PlaceCols(dpart, len, head_dim, d, c0, dqkv + 2 * len * d);
      if (masks != nullptr) {
        const float* mask = masks + h * probs_size;
        for (size_t i = 0; i < probs_size; ++i) dprobs[i] *= mask[i];
      }
      // Softmax, then the score scale: ds = scale * y (dy - dy.y) per row.
      for (size_t r = 0; r < len; ++r) {
        const float* y = a + r * len;
        float* dy = dprobs + r * len;
        float dot = 0.0f;
        for (size_t c = 0; c < len; ++c) dot += dy[c] * y[c];
        for (size_t c = 0; c < len; ++c) dy[c] = scale * (y[c] * (dy[c] - dot));
      }
      std::fill(dpart, dpart + head_size, 0.0f);
      la::kernels::GemmNN(len, head_dim, len, dprobs, k, dpart);
      PlaceCols(dpart, len, head_dim, d, c0, dqkv);
      std::fill(dpart, dpart + head_size, 0.0f);
      la::kernels::GemmTN(len, head_dim, len, dprobs, q, dpart);
      PlaceCols(dpart, len, head_dim, d, c0, dqkv + len * d);
    }
    // The input's gradient already holds the residual's; v, k and q add
    // theirs in the order the per-op sweep reached them.
    float* dx = in->requires_grad ? in->EnsureGrad().data() : nullptr;
    const float* xv = in->value().data();
    wv_.Backward(tape, xv, len, dqkv + 2 * len * d, dx);
    wk_.Backward(tape, xv, len, dqkv + len * d, dx);
    wq_.Backward(tape, xv, len, dqkv, dx);
  };
  return Var(node);
}

Var TransformerLayer::FeedForward(ForwardContext& ctx, Var x) {
  autograd::Tape& tape = *ctx.tape;
  const size_t len = x.rows();
  const size_t size = len * config_.ffn_dim;
  DIAL_CHECK_EQ(x.cols(), config_.dim);
  // Saved for the backward: ffn_in's output, its GELU tanh (so the backward
  // does not evaluate tanh again) and the GELU output.
  float* pre = tape.Alloc(size);
  float* gelu_tanh = tape.Alloc(size);
  float* act = tape.Alloc(size);
  ffn_in_.ForwardInto(x.value().data(), len, pre);
  for (size_t i = 0; i < size; ++i) {
    gelu_tanh[i] = autograd::GeluTanh(pre[i]);
    act[i] = 0.5f * pre[i] * (1.0f + gelu_tanh[i]);
  }
  la::Matrix out(len, config_.dim);
  ffn_out_.ForwardInto(act, len, out.data());

  autograd::Node* node = tape.NewNode(std::move(out), /*requires_grad=*/true);
  autograd::Node* in = x.node();
  node->backward = [this, node, in, pre, gelu_tanh, act]() {
    autograd::Tape& tape = *node->tape;
    const size_t len = node->rows();
    const size_t size = len * config_.ffn_dim;
    float* dact = Zeroed(tape, size);
    ffn_out_.Backward(tape, act, len, node->grad.data(), dact);
    for (size_t i = 0; i < size; ++i) {
      dact[i] *= autograd::GeluGrad(pre[i], gelu_tanh[i]);
    }
    ffn_in_.Backward(tape, in->value().data(), len, dact,
                     in->requires_grad ? in->EnsureGrad().data() : nullptr);
  };
  return Var(node);
}

void TransformerLayer::InferForward(autograd::InferenceContext& ctx, size_t batch,
                                    size_t len, la::Matrix& x) const {
  namespace infer = autograd::infer;
  using autograd::Scratch;
  const size_t d = config_.dim;
  DIAL_CHECK_EQ(x.rows(), batch * len);
  DIAL_CHECK_EQ(x.cols(), d);
  const size_t rows = batch * len;
  const size_t heads = config_.num_heads;
  const size_t head_dim = d / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  // Head-split packed projections: one (rows, d) x (d, head_dim) GEMM per
  // head per projection, writing per-head contiguous activations so the
  // attention GEMMs below read them in place (no per-sequence slice copies).
  // Column-sliced GEMMs accumulate exactly like the full-width GEMM (the k
  // reduction never depends on which output columns are computed), so this
  // stays bit-identical to the Tape path's full q/k/v projections.
  std::vector<Scratch> qh, kh, vh, head_out;
  {
    Scratch wslice(ctx, d, head_dim);
    Scratch bslice(ctx, 1, head_dim);
    const Linear* projections[3] = {&wq_, &wk_, &wv_};
    std::vector<Scratch>* outputs[3] = {&qh, &kh, &vh};
    for (int p = 0; p < 3; ++p) {
      for (size_t h = 0; h < heads; ++h) {
        const size_t c0 = h * head_dim;
        const la::Matrix& w = projections[p]->weight_values();
        CopyCols(w.data(), w.rows(), w.cols(), c0, head_dim, wslice->data());
        std::copy(projections[p]->bias_values().row(0) + c0,
                  projections[p]->bias_values().row(0) + c0 + head_dim,
                  bslice->row(0));
        outputs[p]->emplace_back(ctx, rows, head_dim);
        la::Matrix& out = *outputs[p]->back();
        out.Zero();
        la::kernels::GemmNN(rows, head_dim, d, x.data(), wslice->data(),
                            out.data(), ctx.pool());
        la::AddRowBroadcast(out, *bslice);
      }
    }
    for (size_t h = 0; h < heads; ++h) head_out.emplace_back(ctx, rows, head_dim);
  }

  // Attention mixes tokens within one sequence only, so sequences fan out
  // over the pool; each worker borrows its own scratch from the arena.
  util::ParallelFor(ctx.pool(), batch, [&](size_t begin, size_t end) {
    Scratch scores(ctx, len, len);
    for (size_t b = begin; b < end; ++b) {
      const size_t r0 = b * len;
      for (size_t h = 0; h < heads; ++h) {
        scores->Zero();
        la::kernels::GemmNT(len, len, head_dim, qh[h]->row(r0), kh[h]->row(r0),
                            scores->data());
        la::Scale(*scores, scale);
        infer::SoftmaxRowsInPlace(*scores);
        float* out = head_out[h]->row(r0);
        std::fill(out, out + len * head_dim, 0.0f);
        la::kernels::GemmNN(len, head_dim, len, scores->data(), vh[h]->row(r0),
                            out);
      }
    }
  });

  // Output projection, head-split: wo(merged) == sum over heads of
  // head_out_h x Wo[rows c0..c0+head_dim) — and because head_dim is a
  // multiple of the GEMM kernel's 4-step k-grouping, accumulating the heads
  // in ascending order reproduces the full GEMM's per-element float-add
  // sequence exactly. Falls back to materializing `merged` otherwise.
  Scratch attn(ctx, rows, d);
  if (head_dim % 4 == 0) {
    attn->Zero();
    for (size_t h = 0; h < heads; ++h) {
      la::kernels::GemmNN(rows, d, head_dim, head_out[h]->data(),
                          wo_.weight_values().row(h * head_dim), attn->data(),
                          ctx.pool());
    }
    la::AddRowBroadcast(*attn, wo_.bias_values());
  } else {
    Scratch merged(ctx, rows, d);
    for (size_t h = 0; h < heads; ++h) {
      const size_t c0 = h * head_dim;
      for (size_t r = 0; r < rows; ++r) {
        const float* src = head_out[h]->row(r);
        std::copy(src, src + head_dim, merged->row(r) + c0);
      }
    }
    attn = wo_.InferForward(ctx, *merged);
  }

  // Residual + post-LN; dropout is a no-op at inference.
  Scratch sum(ctx, rows, d);
  infer::AddInto(x, *attn, *sum);
  ln_attn_.InferForward(*sum, x);

  Scratch ffn_hidden = ffn_in_.InferForward(ctx, x);
  infer::GeluInPlace(*ffn_hidden);
  Scratch ffn = ffn_out_.InferForward(ctx, *ffn_hidden);
  infer::AddInto(x, *ffn, *sum);
  ln_ffn_.InferForward(*sum, x);
}

void TransformerLayer::InferForwardCls(autograd::InferenceContext& ctx,
                                       size_t batch, size_t len,
                                       const la::Matrix& x,
                                       la::Matrix& cls) const {
  namespace infer = autograd::infer;
  using autograd::Scratch;
  const size_t d = config_.dim;
  DIAL_CHECK_EQ(x.rows(), batch * len);
  DIAL_CHECK_EQ(x.cols(), d);
  DIAL_CHECK_EQ(cls.rows(), batch);
  DIAL_CHECK_EQ(cls.cols(), d);
  const size_t head_dim = d / config_.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  // CLS input rows, packed (batch, d): only these rows need q / FFN / LN.
  Scratch x0(ctx, batch, d);
  for (size_t b = 0; b < batch; ++b) {
    std::copy(x.row(b * len), x.row(b * len) + d, x0->row(b));
  }
  Scratch q = wq_.InferForward(ctx, *x0);  // (batch, d)
  Scratch k = wk_.InferForward(ctx, x);    // keys/values still span all tokens
  Scratch v = wv_.InferForward(ctx, x);
  Scratch merged(ctx, batch, d);

  util::ParallelFor(ctx.pool(), batch, [&](size_t begin, size_t end) {
    Scratch kh(ctx, len, head_dim);
    Scratch vh(ctx, len, head_dim);
    Scratch scores(ctx, 1, len);
    Scratch head_out(ctx, 1, head_dim);
    for (size_t b = begin; b < end; ++b) {
      const size_t r0 = b * len;
      for (size_t h = 0; h < config_.num_heads; ++h) {
        const size_t c0 = h * head_dim;
        for (size_t t = 0; t < len; ++t) {
          const float* kr = k->row(r0 + t) + c0;
          const float* vr = v->row(r0 + t) + c0;
          std::copy(kr, kr + head_dim, kh->row(t));
          std::copy(vr, vr + head_dim, vh->row(t));
        }
        // One query row: the same GemmNT/GemmNN accumulation as the full
        // (len, len) score matrix restricted to row 0.
        scores->Zero();
        la::kernels::GemmNT(1, len, head_dim, q->row(b) + c0, kh->data(),
                            scores->data());
        la::Scale(*scores, scale);
        infer::SoftmaxRowsInPlace(*scores);
        head_out->Zero();
        la::kernels::GemmNN(1, head_dim, len, scores->data(), vh->data(),
                            head_out->data());
        std::copy(head_out->row(0), head_out->row(0) + head_dim,
                  merged->row(b) + c0);
      }
    }
  });

  Scratch attn = wo_.InferForward(ctx, *merged);
  Scratch sum(ctx, batch, d);
  infer::AddInto(*x0, *attn, *sum);
  ln_attn_.InferForward(*sum, cls);

  Scratch ffn_hidden = ffn_in_.InferForward(ctx, cls);
  infer::GeluInPlace(*ffn_hidden);
  Scratch ffn = ffn_out_.InferForward(ctx, *ffn_hidden);
  infer::AddInto(cls, *ffn, *sum);
  ln_ffn_.InferForward(*sum, cls);
}

Var TransformerLayer::Forward(ForwardContext& ctx, Var x) {
  Var attn = SelfAttention(ctx, x);
  x = ln_attn_.Forward(ctx, x, attn, config_.dropout);
  Var ffn = FeedForward(ctx, x);
  return ln_ffn_.Forward(ctx, x, ffn, config_.dropout);
}

TransformerEncoder::TransformerEncoder(std::string name, TransformerConfig config,
                                       util::Rng& rng)
    : Module(name),
      config_(config),
      tokens_(name + ".tokens", config.vocab_size, config.dim, rng),
      positions_(name + ".positions", config.max_positions, config.dim, rng),
      segments_(name + ".segments", config.num_segments, config.dim, rng),
      ln_embed_(name + ".ln_embed", config.dim) {
  AddChild(&tokens_);
  AddChild(&positions_);
  AddChild(&segments_);
  AddChild(&ln_embed_);
  // Keep positional signal subordinate to lexical content (see config).
  la::Scale(positions_.table()->value, config.position_init_scale);
  for (size_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerLayer>(
        name + util::StrFormat(".layer%zu", i), config_, rng));
    AddChild(layers_.back().get());
  }
}

Var TransformerEncoder::Forward(ForwardContext& ctx, const std::vector<int>& ids,
                                const std::vector<int>& segment_ids,
                                Var* embed_out) {
  DIAL_CHECK_EQ(ids.size(), segment_ids.size());
  DIAL_CHECK_GT(ids.size(), 0u);
  DIAL_CHECK_LE(ids.size(), config_.max_positions);
  std::vector<int> pos_ids(ids.size());
  for (size_t i = 0; i < pos_ids.size(); ++i) pos_ids[i] = static_cast<int>(i);
  Var x = autograd::Add(
      autograd::Add(tokens_.Forward(ctx, ids), positions_.Forward(ctx, pos_ids)),
      segments_.Forward(ctx, segment_ids));
  x = ln_embed_.Forward(ctx, x);
  if (embed_out != nullptr) *embed_out = x;
  x = autograd::Dropout(x, config_.dropout, *ctx.rng, ctx.training);
  for (auto& layer : layers_) x = layer->Forward(ctx, x);
  return x;
}

void TransformerEncoder::InferForward(autograd::InferenceContext& ctx,
                                      const std::vector<int>& ids,
                                      const std::vector<int>& segment_ids,
                                      size_t batch, size_t len, la::Matrix& hidden,
                                      la::Matrix* embed_out,
                                      const InferOptions& options) const {
  namespace infer = autograd::infer;
  DIAL_CHECK_GT(batch, 0u);
  DIAL_CHECK_GT(len, 0u);
  DIAL_CHECK_LE(len, config_.max_positions);
  DIAL_CHECK_EQ(ids.size(), batch * len);
  DIAL_CHECK_EQ(segment_ids.size(), ids.size());
  const size_t d = config_.dim;
  DIAL_CHECK_EQ(hidden.rows(), batch * len);
  DIAL_CHECK_EQ(hidden.cols(), d);

  // Fused token + position + segment gather-add ((tok + pos) + seg, matching
  // the Tape path's Add(Add(...), ...) association), then the embedding LN.
  const la::Matrix& tok = tokens_.table()->value;
  const la::Matrix& pos = positions_.table()->value;
  const la::Matrix& seg = segments_.table()->value;
  autograd::Scratch sum(ctx, batch * len, d);
  for (size_t i = 0; i < batch * len; ++i) {
    DIAL_CHECK_GE(ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(ids[i]), tok.rows());
    DIAL_CHECK_GE(segment_ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(segment_ids[i]), seg.rows());
    const float* tr = tok.row(ids[i]);
    const float* pr = pos.row(i % len);
    const float* sr = seg.row(segment_ids[i]);
    float* out = sum->row(i);
    for (size_t c = 0; c < d; ++c) out[c] = (tr[c] + pr[c]) + sr[c];
  }
  ln_embed_.InferForward(*sum, hidden);
  if (embed_out != nullptr) {
    DIAL_CHECK_EQ(embed_out->rows(), batch * len);
    DIAL_CHECK_EQ(embed_out->cols(), d);
    std::copy(hidden.data(), hidden.data() + hidden.size(), embed_out->data());
  }
  if (options.embed_only || layers_.empty()) return;
  // Dropout is identity at inference; the layers update `hidden` in place.
  const size_t full_layers =
      options.cls_only_last ? layers_.size() - 1 : layers_.size();
  for (size_t i = 0; i < full_layers; ++i) {
    layers_[i]->InferForward(ctx, batch, len, hidden);
  }
  if (options.cls_only_last) {
    // Final layer: only each sequence's CLS row is ever read downstream.
    autograd::Scratch cls(ctx, batch, d);
    layers_.back()->InferForwardCls(ctx, batch, len, hidden, *cls);
    for (size_t b = 0; b < batch; ++b) {
      std::copy(cls->row(b), cls->row(b) + d, hidden.row(b * len));
    }
  }
}

}  // namespace dial::nn
