#include "nn/transformer.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/hash.h"
#include "util/string_util.h"

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

void TransformerLayer::AttentionInto(const float* xq, const float* x,
                                     size_t batch, size_t len, size_t q_len,
                                     const AttentionBuffers& buf, util::Rng* rng,
                                     float* out, util::ThreadPool* pool) const {
  const size_t d = config_.dim;
  const size_t heads = config_.num_heads;
  const size_t head_dim = d / heads;
  const size_t probs_size = q_len * len;  // one head's (q_len, len)
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  float* k_proj = buf.kv;
  float* v_proj = buf.kv + batch * len * d;
  wq_.ForwardInto(xq, batch * q_len, buf.merged, pool);
  wk_.ForwardInto(x, batch * len, k_proj, pool);
  wv_.ForwardInto(x, batch * len, v_proj, pool);
  for (size_t b = 0; b < batch; ++b) {
    // Sequence b's rows of `merged` hold its q projection until the heads'
    // outputs overwrite them, so every head is split first.
    float* merged = buf.merged + b * q_len * d;
    float* q = buf.qkv;
    float* k = q + q_len * d;
    float* v = k + len * d;
    for (size_t h = 0; h < heads; ++h) {
      const size_t c0 = h * head_dim;
      CopyCols(merged, q_len, d, c0, head_dim, q + h * q_len * head_dim);
      CopyCols(k_proj + b * len * d, len, d, c0, head_dim, k + h * len * head_dim);
      CopyCols(v_proj + b * len * d, len, d, c0, head_dim, v + h * len * head_dim);
    }
    for (size_t h = 0; h < heads; ++h) {
      float* a = buf.probs + h * probs_size;
      float* dropped = buf.dropped + h * probs_size;
      std::fill(a, a + probs_size, 0.0f);
      la::kernels::GemmNT(q_len, len, head_dim, q + h * q_len * head_dim,
                          k + h * len * head_dim, a);
      for (size_t i = 0; i < probs_size; ++i) a[i] *= scale;
      autograd::infer::SoftmaxRowsInPlace(a, q_len, len);
      if (buf.masks != nullptr) {
        float* mask = buf.masks + h * probs_size;
        autograd::DropoutMask(config_.dropout, *rng, mask, probs_size);
        for (size_t i = 0; i < probs_size; ++i) dropped[i] = a[i] * mask[i];
      }
      std::fill(buf.head_out, buf.head_out + q_len * head_dim, 0.0f);
      la::kernels::GemmNN(q_len, head_dim, len, dropped, v + h * len * head_dim,
                          buf.head_out);
      PlaceCols(buf.head_out, q_len, head_dim, d, h * head_dim, merged);
    }
  }
  wo_.ForwardInto(buf.merged, batch * q_len, out, pool);
}

Var TransformerLayer::SelfAttention(ForwardContext& ctx, Var x) {
  autograd::Tape& tape = *ctx.tape;
  const size_t len = x.rows();
  const size_t d = config_.dim;
  const size_t probs_size = config_.num_heads * len * len;
  const bool dropout = ctx.training && config_.dropout > 0.0f;
  DIAL_CHECK_EQ(x.cols(), d);

  // Saved for the backward: q, k and v split into per-head (len, head_dim)
  // blocks, each head's attention probabilities, their dropout masks and
  // the dropped probabilities the value GEMM read, and the merged head
  // outputs.
  AttentionBuffers buf;
  buf.merged = tape.Alloc(len * d);
  buf.kv = tape.Alloc(2 * len * d);
  buf.qkv = tape.Alloc(3 * len * d);
  buf.probs = tape.Alloc(probs_size);
  buf.masks = dropout ? tape.Alloc(probs_size) : nullptr;
  buf.dropped = dropout ? tape.Alloc(probs_size) : buf.probs;
  buf.head_out = tape.Alloc(len * d / config_.num_heads);
  la::Matrix out(len, d);
  AttentionInto(x.value().data(), x.value().data(), 1, len, len, buf, ctx.rng,
                out.data(), nullptr);

  autograd::Node* node = tape.NewNode(std::move(out), /*requires_grad=*/true);
  autograd::Node* in = x.node();
  node->backward = [this, node, in, qkv = buf.qkv, probs = buf.probs,
                    masks = buf.masks, dropped = buf.dropped,
                    merged = buf.merged]() {
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

void TransformerLayer::FeedForwardInto(const float* x, size_t rows, float* pre,
                                       float* gelu_tanh, float* act, float* out,
                                       util::ThreadPool* pool) const {
  const size_t size = rows * config_.ffn_dim;
  ffn_in_.ForwardInto(x, rows, pre, pool);
  for (size_t i = 0; i < size; ++i) {
    const float t = autograd::GeluTanh(pre[i]);
    if (gelu_tanh != nullptr) gelu_tanh[i] = t;
    act[i] = 0.5f * pre[i] * (1.0f + t);
  }
  ffn_out_.ForwardInto(act, rows, out, pool);
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
  la::Matrix out(len, config_.dim);
  FeedForwardInto(x.value().data(), len, pre, gelu_tanh, act, out.data(), nullptr);

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
                                    size_t len, const la::Matrix& x,
                                    bool cls_only, la::Matrix& out) const {
  using autograd::Scratch;
  const size_t d = config_.dim;
  const size_t heads = config_.num_heads;
  const size_t q_len = cls_only ? 1 : len;
  const size_t rows = batch * q_len;
  DIAL_CHECK_EQ(x.rows(), batch * len);
  DIAL_CHECK_EQ(x.cols(), d);
  DIAL_CHECK_EQ(out.rows(), rows);
  DIAL_CHECK_EQ(out.cols(), d);
  // The CLS rows are the queries and the residual input; gathered into
  // `out`, they become the layer's output in place.
  if (cls_only) {
    for (size_t b = 0; b < batch; ++b) {
      std::copy(x.row(b * len), x.row(b * len) + d, out.row(b));
    }
  }
  const float* xq = cls_only ? out.data() : x.data();
  // k/v is a block apart from q because its shape is the same in a pack's
  // full and CLS layers, so the arena keeps one of it.
  Scratch merged(ctx, rows, d);
  Scratch kv(ctx, 2 * batch * len, d);
  Scratch qkv(ctx, q_len + 2 * len, d);
  Scratch probs(ctx, heads * q_len, len);
  Scratch head_out(ctx, q_len, d / heads);
  Scratch sub(ctx, rows, d);  // each sublayer's output
  const AttentionBuffers buf = {merged->data(),   kv->data(),
                                qkv->data(),      probs->data(),
                                /*masks=*/nullptr, /*dropped=*/probs->data(),
                                head_out->data()};
  AttentionInto(xq, x.data(), batch, len, q_len, buf, nullptr, sub->data(),
                ctx.pool());
  // Residual + post-LN; dropout is a no-op at inference.
  ln_attn_.ForwardInto(xq, sub->data(), nullptr, rows, out.data(), nullptr,
                       out.data());
  Scratch pre(ctx, rows, config_.ffn_dim);
  FeedForwardInto(out.data(), rows, pre->data(), nullptr, pre->data(),
                  sub->data(), ctx.pool());
  ln_ffn_.ForwardInto(out.data(), sub->data(), nullptr, rows, out.data(),
                      nullptr, out.data());
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
  DIAL_CHECK_GT(batch, 0u);
  DIAL_CHECK_GT(len, 0u);
  DIAL_CHECK_LE(len, config_.max_positions);
  DIAL_CHECK_EQ(ids.size(), batch * len);
  DIAL_CHECK_EQ(segment_ids.size(), ids.size());
  const size_t d = config_.dim;
  DIAL_CHECK_EQ(hidden.rows(), batch * len);
  DIAL_CHECK_EQ(hidden.cols(), d);

  // Fused token + position + segment gather-add ((tok + pos) + seg, matching
  // the Tape path's Add(Add(...), ...) association) into `hidden`, then the
  // embedding LN in place.
  const la::Matrix& tok = tokens_.table()->value;
  const la::Matrix& pos = positions_.table()->value;
  const la::Matrix& seg = segments_.table()->value;
  for (size_t i = 0; i < batch * len; ++i) {
    DIAL_CHECK_GE(ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(ids[i]), tok.rows());
    DIAL_CHECK_GE(segment_ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(segment_ids[i]), seg.rows());
    const float* tr = tok.row(ids[i]);
    const float* pr = pos.row(i % len);
    const float* sr = seg.row(segment_ids[i]);
    float* out = hidden.row(i);
    for (size_t c = 0; c < d; ++c) out[c] = (tr[c] + pr[c]) + sr[c];
  }
  ln_embed_.ForwardInto(hidden.data(), nullptr, nullptr, batch * len,
                        hidden.data(), nullptr, hidden.data());
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
    layers_[i]->InferForward(ctx, batch, len, hidden, /*cls_only=*/false, hidden);
  }
  if (options.cls_only_last) {
    // Final layer: only each sequence's CLS row is ever read downstream.
    autograd::Scratch cls(ctx, batch, d);
    layers_.back()->InferForward(ctx, batch, len, hidden, /*cls_only=*/true,
                                 *cls);
    for (size_t b = 0; b < batch; ++b) {
      std::copy(cls->row(b), cls->row(b) + d, hidden.row(b * len));
    }
  }
}

}  // namespace dial::nn
