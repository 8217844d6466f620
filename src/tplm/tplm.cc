#include "tplm/tplm.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "autograd/inference.h"
#include "autograd/optim.h"
#include "autograd/ops.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dial::tplm {

using autograd::Var;

uint64_t TplmConfig::Fingerprint() const {
  uint64_t h = transformer.Fingerprint();
  h = util::HashCombine(h, max_single_len);
  h = util::HashCombine(h, max_pair_len);
  h = util::HashCombine(h, static_cast<uint64_t>(single_mode_last_weight * 1000));
  return h;
}

uint64_t PretrainOptions::Fingerprint() const {
  const std::string text = util::StrFormat(
      "e=%zu,b=%zu,lr=%.6f,s=%llu,pe=%zu,plr=%.6f,pd=%.3f,ps=%.3f,pr=%.3f,hn=1,pf=4d4a", epochs,
      batch_size, lr, static_cast<unsigned long long>(seed), pair_epochs, pair_lr,
      pair_drop_prob, pair_swap_prob, pair_replace_prob);
  return util::Fnv1a(text);
}

TplmModel::TplmModel(std::string name, TplmConfig config, uint64_t seed)
    : Module(name),
      config_(config),
      init_rng_(seed),
      encoder_(name + ".encoder", config.transformer, init_rng_) {
  AddChild(&encoder_);
}

Var TplmModel::EncodeSingle(nn::ForwardContext& ctx, const text::EncodedSequence& seq) {
  // First+last-layer average pooling: mean over tokens of the average of the
  // embedding-layer output and the final contextual layer. At small model
  // scales the embedding layer carries the lexical-overlap signal blocking
  // depends on, while the top layer contributes context — the standard
  // sentence-embedding pooling for compact LMs (Eq. 3's mean, applied to the
  // first/last mix).
  const float w = config_.single_mode_last_weight;
  Var first;
  Var last = encoder_.Forward(ctx, seq.ids, seq.segments, &first);
  if (w <= 0.0f) return autograd::MeanRows(first);
  return autograd::MeanRows(autograd::Add(autograd::ScalarMul(first, 1.0f - w),
                                          autograd::ScalarMul(last, w)));
}

Var TplmModel::EncodePair(nn::ForwardContext& ctx, const text::EncodedSequence& seq) {
  Var hidden = encoder_.Forward(ctx, seq.ids, seq.segments);
  return autograd::SliceRows(hidden, 0, 1);
}

namespace {

/// Contiguous-segment split point of a paired encoding: index of the first
/// segment-1 token. [0, split) is record r (incl. CLS and the first SEP),
/// [split, n) is record s. Shared by the tape and inference feature paths.
size_t PairSplit(const text::EncodedSequence& seq) {
  size_t split = seq.segments.size();
  for (size_t i = 0; i < seq.segments.size(); ++i) {
    if (seq.segments[i] == 1) {
      split = i;
      break;
    }
  }
  DIAL_CHECK_GT(split, 0u);
  DIAL_CHECK_LT(split, seq.segments.size());
  return split;
}

}  // namespace

Var TplmModel::EncodePairFeatures(nn::ForwardContext& ctx,
                                  const text::EncodedSequence& seq) {
  Var first;
  Var hidden = encoder_.Forward(ctx, seq.ids, seq.segments, &first);
  const size_t split = PairSplit(seq);
  const size_t n = seq.segments.size();
  Var cls = autograd::SliceRows(hidden, 0, 1);
  // Segment means over the lexical (embedding-layer) representation — the
  // same space single-mode blocking pools over.
  Var mean0 = autograd::MeanRows(autograd::SliceRows(first, 0, split));
  Var mean1 = autograd::MeanRows(autograd::SliceRows(first, split, n));
  Var diff = autograd::Abs(autograd::Sub(mean0, mean1));

  // Soft token-alignment features: per-token best cosine match in the other
  // record. The mean and worst-case alignment expose exactly the
  // "everything matches except one key token" evidence that separates true
  // duplicates from variant near-duplicates (the paper's book-edition
  // example) — evidence a small CLS bottleneck cannot carry on its own.
  // Alignment uses raw token-table embeddings (no position/segment/LN): an
  // identical piece in both records must align with cosine exactly 1.
  const size_t body0_begin = 1;                       // skip CLS
  const size_t body0_end = split > 2 ? split - 1 : split;  // skip first SEP
  const size_t body1_begin = split;
  const size_t body1_end = n > split + 1 ? n - 1 : n;      // skip final SEP
  std::vector<int> body0_ids(seq.ids.begin() + body0_begin,
                             seq.ids.begin() + std::max(body0_end, body0_begin + 1));
  std::vector<int> body1_ids(seq.ids.begin() + body1_begin,
                             seq.ids.begin() + std::max(body1_end, body1_begin + 1));
  autograd::Parameter* table = encoder_.token_embedding().table();
  Var f0 = autograd::NormalizeRows(
      autograd::EmbeddingGather(*ctx.tape, table, body0_ids));
  Var f1 = autograd::NormalizeRows(
      autograd::EmbeddingGather(*ctx.tape, table, body1_ids));
  Var sim = autograd::MatMulTransposeB(f1, f0);  // (n1, n0) cosine matrix
  Var best_1to0 = autograd::RowMax(sim);                       // (n1, 1)
  Var best_0to1 = autograd::RowMax(autograd::Transpose(sim));  // (n0, 1)
  Var align = autograd::ConcatCols({
      autograd::MeanRows(best_1to0),
      autograd::ScalarMul(autograd::RowMax(autograd::Transpose(
                              autograd::ScalarMul(best_1to0, -1.0f))),
                          -1.0f),  // min alignment s->r
      autograd::MeanRows(best_0to1),
      autograd::ScalarMul(autograd::RowMax(autograd::Transpose(
                              autograd::ScalarMul(best_0to1, -1.0f))),
                          -1.0f),  // min alignment r->s
  });
  return autograd::ConcatCols({cls, mean0, mean1, diff, align});
}

namespace {

/// Sequences per packed inference forward. Small on purpose: the
/// activation buffers of a pack must stay L2-resident (a 64-seq pack of
/// len-60 pairs measurably loses to packs of one on a 1 MB-L2 container),
/// while 8 still amortizes GEMM setup and feeds the pack-level ParallelFor
/// plenty of independent work.
constexpr size_t kMaxInferPack = 8;

/// One same-length pack of sequence indices (in input order).
struct InferPack {
  size_t len = 0;
  std::vector<size_t> idx;
};

/// Length-buckets `seqs` into packs of at most kMaxInferPack sequences.
/// Buckets are emitted in ascending length order; results never depend on
/// pack composition (per-sequence outputs are row-independent).
std::vector<InferPack> LengthPacks(
    const std::vector<const text::EncodedSequence*>& seqs) {
  std::map<size_t, std::vector<size_t>> by_len;
  for (size_t i = 0; i < seqs.size(); ++i) {
    DIAL_CHECK_EQ(seqs[i]->ids.size(), seqs[i]->segments.size());
    DIAL_CHECK_GT(seqs[i]->ids.size(), 0u);
    by_len[seqs[i]->ids.size()].push_back(i);
  }
  std::vector<InferPack> packs;
  for (const auto& [len, members] : by_len) {
    for (size_t begin = 0; begin < members.size(); begin += kMaxInferPack) {
      const size_t end = std::min(members.size(), begin + kMaxInferPack);
      InferPack pack;
      pack.len = len;
      pack.idx.assign(members.begin() + begin, members.begin() + end);
      packs.push_back(std::move(pack));
    }
  }
  return packs;
}

/// Packs a bucket's ids/segments back to back for the batched encoder.
void PackSequences(const std::vector<const text::EncodedSequence*>& seqs,
                   const InferPack& pack, std::vector<int>& ids,
                   std::vector<int>& segments) {
  const size_t len = pack.len;
  ids.resize(pack.idx.size() * len);
  segments.resize(ids.size());
  for (size_t b = 0; b < pack.idx.size(); ++b) {
    const text::EncodedSequence& seq = *seqs[pack.idx[b]];
    std::copy(seq.ids.begin(), seq.ids.end(), ids.begin() + b * len);
    std::copy(seq.segments.begin(), seq.segments.end(),
              segments.begin() + b * len);
  }
}

}  // namespace

la::Matrix TplmModel::EncodeSingleBatch(
    autograd::InferenceContext& ctx,
    const std::vector<const text::EncodedSequence*>& seqs) const {
  namespace infer = autograd::infer;
  const size_t d = config_.transformer.dim;
  la::Matrix out(seqs.size(), d);
  if (seqs.empty()) return out;
  const float w = config_.single_mode_last_weight;
  // Single-mode pooling reads only the embedding layer when the last-layer
  // weight is zero (the default), so the engine prunes the whole attention
  // stack — the Tape path computes and discards it.
  nn::TransformerEncoder::InferOptions options;
  options.embed_only = w <= 0.0f;
  const std::vector<InferPack> packs = LengthPacks(seqs);
  // Packs are independent; fan them out over the pool (nested parallelism
  // inside the encoder degrades to inline execution on pool workers).
  util::ParallelFor(ctx.pool(), packs.size(), [&](size_t begin, size_t end) {
    std::vector<int> ids;
    std::vector<int> segments;
    for (size_t p = begin; p < end; ++p) {
      const InferPack& pack = packs[p];
      const size_t batch = pack.idx.size();
      const size_t len = pack.len;
      PackSequences(seqs, pack, ids, segments);
      autograd::Scratch hidden(ctx, batch * len, d);
      autograd::Scratch first(ctx, batch * len, d);
      encoder_.InferForward(ctx, ids, segments, batch, len, *hidden, &*first,
                            options);
      if (w <= 0.0f) {
        for (size_t b = 0; b < batch; ++b) {
          infer::MeanRowsInto(*first, b * len, len, out.row(pack.idx[b]));
        }
      } else {
        // Mirrors MeanRows(Add(ScalarMul(first, 1-w), ScalarMul(last, w)))
        // as three separate elementwise passes — keeping the multiply and
        // add in distinct loops exactly like the tape ops, so no mul-add
        // contraction can diverge from the tape path.
        autograd::Scratch mix_a(ctx, len, d);
        autograd::Scratch mix_b(ctx, len, d);
        for (size_t b = 0; b < batch; ++b) {
          const float* fr = first->row(b * len);
          const float* lr = hidden->row(b * len);
          float* ma = mix_a->data();
          float* mb = mix_b->data();
          for (size_t i = 0; i < len * d; ++i) ma[i] = fr[i] * (1.0f - w);
          for (size_t i = 0; i < len * d; ++i) mb[i] = lr[i] * w;
          for (size_t i = 0; i < len * d; ++i) ma[i] = ma[i] + mb[i];
          infer::MeanRowsInto(*mix_a, 0, len, out.row(pack.idx[b]));
        }
      }
    }
  });
  return out;
}

void TplmModel::InferAlignFeatures(autograd::InferenceContext& ctx,
                                   const text::EncodedSequence& seq, size_t split,
                                   float* out4) const {
  namespace infer = autograd::infer;
  const size_t n = seq.segments.size();
  const size_t body0_begin = 1;                            // skip CLS
  const size_t body0_end = split > 2 ? split - 1 : split;  // skip first SEP
  const size_t body1_begin = split;
  const size_t body1_end = n > split + 1 ? n - 1 : n;  // skip final SEP
  const size_t n0 = std::max(body0_end, body0_begin + 1) - body0_begin;
  const size_t n1 = std::max(body1_end, body1_begin + 1) - body1_begin;
  const la::Matrix& table = encoder_.token_embedding().table()->value;
  const size_t d = table.cols();
  autograd::Scratch f0(ctx, n0, d);
  autograd::Scratch f1(ctx, n1, d);
  for (size_t i = 0; i < n0; ++i) {
    const float* src = table.row(seq.ids[body0_begin + i]);
    std::copy(src, src + d, f0->row(i));
  }
  for (size_t i = 0; i < n1; ++i) {
    const float* src = table.row(seq.ids[body1_begin + i]);
    std::copy(src, src + d, f1->row(i));
  }
  infer::NormalizeRowsInPlace(*f0);
  infer::NormalizeRowsInPlace(*f1);
  autograd::Scratch sim(ctx, n1, n0);  // (n1, n0) cosine matrix
  infer::MatMulTransposeB(*f1, *f0, *sim, ctx.pool());

  // mean / min of the per-row best matches, mirroring the Tape graph's
  // RowMax (strict >, first index wins) + MeanRows and the negate-max-negate
  // minimum. best_1to0 scans rows of sim; best_0to1 scans its columns
  // (= rows of the transpose).
  float acc_1to0 = 0.0f;
  float neg_max_1to0 = 0.0f;
  for (size_t r = 0; r < n1; ++r) {
    const float* row = sim->row(r);
    float best = row[0];
    for (size_t c = 1; c < n0; ++c) {
      if (row[c] > best) best = row[c];
    }
    acc_1to0 += best;
    if (r == 0 || -best > neg_max_1to0) neg_max_1to0 = -best;
  }
  float acc_0to1 = 0.0f;
  float neg_max_0to1 = 0.0f;
  for (size_t c = 0; c < n0; ++c) {
    float best = (*sim)(0, c);
    for (size_t r = 1; r < n1; ++r) {
      if ((*sim)(r, c) > best) best = (*sim)(r, c);
    }
    acc_0to1 += best;
    if (c == 0 || -best > neg_max_0to1) neg_max_0to1 = -best;
  }
  out4[0] = acc_1to0 * (1.0f / static_cast<float>(n1));
  out4[1] = -neg_max_1to0;  // min alignment s->r
  out4[2] = acc_0to1 * (1.0f / static_cast<float>(n0));
  out4[3] = -neg_max_0to1;  // min alignment r->s
}

la::Matrix TplmModel::EncodePairFeaturesBatch(
    autograd::InferenceContext& ctx,
    const std::vector<const text::EncodedSequence*>& seqs) const {
  namespace infer = autograd::infer;
  const size_t d = config_.transformer.dim;
  la::Matrix out(seqs.size(), pair_feature_dim());
  if (seqs.empty()) return out;
  // Downstream reads only each sequence's CLS row of the last layer (plus
  // the embedding layer), so the final layer runs in CLS-only mode.
  nn::TransformerEncoder::InferOptions options;
  options.cls_only_last = true;
  const std::vector<InferPack> packs = LengthPacks(seqs);
  util::ParallelFor(ctx.pool(), packs.size(), [&](size_t begin, size_t end) {
    std::vector<int> ids;
    std::vector<int> segments;
    for (size_t p = begin; p < end; ++p) {
      const InferPack& pack = packs[p];
      const size_t batch = pack.idx.size();
      const size_t len = pack.len;
      PackSequences(seqs, pack, ids, segments);
      autograd::Scratch hidden(ctx, batch * len, d);
      autograd::Scratch first(ctx, batch * len, d);
      encoder_.InferForward(ctx, ids, segments, batch, len, *hidden, &*first,
                            options);
      for (size_t b = 0; b < batch; ++b) {
        const text::EncodedSequence& seq = *seqs[pack.idx[b]];
        const size_t split = PairSplit(seq);
        float* orow = out.row(pack.idx[b]);
        // [CLS ; mean(seg0) ; mean(seg1) ; |mean0 - mean1| ; align(4)]
        std::copy(hidden->row(b * len), hidden->row(b * len) + d, orow);
        infer::MeanRowsInto(*first, b * len, split, orow + d);
        infer::MeanRowsInto(*first, b * len + split, len - split, orow + 2 * d);
        for (size_t c = 0; c < d; ++c) {
          orow[3 * d + c] = std::fabs(orow[d + c] - orow[2 * d + c]);
        }
        InferAlignFeatures(ctx, seq, split, orow + 4 * d);
      }
    }
  });
  return out;
}

namespace {

/// BERT's dynamic masking of `ids`: each non-special piece is picked with
/// probability mask_prob, and a picked piece becomes [MASK] 80% of the
/// time, a random piece 10% and stays itself 10%. Fills `corrupted`, and
/// `targets` with the original id at each picked position and -1
/// elsewhere; returns how many pieces were picked. MlmLoss and EvalMlmLoss
/// both mask through it, so they consume the rng stream in lockstep and
/// eval losses are comparable step for step.
size_t MaskForMlm(const std::vector<int>& ids, size_t vocab, float mask_prob,
                  util::Rng& rng, std::vector<int>& corrupted,
                  std::vector<int>& targets) {
  corrupted = ids;
  targets.assign(ids.size(), -1);
  size_t masked = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < text::SpecialIds::kCount) continue;  // skip specials
    if (!rng.Bernoulli(mask_prob)) continue;
    targets[i] = ids[i];
    ++masked;
    const double roll = rng.Uniform();
    if (roll < 0.8) {
      corrupted[i] = text::SpecialIds::kMask;
    } else if (roll < 0.9) {
      corrupted[i] = static_cast<int>(
          text::SpecialIds::kCount +
          rng.UniformInt(vocab - text::SpecialIds::kCount));
    }  // else keep
  }
  return masked;
}

}  // namespace

double TplmModel::EvalMlmLoss(autograd::InferenceContext& ctx,
                              const text::EncodedSequence& seq, util::Rng& rng,
                              float mask_prob) const {
  namespace infer = autograd::infer;
  const size_t vocab = config_.transformer.vocab_size;
  std::vector<int> corrupted;
  std::vector<int> targets;
  if (MaskForMlm(seq.ids, vocab, mask_prob, rng, corrupted, targets) == 0) {
    return -1.0;
  }
  const size_t len = corrupted.size();
  const size_t d = config_.transformer.dim;
  autograd::Scratch hidden(ctx, len, d);
  encoder_.InferForward(ctx, corrupted, seq.segments, 1, len, *hidden);
  // Tied-weight output projection + the SoftmaxCrossEntropy forward.
  const la::Matrix& table = encoder_.token_embedding().table()->value;
  autograd::Scratch logits(ctx, len, vocab);
  infer::MatMulTransposeB(*hidden, table, *logits, ctx.pool());
  size_t valid = 0;
  double loss = 0.0;
  for (size_t i = 0; i < len; ++i) {
    if (targets[i] < 0) continue;
    ++valid;
    const float* row = logits->row(i);
    float mx = row[0];
    for (size_t c = 1; c < vocab; ++c) mx = std::max(mx, row[c]);
    float acc = 0.0f;
    for (size_t c = 0; c < vocab; ++c) acc += std::exp(row[c] - mx);
    loss += (mx + std::log(acc)) - row[targets[i]];
  }
  return static_cast<float>(loss / static_cast<double>(valid));
}

Var TplmModel::MlmLoss(nn::ForwardContext& ctx, const text::EncodedSequence& seq,
                       util::Rng& rng, float mask_prob) {
  std::vector<int> corrupted;
  std::vector<int> targets;
  if (MaskForMlm(seq.ids, config_.transformer.vocab_size, mask_prob, rng,
                 corrupted, targets) == 0) {
    return Var();
  }
  Var hidden = encoder_.Forward(ctx, corrupted, seq.segments);
  // Tied-weight output projection: logits = hidden @ E^T.
  Var table = ctx.tape->Leaf(encoder_.token_embedding().table());
  Var logits = autograd::MatMulTransposeB(hidden, table);
  return autograd::SoftmaxCrossEntropy(logits, targets);
}

PretrainStats PretrainMlm(TplmModel& model, const text::SubwordVocab& vocab,
                          const std::vector<std::string>& corpus,
                          const PretrainOptions& options) {
  DIAL_CHECK(!corpus.empty());
  util::Rng rng(options.seed);
  // Pre-encode the corpus once.
  std::vector<text::EncodedSequence> sequences;
  sequences.reserve(corpus.size());
  for (const std::string& line : corpus) {
    sequences.push_back(vocab.EncodeSingle(line, model.config().max_single_len));
  }

  autograd::AdamW optimizer({{model.Parameters(), options.lr}});
  const size_t batches_per_epoch =
      (sequences.size() + options.batch_size - 1) / options.batch_size;
  autograd::LinearSchedule schedule(
      static_cast<int64_t>(batches_per_epoch * options.epochs));

  PretrainStats stats;
  std::vector<size_t> order(sequences.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  bool first_batch = true;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t begin = 0; begin < order.size(); begin += options.batch_size) {
      const size_t end = std::min(order.size(), begin + options.batch_size);
      autograd::Tape tape;
      nn::ForwardContext ctx{&tape, &rng, /*training=*/true};
      std::vector<Var> losses;
      for (size_t i = begin; i < end; ++i) {
        Var loss = model.MlmLoss(ctx, sequences[order[i]], rng);
        if (loss.valid()) losses.push_back(loss);
      }
      if (losses.empty()) continue;
      Var total = autograd::ScalarMul(autograd::AddN(losses),
                                      1.0f / static_cast<float>(losses.size()));
      optimizer.ZeroGrad();
      tape.Backward(total);
      optimizer.Step(schedule.Multiplier(optimizer.steps_taken()));
      stats.final_loss = total.scalar();
      if (first_batch) {
        stats.initial_loss = stats.final_loss;
        first_batch = false;
      }
      ++stats.steps;
      if (options.log_every > 0 && stats.steps % options.log_every == 0) {
        DIAL_LOG_INFO << "MLM pretrain step " << stats.steps
                      << " loss=" << stats.final_loss;
      }
    }
  }
  return stats;
}

PretrainStats PretrainPairDiscrimination(TplmModel& model,
                                         const text::SubwordVocab& vocab,
                                         const std::vector<std::string>& corpus,
                                         const PretrainOptions& options) {
  PretrainStats stats;
  if (options.pair_epochs == 0 || corpus.size() < 2) return stats;
  util::Rng rng(options.seed ^ 0x9a129a12ULL);

  // Pre-encode raw piece lists (no specials) once.
  const size_t body_budget = (model.config().max_pair_len - 3) / 2;
  std::vector<std::vector<int>> pieces;
  pieces.reserve(corpus.size());
  for (const std::string& line : corpus) {
    pieces.push_back(vocab.EncodeText(line, body_budget));
  }

  /// Perturbed copy: per-piece drop / adjacent swap / random replacement.
  auto perturb = [&](const std::vector<int>& src) {
    std::vector<int> out;
    out.reserve(src.size());
    for (const int id : src) {
      if (out.size() + 1 < src.size() && rng.Bernoulli(options.pair_drop_prob)) {
        continue;
      }
      if (rng.Bernoulli(options.pair_replace_prob)) {
        out.push_back(static_cast<int>(
            text::SpecialIds::kCount +
            rng.UniformInt(vocab.size() - text::SpecialIds::kCount)));
      } else {
        out.push_back(id);
      }
    }
    if (out.empty()) out.push_back(text::SpecialIds::kUnk);
    for (size_t i = 0; i + 1 < out.size(); ++i) {
      if (rng.Bernoulli(options.pair_swap_prob)) std::swap(out[i], out[i + 1]);
    }
    return out;
  };

  // Synthetic hard negative: a "sibling" of x produced by mutating its key
  // pieces — digit-bearing pieces (model numbers, years, prices) and, when
  // absent, a couple of random pieces. Guaranteed non-duplicate while
  // sharing most context, mirroring the variant/edition near-duplicates the
  // paper's matcher must separate (Sec. 2.2.1's book-edition example).
  auto mutate_keys = [&](std::vector<int> src) {
    auto is_digit_piece = [&](int id) {
      const std::string& p = vocab.piece(id);
      for (const char c : p) {
        if (c >= '0' && c <= '9') return true;
      }
      return false;
    };
    size_t mutated = 0;
    for (auto& id : src) {
      if (is_digit_piece(id) && rng.Bernoulli(0.6)) {
        // Swap in a different digit-bearing piece.
        for (int tries = 0; tries < 8; ++tries) {
          const int candidate = static_cast<int>(
              text::SpecialIds::kCount +
              rng.UniformInt(vocab.size() - text::SpecialIds::kCount));
          if (candidate != id && is_digit_piece(candidate)) {
            id = candidate;
            ++mutated;
            break;
          }
        }
      }
    }
    while (mutated < 2 && !src.empty()) {
      auto& id = src[rng.UniformInt(src.size())];
      id = static_cast<int>(text::SpecialIds::kCount +
                            rng.UniformInt(vocab.size() - text::SpecialIds::kCount));
      ++mutated;
    }
    return src;
  };

  // Throwaway head (the matcher re-initializes its own head later; only the
  // transformer body keeps what SPD teaches).
  util::Rng head_rng(options.seed ^ 0x51d51dULL);
  const size_t d = model.config().transformer.dim;
  nn::Linear head_dense("spd.dense", model.pair_feature_dim(), d, head_rng);
  nn::Linear head_out("spd.out", d, 1, head_rng);

  std::vector<autograd::Parameter*> head_params = head_dense.Parameters();
  for (autograd::Parameter* p : head_out.Parameters()) head_params.push_back(p);
  autograd::AdamW optimizer(
      {{head_params, 1e-3f}, {model.Parameters(), options.pair_lr}});
  const size_t steps_per_epoch =
      (corpus.size() + options.batch_size - 1) / options.batch_size;
  autograd::LinearSchedule schedule(
      static_cast<int64_t>(steps_per_epoch * options.pair_epochs));

  std::vector<size_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  bool first = true;
  size_t final_correct = 0;
  size_t final_total = 0;
  for (size_t epoch = 0; epoch < options.pair_epochs; ++epoch) {
    rng.Shuffle(order);
    const bool last_epoch = epoch + 1 == options.pair_epochs;
    for (size_t begin = 0; begin < order.size(); begin += options.batch_size) {
      const size_t end = std::min(order.size(), begin + options.batch_size);
      autograd::Tape tape;
      nn::ForwardContext ctx{&tape, &rng, /*training=*/true};
      std::vector<autograd::Var> logits;
      std::vector<float> targets;
      for (size_t i = begin; i < end; ++i) {
        const size_t a = order[i];
        const bool positive = rng.Bernoulli(0.5);
        std::vector<int> other;
        if (positive) {
          other = perturb(pieces[a]);
        } else if (rng.Bernoulli(0.5)) {
          // Hard negative: synthetic sibling of x (keys mutated).
          other = mutate_keys(perturb(pieces[a]));
        } else {
          // Easy negative: a different record.
          size_t b = rng.UniformInt(pieces.size());
          if (b == a) b = (b + 1) % pieces.size();
          other = pieces[b];
        }
        const text::EncodedSequence seq = text::SubwordVocab::BuildPairFromPieces(
            pieces[a], other, model.config().max_pair_len);
        autograd::Var cls = model.EncodePairFeatures(ctx, seq);
        autograd::Var h = autograd::Tanh(head_dense.Forward(ctx, cls));
        logits.push_back(head_out.Forward(ctx, h));
        targets.push_back(positive ? 1.0f : 0.0f);
      }
      autograd::Var batch_logits = autograd::ConcatRows(logits);
      autograd::Var loss = autograd::BceWithLogits(batch_logits, targets);
      optimizer.ZeroGrad();
      tape.Backward(loss);
      optimizer.Step(schedule.Multiplier(optimizer.steps_taken()));
      stats.pair_final_loss = loss.scalar();
      if (first) {
        stats.pair_initial_loss = stats.pair_final_loss;
        first = false;
      }
      if (last_epoch) {
        for (size_t i = 0; i < targets.size(); ++i) {
          const bool pred = batch_logits.value()(i, 0) > 0.0f;
          final_correct += pred == (targets[i] > 0.5f);
          ++final_total;
        }
      }
    }
  }
  if (final_total > 0) {
    stats.pair_accuracy =
        static_cast<double>(final_correct) / static_cast<double>(final_total);
  }
  return stats;
}

PretrainStats Pretrain(TplmModel& model, const text::SubwordVocab& vocab,
                       const std::vector<std::string>& corpus,
                       const PretrainOptions& options) {
  PretrainStats stats = PretrainMlm(model, vocab, corpus, options);
  const PretrainStats pair = PretrainPairDiscrimination(model, vocab, corpus, options);
  stats.pair_initial_loss = pair.pair_initial_loss;
  stats.pair_final_loss = pair.pair_final_loss;
  stats.pair_accuracy = pair.pair_accuracy;
  return stats;
}

}  // namespace dial::tplm
