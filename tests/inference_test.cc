// Parity and determinism contract of the tape-free batched inference engine
// (autograd::InferenceContext + the InferForward paths):
//  - per-layer and end-to-end bit-identity with the Tape forward (dropout
//    off): Linear, LayerNorm, TransformerLayer, encoder, matcher
//    probabilities / BADGE rows / representations, SBERT embeddings,
//    committee transforms and vote entropy, TPLM eval loss — the Tape side
//    is driven through each layer's differentiable Forward directly;
//  - batched == one-at-a-time across ragged length buckets (packing never
//    changes a sequence's result);
//  - bit-identity across 0/2/8 worker threads;
//  - arena reuse: repeat calls allocate nothing new.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/inference.h"
#include "autograd/ops.h"
#include "core/committee.h"
#include "core/encodings.h"
#include "core/matcher.h"
#include "core/sbert.h"
#include "core/selectors.h"
#include "data/dataset.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "tplm/tplm.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace dial {
namespace {

void ExpectBitEqual(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

tplm::TplmConfig SmallConfig(size_t vocab = 96) {
  tplm::TplmConfig config;
  config.transformer.vocab_size = vocab;
  config.transformer.dim = 16;
  config.transformer.num_layers = 2;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 32;
  return config;
}

/// [CLS, body..., SEP], all segment 0.
text::EncodedSequence SingleSeq(size_t body, uint64_t seed, size_t vocab) {
  util::Rng rng(seed);
  text::EncodedSequence seq;
  seq.ids.push_back(text::SpecialIds::kCls);
  for (size_t i = 0; i < body; ++i) {
    seq.ids.push_back(static_cast<int>(
        text::SpecialIds::kCount +
        rng.UniformInt(vocab - text::SpecialIds::kCount)));
  }
  seq.ids.push_back(text::SpecialIds::kSep);
  seq.segments.assign(seq.ids.size(), 0);
  return seq;
}

/// [CLS, a..., SEP | b..., SEP] with segments 0...0 1...1.
text::EncodedSequence PairSeq(size_t body0, size_t body1, uint64_t seed,
                              size_t vocab) {
  util::Rng rng(seed);
  auto piece = [&] {
    return static_cast<int>(text::SpecialIds::kCount +
                            rng.UniformInt(vocab - text::SpecialIds::kCount));
  };
  text::EncodedSequence seq;
  seq.ids.push_back(text::SpecialIds::kCls);
  for (size_t i = 0; i < body0; ++i) seq.ids.push_back(piece());
  seq.ids.push_back(text::SpecialIds::kSep);
  const size_t split = seq.ids.size();
  for (size_t i = 0; i < body1; ++i) seq.ids.push_back(piece());
  seq.ids.push_back(text::SpecialIds::kSep);
  seq.segments.assign(split, 0);
  seq.segments.resize(seq.ids.size(), 1);
  return seq;
}

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m(rows, cols);
  m.RandNormal(rng, 1.0f);
  return m;
}

// ---------------------------------------------------------------- per layer

TEST(InferenceLayers, LinearMatchesTape) {
  util::Rng rng(7);
  nn::Linear linear("lin", 12, 8, rng);
  const la::Matrix x = RandomMatrix(5, 12, 21);

  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  const la::Matrix expected = linear.Forward(tctx, tape.Constant(x)).value();

  autograd::InferenceContext ctx;
  autograd::Scratch got = linear.InferForward(ctx, x);
  ExpectBitEqual(expected, *got);
}

TEST(InferenceLayers, LayerNormMatchesTape) {
  util::Rng rng(7);
  nn::LayerNorm ln("ln", 10);
  // Non-trivial affine parameters.
  auto params = ln.Parameters();
  params[0]->value.RandNormal(rng, 0.5f);
  params[1]->value.RandNormal(rng, 0.5f);
  const la::Matrix x = RandomMatrix(6, 10, 22);

  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  const la::Matrix expected = ln.Forward(tctx, tape.Constant(x)).value();

  la::Matrix got(6, 10);
  ln.ForwardInto(x.data(), nullptr, nullptr, 6, got.data(), nullptr, got.data());
  ExpectBitEqual(expected, got);
}

TEST(InferenceLayers, TransformerLayerMatchesTapePerSequence) {
  // head_dim 8 (dim 16 / heads 2) is a multiple of the GEMM's 4-step k
  // grouping; head_dim 6 (dim 12 / heads 2) is not.
  const size_t dims[][2] = {{16, 2}, {12, 2}};
  for (const auto& shape : dims) {
    nn::TransformerConfig config;
    config.dim = shape[0];
    config.num_heads = shape[1];
    config.ffn_dim = 2 * config.dim;
    util::Rng rng(11);
    nn::TransformerLayer layer("layer", config, rng);

    // Three same-length sequences packed into one batched call vs three
    // independent tape forwards.
    const size_t len = 7;
    const size_t batch = 3;
    la::Matrix packed(batch * len, config.dim);
    std::vector<la::Matrix> expected;
    for (size_t b = 0; b < batch; ++b) {
      const la::Matrix x = RandomMatrix(len, config.dim, 100 + b);
      std::copy(x.data(), x.data() + x.size(), packed.row(b * len));
      autograd::Tape tape;
      util::Rng tape_rng(1);
      nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
      expected.push_back(layer.Forward(tctx, tape.Constant(x)).value());
    }
    autograd::InferenceContext ctx;
    layer.InferForward(ctx, batch, len, packed, /*cls_only=*/false, packed);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t t = 0; t < len; ++t) {
        for (size_t c = 0; c < config.dim; ++c) {
          ASSERT_EQ(expected[b](t, c), packed(b * len + t, c))
              << "dim " << config.dim << " seq " << b << " token " << t
              << " col " << c;
        }
      }
    }
  }
}

TEST(InferenceLayers, TransformerLayerClsOnlyMatchesFullForward) {
  // head_dim 8 and 6 (see TransformerLayerMatchesTapePerSequence), and a
  // length-1 sequence, whose CLS row is the whole sequence.
  const size_t shapes[][3] = {{16, 2, 9}, {12, 2, 9}, {16, 2, 1}};
  for (const auto& shape : shapes) {
    nn::TransformerConfig config;
    config.dim = shape[0];
    config.num_heads = shape[1];
    config.ffn_dim = 2 * config.dim;
    util::Rng rng(13);
    nn::TransformerLayer layer("layer", config, rng);
    const size_t len = shape[2];
    const size_t batch = 4;
    la::Matrix packed = RandomMatrix(batch * len, config.dim, 321);
    la::Matrix full = packed;
    autograd::InferenceContext ctx;
    layer.InferForward(ctx, batch, len, full, /*cls_only=*/false, full);
    la::Matrix cls(batch, config.dim);
    layer.InferForward(ctx, batch, len, packed, /*cls_only=*/true, cls);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t c = 0; c < config.dim; ++c) {
        ASSERT_EQ(full(b * len, c), cls(b, c))
            << "dim " << config.dim << " len " << len << " seq " << b
            << " col " << c;
      }
    }
  }
}

TEST(InferenceLayers, EncoderMatchesTapeWithEmbedOut) {
  const size_t vocab = 64;
  tplm::TplmConfig config = SmallConfig(vocab);
  tplm::TplmModel model("m", config, 5);
  const text::EncodedSequence seq = SingleSeq(9, 77, vocab);
  const size_t len = seq.ids.size();
  const size_t d = config.transformer.dim;

  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  autograd::Var embed_var;
  const la::Matrix expected_hidden =
      model.encoder().Forward(tctx, seq.ids, seq.segments, &embed_var).value();
  const la::Matrix expected_embed = embed_var.value();

  autograd::InferenceContext ctx;
  la::Matrix hidden(len, d);
  la::Matrix embed(len, d);
  model.encoder().InferForward(ctx, seq.ids, seq.segments, 1, len, hidden,
                               &embed);
  ExpectBitEqual(expected_hidden, hidden);
  ExpectBitEqual(expected_embed, embed);
}

// --------------------------------------------------- batched TPLM entry points

std::vector<text::EncodedSequence> RaggedSingles(size_t vocab) {
  std::vector<text::EncodedSequence> seqs;
  const size_t bodies[] = {4, 9, 4, 12, 9, 4, 7};
  for (size_t i = 0; i < sizeof(bodies) / sizeof(bodies[0]); ++i) {
    seqs.push_back(SingleSeq(bodies[i], 300 + i, vocab));
  }
  return seqs;
}

std::vector<text::EncodedSequence> RaggedPairs(size_t vocab) {
  std::vector<text::EncodedSequence> seqs;
  const size_t bodies[][2] = {{3, 5}, {6, 2}, {3, 5}, {8, 8}, {1, 1}, {6, 2}};
  for (size_t i = 0; i < sizeof(bodies) / sizeof(bodies[0]); ++i) {
    seqs.push_back(PairSeq(bodies[i][0], bodies[i][1], 500 + i, vocab));
  }
  return seqs;
}

std::vector<const text::EncodedSequence*> Pointers(
    const std::vector<text::EncodedSequence>& seqs) {
  std::vector<const text::EncodedSequence*> out;
  for (const auto& s : seqs) out.push_back(&s);
  return out;
}

TEST(InferenceEngine, EncodeSingleBatchMatchesTapeAcrossRaggedBuckets) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto seqs = RaggedSingles(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched = model.EncodeSingleBatch(ctx, Pointers(seqs));
  ASSERT_EQ(batched.rows(), seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    util::Rng tape_rng(1);
    nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
    const la::Matrix expected = model.EncodeSingle(tctx, seqs[i]).value();
    for (size_t c = 0; c < batched.cols(); ++c) {
      ASSERT_EQ(expected(0, c), batched(i, c)) << "seq " << i << " dim " << c;
    }
  }
}

TEST(InferenceEngine, EncodeSingleBatchFirstLastMixMatchesTape) {
  const size_t vocab = 64;
  tplm::TplmConfig config = SmallConfig(vocab);
  config.single_mode_last_weight = 0.4f;
  tplm::TplmModel model("m", config, 5);
  const auto seqs = RaggedSingles(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched = model.EncodeSingleBatch(ctx, Pointers(seqs));
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    util::Rng tape_rng(1);
    nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
    const la::Matrix expected = model.EncodeSingle(tctx, seqs[i]).value();
    for (size_t c = 0; c < batched.cols(); ++c) {
      ASSERT_EQ(expected(0, c), batched(i, c)) << "seq " << i << " dim " << c;
    }
  }
}

TEST(InferenceEngine, PairFeaturesBatchMatchesTapeAcrossRaggedBuckets) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto seqs = RaggedPairs(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched = model.EncodePairFeaturesBatch(ctx, Pointers(seqs));
  ASSERT_EQ(batched.cols(), model.pair_feature_dim());
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    util::Rng tape_rng(1);
    nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
    const la::Matrix expected = model.EncodePairFeatures(tctx, seqs[i]).value();
    for (size_t c = 0; c < batched.cols(); ++c) {
      ASSERT_EQ(expected(0, c), batched(i, c)) << "seq " << i << " col " << c;
    }
  }
}

TEST(InferenceEngine, BatchedEqualsOneAtATime) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto singles = RaggedSingles(vocab);
  const auto pairs = RaggedPairs(vocab);

  autograd::InferenceContext ctx;
  const la::Matrix batched_s = model.EncodeSingleBatch(ctx, Pointers(singles));
  const la::Matrix batched_p = model.EncodePairFeaturesBatch(ctx, Pointers(pairs));
  for (size_t i = 0; i < singles.size(); ++i) {
    const la::Matrix one = model.EncodeSingleBatch(ctx, {&singles[i]});
    for (size_t c = 0; c < batched_s.cols(); ++c) {
      ASSERT_EQ(one(0, c), batched_s(i, c));
    }
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const la::Matrix one = model.EncodePairFeaturesBatch(ctx, {&pairs[i]});
    for (size_t c = 0; c < batched_p.cols(); ++c) {
      ASSERT_EQ(one(0, c), batched_p(i, c));
    }
  }
}

TEST(InferenceEngine, BitIdenticalAcrossThreadCounts) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto singles = RaggedSingles(vocab);
  const auto pairs = RaggedPairs(vocab);

  // One full pack at the default model shapes: 8 pairs of max_pair_len
  // tokens. A single pack runs on the caller, so the encoder's GEMMs reach
  // the pool: the full layer's FFN GEMMs (480x64x32) lie above
  // util::kMinParallelWork, while its q/k/v and wo projections (480x32x32)
  // lie below it and run inline.
  const tplm::TplmConfig full_config;
  tplm::TplmModel full_model("full", full_config, 5);
  std::vector<text::EncodedSequence> one_pack;
  for (size_t i = 0; i < 8; ++i) {
    one_pack.push_back(
        PairSeq(28, 29, 700 + i, full_config.transformer.vocab_size));
  }
  ASSERT_EQ(one_pack[0].ids.size(), full_config.max_pair_len);

  autograd::InferenceContext inline_ctx;
  const la::Matrix base_s = model.EncodeSingleBatch(inline_ctx, Pointers(singles));
  const la::Matrix base_p =
      model.EncodePairFeaturesBatch(inline_ctx, Pointers(pairs));
  const la::Matrix base_pack =
      full_model.EncodePairFeaturesBatch(inline_ctx, Pointers(one_pack));
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    util::ThreadPool pool(threads);
    autograd::InferenceContext ctx(&pool);
    ExpectBitEqual(base_s, model.EncodeSingleBatch(ctx, Pointers(singles)));
    ExpectBitEqual(base_p, model.EncodePairFeaturesBatch(ctx, Pointers(pairs)));
    const size_t submitted_before = pool.tasks_submitted();
    ExpectBitEqual(base_pack,
                   full_model.EncodePairFeaturesBatch(ctx, Pointers(one_pack)));
    EXPECT_GT(pool.tasks_submitted(), submitted_before) << threads;
  }
}

TEST(InferenceEngine, ArenaStopsAllocatingAfterWarmup) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto seqs = RaggedSingles(vocab);
  // Single mode stops after the embedding layer; paired mode runs one full
  // transformer layer and one CLS-only layer, so their scratch is checked.
  const auto pairs = RaggedPairs(vocab);
  const auto encode = [&](autograd::InferenceContext& ctx) {
    model.EncodeSingleBatch(ctx, Pointers(seqs));
    model.EncodePairFeaturesBatch(ctx, Pointers(pairs));
  };

  autograd::InferenceContext ctx;
  encode(ctx);
  EXPECT_EQ(ctx.borrowed(), 0u);
  const size_t warm = ctx.allocated();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 3; ++i) encode(ctx);
  EXPECT_EQ(ctx.allocated(), warm) << "steady-state forwards must not allocate";
  EXPECT_EQ(ctx.borrowed(), 0u);
}

TEST(InferenceEngine, EvalMlmLossMatchesTapeForward) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const text::EncodedSequence seq = SingleSeq(14, 909, vocab);

  util::Rng mask_rng_tape(42);
  autograd::Tape tape;
  util::Rng tape_rng(1);
  nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
  autograd::Var loss =
      model.MlmLoss(tctx, seq, mask_rng_tape, /*mask_prob=*/0.4f);
  ASSERT_TRUE(loss.valid()) << "seed must mask at least one piece";

  util::Rng mask_rng_infer(42);
  autograd::InferenceContext ctx;
  const double eval =
      model.EvalMlmLoss(ctx, seq, mask_rng_infer, /*mask_prob=*/0.4f);
  EXPECT_EQ(loss.scalar(), static_cast<float>(eval));
}

// -------------------------------------------------------- end-to-end consumers

data::DatasetBundle TinyBundle() {
  data::DatasetBundle bundle;
  bundle.name = "tiny";
  bundle.r_table = data::Table({"t"});
  bundle.s_table = data::Table({"t"});
  const char* r_texts[] = {"alpha beta gamma", "delta four five",
                           "omega prime seven", "kappa lambda mu"};
  const char* s_texts[] = {"alpha beta gamma", "delta four six",
                           "omega prime seven", "nu xi omicron"};
  for (int i = 0; i < 4; ++i) {
    data::Record r;
    r.entity_id = i;
    r.values = {r_texts[i]};
    bundle.r_table.Add(r);
    data::Record s;
    s.entity_id = i;
    s.values = {s_texts[i]};
    bundle.s_table.Add(s);
  }
  bundle.dups = {{0, 0}, {2, 2}};
  for (const auto& p : bundle.dups) bundle.dup_keys.insert(p.Key());
  return bundle;
}

class EndToEndFixture : public testing::Test {
 protected:
  void SetUp() override {
    bundle_ = TinyBundle();
    text::SubwordVocab::Options vo;
    vo.max_vocab = 256;
    vo.min_word_freq = 1;
    vocab_ = std::make_unique<text::SubwordVocab>(
        text::SubwordVocab::Train(bundle_.CorpusLines(), vo));
    config_ = SmallConfig(vocab_->size());
    pretrained_ = std::make_unique<tplm::TplmModel>("p", config_, 3);
  }

  std::vector<data::PairId> AllPairs() const {
    std::vector<data::PairId> out;
    for (uint32_t r = 0; r < 4; ++r) {
      for (uint32_t s = 0; s < 4; ++s) out.push_back({r, s});
    }
    return out;
  }

  data::DatasetBundle bundle_;
  std::unique_ptr<text::SubwordVocab> vocab_;
  tplm::TplmConfig config_;
  std::unique_ptr<tplm::TplmModel> pretrained_;
};

/// Tape reference for a Matcher's inference outputs: the same weights,
/// round-tripped through SaveWeights, driven one pair at a time through the
/// differentiable forward the trainer records (dropout off).
class TapeMatcher {
 public:
  TapeMatcher(core::Matcher& matcher, const tplm::TplmConfig& config,
              const std::string& tag)
      : rng_(1),
        model_("matcher_tplm", config, 0),
        dense_("matcher_head.dense", model_.pair_feature_dim(),
               config.transformer.dim, rng_),
        out_("matcher_head.out", config.transformer.dim, 1, rng_) {
    const std::string path = testing::TempDir() + "/tape_matcher_" + tag + ".bin";
    constexpr uint32_t kMagic = 0x45504154;  // "TAPE"
    {
      util::BinaryWriter writer(path, kMagic, 1);
      matcher.SaveWeights(writer);
      EXPECT_TRUE(writer.Finish().ok());
    }
    util::BinaryReader reader(path, kMagic, 1);
    EXPECT_TRUE(model_.Load(reader).ok());
    EXPECT_TRUE(dense_.Load(reader).ok());
    EXPECT_TRUE(out_.Load(reader).ok());
  }

  /// P(duplicate) of one pair; `h` receives the (1, d) penultimate row.
  float Prob(const text::EncodedSequence& seq, la::Matrix* h = nullptr) {
    autograd::Tape tape;
    nn::ForwardContext ctx{&tape, &rng_, /*training=*/false};
    autograd::Var cls = model_.EncodePairFeatures(ctx, seq);
    autograd::Var hidden = autograd::Tanh(dense_.Forward(ctx, cls));
    autograd::Var logit = out_.Forward(ctx, hidden);
    if (h != nullptr) *h = hidden.value();
    return 1.0f / (1.0f + std::exp(-logit.value()(0, 0)));
  }

 private:
  util::Rng rng_;
  tplm::TplmModel model_;
  nn::Linear dense_;
  nn::Linear out_;
};

/// Unit-normalized single-mode Tape embeddings, one sequence per Tape.
la::Matrix TapeSingleMode(tplm::TplmModel& model,
                          const std::vector<const text::EncodedSequence*>& seqs) {
  const size_t d = model.config().transformer.dim;
  la::Matrix out(seqs.size(), d);
  for (size_t i = 0; i < seqs.size(); ++i) {
    autograd::Tape tape;
    util::Rng tape_rng(1);
    nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
    const la::Matrix emb = model.EncodeSingle(tctx, *seqs[i]).value();
    std::copy(emb.row(0), emb.row(0) + d, out.row(i));
  }
  la::NormalizeRowsInPlace(out);
  return out;
}

TEST_F(EndToEndFixture, MatcherOutputsMatchTapePath) {
  core::PairEncodingCache cache(&bundle_, vocab_.get(), config_.max_pair_len);
  core::MatcherConfig mc;
  core::Matcher matcher(config_, mc, 5);
  matcher.ResetFromPretrained(*pretrained_);
  const auto query = AllPairs();

  const auto probs = matcher.PredictProbs(cache, query);
  const la::Matrix badge = matcher.BadgeEmbeddings(cache, query);
  const la::Matrix reps = matcher.PairRepresentations(cache, query);

  TapeMatcher tape(matcher, config_, "outputs");
  const size_t d = config_.transformer.dim;
  ASSERT_EQ(probs.size(), query.size());
  ASSERT_EQ(badge.cols(), d + 1);
  ASSERT_EQ(reps.cols(), d);
  for (size_t i = 0; i < query.size(); ++i) {
    la::Matrix h;
    const float p = tape.Prob(cache.Get(query[i]), &h);
    ASSERT_EQ(probs[i], p) << "pair " << i;
    // BADGE row: (p - ŷ) · [h ; 1] with ŷ the most likely label.
    const float g = p - (p > 0.5f ? 1.0f : 0.0f);
    for (size_t c = 0; c < d; ++c) {
      ASSERT_EQ(reps(i, c), h(0, c)) << "pair " << i << " col " << c;
      ASSERT_EQ(badge(i, c), g * h(0, c)) << "pair " << i << " col " << c;
    }
    ASSERT_EQ(badge(i, d), g) << "pair " << i;
  }
}

TEST_F(EndToEndFixture, MatcherSingleModeEmbeddingsMatchTapePath) {
  core::RecordEncodings encodings(bundle_, *vocab_, config_.max_single_len);
  std::vector<const text::EncodedSequence*> seqs;
  for (size_t i = 0; i < encodings.r_size(); ++i) seqs.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) seqs.push_back(&encodings.S(i));

  core::MatcherConfig mc;
  core::Matcher matcher(config_, mc, 5);
  matcher.ResetFromPretrained(*pretrained_);
  ExpectBitEqual(TapeSingleMode(matcher.model(), seqs), matcher.EmbedSingleMode(seqs));
}

TEST_F(EndToEndFixture, SbertEmbeddingsMatchTapePath) {
  core::RecordEncodings encodings(bundle_, *vocab_, config_.max_single_len);
  core::SbertConfig sc;
  core::SentenceBertBlocker blocker(config_, sc, 9);
  blocker.ResetFromPretrained(*pretrained_, 0x1234);
  std::vector<const text::EncodedSequence*> r_seqs;
  std::vector<const text::EncodedSequence*> s_seqs;
  for (size_t i = 0; i < encodings.r_size(); ++i) r_seqs.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) s_seqs.push_back(&encodings.S(i));
  ExpectBitEqual(TapeSingleMode(blocker.model(), r_seqs), blocker.EmbedR(encodings));
  ExpectBitEqual(TapeSingleMode(blocker.model(), s_seqs), blocker.EmbedS(encodings));
}

TEST(InferenceEngine, CommitteeTransformMatchesTapePath) {
  for (const bool normalize : {true, false}) {
    core::BlockerConfig config;
    config.committee_size = 3;
    config.normalize_output = normalize;
    core::BlockerCommittee committee(16, config);
    const la::Matrix embeddings = RandomMatrix(10, 16, 31);
    for (size_t k = 0; k < committee.size(); ++k) {
      autograd::Tape tape;
      util::Rng tape_rng(1);
      nn::ForwardContext tctx{&tape, &tape_rng, /*training=*/false};
      const la::Matrix expected =
          committee.member(k).Forward(tctx, tape.Constant(embeddings)).value();
      ExpectBitEqual(expected, committee.Encode(k, embeddings));
    }
  }
}

TEST_F(EndToEndFixture, CommitteeVoteEntropyMatchesTapePath) {
  // QBC-style vote entropy over a 3-matcher committee: the selector-visible
  // quantity must equal the one computed from Tape forwards.
  core::PairEncodingCache cache(&bundle_, vocab_.get(), config_.max_pair_len);
  const auto query = AllPairs();
  std::vector<std::vector<float>> engine_probs;
  std::vector<std::vector<float>> tape_probs;
  for (uint64_t m = 0; m < 3; ++m) {
    core::MatcherConfig mc;
    mc.seed = 1000 + m;
    core::Matcher matcher(config_, mc, 50 + m);
    matcher.ResetFromPretrained(*pretrained_);
    engine_probs.push_back(matcher.PredictProbs(cache, query));
    TapeMatcher tape(matcher, config_, "vote" + std::to_string(m));
    std::vector<float> probs;
    for (const auto& pair : query) probs.push_back(tape.Prob(cache.Get(pair)));
    tape_probs.push_back(probs);
  }
  for (size_t i = 0; i < query.size(); ++i) {
    double mean_engine = 0.0;
    double mean_tape = 0.0;
    for (size_t m = 0; m < 3; ++m) {
      mean_engine += engine_probs[m][i];
      mean_tape += tape_probs[m][i];
    }
    ASSERT_EQ(core::BinaryEntropy(mean_engine / 3.0),
              core::BinaryEntropy(mean_tape / 3.0))
        << "pair " << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent inference: the serving contract. N threads, each with its own
// context, forward through one shared const model at once; every thread must
// see the exact single-threaded bits. Runs under TSan via the smoke label.
// ---------------------------------------------------------------------------

TEST(InferenceEngine, ConcurrentContextsBitIdentical) {
  const size_t vocab = 64;
  tplm::TplmModel model("m", SmallConfig(vocab), 5);
  const auto singles = RaggedSingles(vocab);
  const auto pairs = RaggedPairs(vocab);

  autograd::InferenceContext ref_ctx;
  const la::Matrix base_s = model.EncodeSingleBatch(ref_ctx, Pointers(singles));
  const la::Matrix base_p = model.EncodePairFeaturesBatch(ref_ctx, Pointers(pairs));

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      autograd::InferenceContext ctx;
      for (int round = 0; round < 3; ++round) {
        const la::Matrix s = model.EncodeSingleBatch(ctx, Pointers(singles));
        const la::Matrix p = model.EncodePairFeaturesBatch(ctx, Pointers(pairs));
        for (size_t r = 0; r < s.rows(); ++r) {
          for (size_t c = 0; c < s.cols(); ++c) {
            if (s(r, c) != base_s(r, c)) ++mismatches;
          }
        }
        for (size_t r = 0; r < p.rows(); ++r) {
          for (size_t c = 0; c < p.cols(); ++c) {
            if (p(r, c) != base_p(r, c)) ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(InferenceEngine, SharedContextConcurrentAcquireRelease) {
  // Acquire/Release are documented thread-safe; hammer one shared arena
  // from several threads (mixed shapes so free-list buckets contend) and
  // check the bookkeeping balances.
  autograd::InferenceContext ctx;
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx, t] {
      for (int i = 0; i < kRounds; ++i) {
        const size_t rows = 1 + static_cast<size_t>((t + i) % 5);
        const size_t cols = 8 + static_cast<size_t>(i % 3) * 8;
        la::Matrix* a = ctx.Acquire(rows, cols);
        la::Matrix* b = ctx.Acquire(cols, rows);
        (*a)(0, 0) = static_cast<float>(t);  // touch the storage
        (*b)(0, 0) = static_cast<float>(i);
        ctx.Release(b);
        ctx.Release(a);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ctx.borrowed(), 0u);
  EXPECT_GT(ctx.allocated(), 0u);
  ctx.Clear();  // all borrows returned: must not fire the balance check
}

}  // namespace
}  // namespace dial
