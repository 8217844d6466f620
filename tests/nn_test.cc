#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "autograd/gradcheck.h"
#include "autograd/optim.h"
#include "autograd/ops.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "util/serialize.h"

namespace dial::nn {
namespace {

using autograd::Parameter;
using autograd::Tape;
using autograd::Var;

TEST(Linear, ForwardShapeAndValue) {
  util::Rng rng(1);
  Linear linear("lin", 3, 2, rng);
  // Overwrite weights with a known matrix.
  auto params = linear.Parameters();
  params[0]->value = la::Matrix({{1, 0}, {0, 1}, {1, 1}});
  params[1]->value = la::Matrix({{10, 20}});
  Tape tape;
  util::Rng fwd_rng(2);
  ForwardContext ctx{&tape, &fwd_rng, false};
  Var x = tape.Constant(la::Matrix({{1, 2, 3}}));
  Var y = linear.Forward(ctx, x);
  EXPECT_FLOAT_EQ(y.value()(0, 0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(y.value()(0, 1), 2 + 3 + 20);
}

TEST(Linear, GradientsFlowToParameters) {
  util::Rng rng(3);
  Linear linear("lin", 4, 3, rng);
  auto params = linear.Parameters();
  for (auto* p : params) p->ZeroGrad();
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var x = tape.Constant(la::Matrix(2, 4, 0.5f));
  Var loss = autograd::MeanAll(autograd::Square(linear.Forward(ctx, x)));
  tape.Backward(loss);
  EXPECT_GT(la::FrobeniusNorm(params[0]->grad), 0.0f);
  EXPECT_GT(la::FrobeniusNorm(params[1]->grad), 0.0f);
}

TEST(LayerNorm, NormalizesThenAffines) {
  util::Rng rng(4);
  LayerNorm norm("ln", 4);
  auto params = norm.Parameters();
  params[0]->value.Fill(2.0f);  // gain
  params[1]->value.Fill(1.0f);  // bias
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var x = tape.Constant(la::Matrix({{1, 2, 3, 4}}));
  Var y = norm.Forward(ctx, x);
  float mean = 0;
  for (size_t c = 0; c < 4; ++c) mean += y.value()(0, c);
  EXPECT_NEAR(mean / 4, 1.0f, 1e-4f);  // bias shifts the normalized mean
}

TEST(Embedding, GathersRows) {
  util::Rng rng(5);
  Embedding emb("emb", 10, 3, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var y = emb.Forward(ctx, {7, 7, 2});
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(y.value()(0, c), y.value()(1, c));
  }
}

TEST(Module, ParameterCollectionIsStable) {
  util::Rng rng(6);
  PairClassifierHead head("head", 8, 0.1f, rng);
  const auto p1 = head.Parameters();
  const auto p2 = head.Parameters();
  ASSERT_EQ(p1.size(), p2.size());
  EXPECT_EQ(p1.size(), 4u);  // dense W/b + out W/b
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
}

TEST(Module, NumWeightsCountsEverything) {
  util::Rng rng(7);
  Linear linear("lin", 3, 2, rng);
  EXPECT_EQ(linear.NumWeights(), 3u * 2u + 2u);
}

TEST(Module, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/dial_nn_roundtrip.bin";
  util::Rng rng(8);
  TransformerConfig config;
  config.vocab_size = 50;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 16;
  TransformerEncoder original("enc", config, rng);
  {
    util::BinaryWriter writer(path, 0x7777u, 1);
    original.Save(writer);
    ASSERT_TRUE(writer.Finish().ok());
  }
  util::Rng rng2(999);  // different init
  TransformerEncoder restored("enc", config, rng2);
  util::BinaryReader reader(path, 0x7777u, 1);
  ASSERT_TRUE(restored.Load(reader).ok());
  const auto a = original.Parameters();
  const auto b = restored.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->value.storage(), b[i]->value.storage()) << a[i]->name;
  }
}

TEST(Module, LoadRejectsShapeMismatch) {
  const std::string path = testing::TempDir() + "/dial_nn_mismatch.bin";
  util::Rng rng(9);
  Linear small("lin", 2, 2, rng);
  {
    util::BinaryWriter writer(path, 0x7777u, 1);
    small.Save(writer);
    ASSERT_TRUE(writer.Finish().ok());
  }
  Linear big("lin", 3, 3, rng);
  util::BinaryReader reader(path, 0x7777u, 1);
  EXPECT_FALSE(big.Load(reader).ok());
}

TEST(Module, CopyWeightsFrom) {
  util::Rng rng(10);
  Linear a("lin", 3, 3, rng);
  Linear b("lin", 3, 3, rng);
  b.CopyWeightsFrom(a);
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.storage(), pb[i]->value.storage());
  }
}

TEST(SentencePairHead, UsesAbsoluteDifference) {
  util::Rng rng(11);
  SentencePairHead head("sp", 4, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var u = tape.Constant(la::Matrix(1, 4, 1.0f));
  Var v1 = tape.Constant(la::Matrix(1, 4, 1.0f));
  Var logit_same = head.Forward(ctx, u, v1);
  EXPECT_EQ(logit_same.rows(), 1u);
  EXPECT_EQ(logit_same.cols(), 1u);
}

TEST(Transformer, ForwardShape) {
  util::Rng rng(12);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 10;
  TransformerEncoder encoder("enc", config, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var out = encoder.Forward(ctx, {1, 2, 3, 4}, {0, 0, 1, 1});
  EXPECT_EQ(out.rows(), 4u);
  EXPECT_EQ(out.cols(), 8u);
}

TEST(Transformer, DeterministicInference) {
  util::Rng rng(13);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 10;
  TransformerEncoder encoder("enc", config, rng);
  auto run = [&]() {
    Tape tape;
    util::Rng fwd(1);
    ForwardContext ctx{&tape, &fwd, false};
    return encoder.Forward(ctx, {5, 6, 7}, {0, 0, 0}).value();
  };
  const la::Matrix a = run();
  const la::Matrix b = run();
  EXPECT_EQ(a.storage(), b.storage());
}

TEST(Transformer, EmbedOutDiffersFromFinal) {
  util::Rng rng(14);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 2;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 10;
  TransformerEncoder encoder("enc", config, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  Var first;
  Var last = encoder.Forward(ctx, {5, 6, 7}, {0, 0, 0}, &first);
  ASSERT_TRUE(first.valid());
  EXPECT_NE(first.value().storage(), last.value().storage());
}

TEST(TransformerDeathTest, SequenceTooLongAborts) {
  util::Rng rng(15);
  TransformerConfig config;
  config.vocab_size = 30;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 2;
  TransformerEncoder encoder("enc", config, rng);
  Tape tape;
  ForwardContext ctx{&tape, &rng, false};
  EXPECT_DEATH(encoder.Forward(ctx, {1, 2, 3}, {0, 0, 0}), "Check failed");
}

TEST(Transformer, CanOverfitTinyClassificationTask) {
  // End-to-end trainability: separate two token patterns with a linear probe
  // on the CLS position.
  util::Rng rng(16);
  TransformerConfig config;
  config.vocab_size = 20;
  config.dim = 8;
  config.num_layers = 1;
  config.num_heads = 2;
  config.ffn_dim = 16;
  config.max_positions = 6;
  config.dropout = 0.0f;
  TransformerEncoder encoder("enc", config, rng);
  Linear probe("probe", 8, 1, rng);

  std::vector<std::pair<std::vector<int>, float>> examples = {
      {{2, 10, 11}, 1.0f}, {{2, 12, 13}, 0.0f}, {{2, 10, 13}, 1.0f},
      {{2, 12, 11}, 0.0f},
  };
  std::vector<autograd::Parameter*> params = encoder.Parameters();
  for (auto* p : probe.Parameters()) params.push_back(p);
  autograd::AdamW optimizer({{params, 5e-3f}});
  float loss_value = 1e9f;
  for (int step = 0; step < 150; ++step) {
    Tape tape;
    ForwardContext ctx{&tape, &rng, true};
    std::vector<Var> logits;
    std::vector<float> targets;
    for (const auto& [ids, label] : examples) {
      Var h = encoder.Forward(ctx, ids, std::vector<int>(ids.size(), 0));
      logits.push_back(probe.Forward(ctx, autograd::SliceRows(h, 0, 1)));
      targets.push_back(label);
    }
    Var loss = autograd::BceWithLogits(autograd::ConcatRows(logits), targets);
    optimizer.ZeroGrad();
    tape.Backward(loss);
    optimizer.Step();
    loss_value = loss.scalar();
  }
  EXPECT_LT(loss_value, 0.1f);
}

// ---------------------------------------------------------------------------
// Coarse tape nodes against the per-op composition they replace. The
// Reference* functions build, from ops.h over a module's own Parameters(),
// the nodes LayerNorm::Forward and TransformerLayer::Forward recorded one op
// at a time; the coarse nodes must match them bit for bit: values, every
// gradient, and the rng stream dropout draws from.

Var ReferenceLinear(Tape& tape, Var x, Parameter* weight, Parameter* bias) {
  Var w = tape.Leaf(weight);
  Var b = tape.Leaf(bias);
  return autograd::AddRowBroadcast(autograd::MatMul(x, w), b);
}

Var ReferenceLayerNorm(Tape& tape, Var x, Parameter* gain, Parameter* bias) {
  Var normalized = autograd::LayerNormRows(x);
  Var g = tape.Leaf(gain);
  Var b = tape.Leaf(bias);
  return autograd::AddRowBroadcast(autograd::MulRowBroadcast(normalized, g), b);
}

/// `p` is TransformerLayer::Parameters(): wq, wk, wv, wo, ffn_in, ffn_out
/// (weight, bias each), then ln_attn and ln_ffn (gain, bias each).
Var ReferenceLayer(ForwardContext& ctx, const TransformerConfig& config,
                   const std::vector<Parameter*>& p, Var x) {
  Tape& tape = *ctx.tape;
  const size_t head_dim = config.dim / config.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  Var q = ReferenceLinear(tape, x, p[0], p[1]);
  Var k = ReferenceLinear(tape, x, p[2], p[3]);
  Var v = ReferenceLinear(tape, x, p[4], p[5]);
  std::vector<Var> head_outputs;
  for (size_t h = 0; h < config.num_heads; ++h) {
    const size_t begin = h * head_dim;
    const size_t end = begin + head_dim;
    Var qh = autograd::SliceCols(q, begin, end);
    Var kh = autograd::SliceCols(k, begin, end);
    Var vh = autograd::SliceCols(v, begin, end);
    Var scores = autograd::ScalarMul(autograd::MatMulTransposeB(qh, kh), scale);
    Var attn = autograd::SoftmaxRows(scores);
    attn = autograd::Dropout(attn, config.dropout, *ctx.rng, ctx.training);
    head_outputs.push_back(autograd::MatMul(attn, vh));
  }
  Var attn = ReferenceLinear(tape, autograd::ConcatCols(head_outputs), p[6], p[7]);
  attn = autograd::Dropout(attn, config.dropout, *ctx.rng, ctx.training);
  x = ReferenceLayerNorm(tape, autograd::Add(x, attn), p[12], p[13]);
  Var hidden = autograd::Gelu(ReferenceLinear(tape, x, p[8], p[9]));
  Var ffn = ReferenceLinear(tape, hidden, p[10], p[11]);
  ffn = autograd::Dropout(ffn, config.dropout, *ctx.rng, ctx.training);
  return ReferenceLayerNorm(tape, autograd::Add(x, ffn), p[14], p[15]);
}

/// What one tape run produced: each sequence's output and input gradient,
/// every parameter's gradient, the rng state after the forward, and how
/// many nodes each forward call added.
struct TapeRun {
  std::vector<la::Matrix> outputs;
  std::vector<la::Matrix> input_grads;
  std::vector<la::Matrix> param_grads;
  util::Rng::State rng;
  std::vector<size_t> nodes_per_call;
};

/// Builds one sequence of each length on one tape through `forward`, then
/// backpropagates sum_s sum(out_s * C_s) for fixed random C_s.
TapeRun RunOnTape(const std::vector<Parameter*>& params,
                  const std::vector<size_t>& lengths, size_t dim, bool training,
                  const std::function<Var(ForwardContext&, Var)>& forward) {
  for (Parameter* p : params) p->ZeroGrad();
  util::Rng data_rng(21);
  util::Rng dropout_rng(22);
  Tape tape;
  ForwardContext ctx{&tape, &dropout_rng, training};
  TapeRun run;
  std::vector<Parameter> inputs(lengths.size());
  std::vector<Var> input_vars;
  std::vector<Var> terms;
  for (size_t s = 0; s < lengths.size(); ++s) {
    inputs[s] = Parameter("input", lengths[s], dim);
    inputs[s].value.RandNormal(data_rng, 1.0f);
    input_vars.push_back(tape.Leaf(&inputs[s]));
    const size_t before = tape.num_nodes();
    Var out = forward(ctx, input_vars.back());
    run.nodes_per_call.push_back(tape.num_nodes() - before);
    run.outputs.push_back(out.value());
    la::Matrix upstream(lengths[s], dim);
    upstream.RandNormal(data_rng, 1.0f);
    terms.push_back(autograd::SumAll(autograd::Mul(out, tape.Constant(upstream))));
  }
  run.rng = dropout_rng.GetState();
  tape.Backward(autograd::AddN(terms));
  for (Var x : input_vars) run.input_grads.push_back(x.grad());
  for (Parameter* p : params) run.param_grads.push_back(p->grad);
  return run;
}

::testing::AssertionResult SameBits(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape " << a.rows() << "x" << a.cols()
                                         << " vs " << b.rows() << "x" << b.cols();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a.data()[i] << " vs " << b.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameRun(const TapeRun& coarse, const TapeRun& reference,
                   const std::vector<Parameter*>& params) {
  ASSERT_EQ(coarse.outputs.size(), reference.outputs.size());
  for (size_t s = 0; s < coarse.outputs.size(); ++s) {
    EXPECT_TRUE(SameBits(coarse.outputs[s], reference.outputs[s])) << "output " << s;
    EXPECT_TRUE(SameBits(coarse.input_grads[s], reference.input_grads[s]))
        << "input gradient " << s;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(SameBits(coarse.param_grads[i], reference.param_grads[i]))
        << params[i]->name;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(coarse.rng.s[i], reference.rng.s[i]);
  EXPECT_EQ(coarse.rng.have_spare, reference.rng.have_spare);
  EXPECT_EQ(coarse.rng.spare, reference.rng.spare);
}

/// Moves every parameter off its initializer (LayerNorm starts at gain 1,
/// bias 0) so that no gradient term is trivially zero or one.
void Perturb(const std::vector<Parameter*>& params, uint64_t seed) {
  util::Rng rng(seed);
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.2f * static_cast<float>(rng.Normal());
    }
  }
}

const std::vector<std::vector<size_t>> kParityLengths = {
    {1}, {2}, {3}, {5}, {31}, {60}, {5, 31, 3}};

TEST(CoarseNodes, LayerNormMatchesPerOpComposition) {
  LayerNorm norm("ln", 32);
  const std::vector<Parameter*> params = norm.Parameters();
  Perturb(params, 31);
  for (const std::vector<size_t>& lengths : kParityLengths) {
    SCOPED_TRACE(testing::Message() << lengths.size() << " sequences, first "
                                    << lengths[0]);
    const TapeRun coarse = RunOnTape(
        params, lengths, 32, true,
        [&](ForwardContext& ctx, Var x) { return norm.Forward(ctx, x); });
    const TapeRun reference =
        RunOnTape(params, lengths, 32, true, [&](ForwardContext& ctx, Var x) {
          return ReferenceLayerNorm(*ctx.tape, x, params[0], params[1]);
        });
    ExpectSameRun(coarse, reference, params);
    for (size_t nodes : coarse.nodes_per_call) EXPECT_EQ(nodes, 1u);
  }
}

TEST(CoarseNodes, TransformerLayerMatchesPerOpComposition) {
  // The smoke TPLM's layer (head_dim 16), and one whose head_dim of 6 is
  // not a multiple of the GEMM's 4-step k grouping.
  struct Shape {
    size_t dim, heads, ffn;
  };
  for (const Shape shape : {Shape{32, 2, 64}, Shape{12, 2, 20}}) {
    TransformerConfig config;
    config.dim = shape.dim;
    config.num_heads = shape.heads;
    config.ffn_dim = shape.ffn;
    util::Rng init(41);
    TransformerLayer layer("layer", config, init);
    const std::vector<Parameter*> params = layer.Parameters();
    ASSERT_EQ(params.size(), 16u);
    Perturb(params, 42);
    for (const bool training : {false, true}) {
      for (const std::vector<size_t>& lengths : kParityLengths) {
        SCOPED_TRACE(testing::Message()
                     << "dim " << shape.dim << ", training " << training << ", "
                     << lengths.size() << " sequences, first " << lengths[0]);
        const TapeRun coarse = RunOnTape(
            params, lengths, shape.dim, training,
            [&](ForwardContext& ctx, Var x) { return layer.Forward(ctx, x); });
        const TapeRun reference = RunOnTape(
            params, lengths, shape.dim, training,
            [&](ForwardContext& ctx, Var x) {
              return ReferenceLayer(ctx, config, params, x);
            });
        ExpectSameRun(coarse, reference, params);
        // Attention, add + norm, FFN, add + norm.
        for (size_t nodes : coarse.nodes_per_call) EXPECT_EQ(nodes, 4u);
      }
    }
  }
}

TEST(TransformerConfig, FingerprintSensitivity) {
  TransformerConfig a;
  TransformerConfig b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.dim *= 2;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  TransformerConfig c = a;
  c.num_layers += 1;
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

}  // namespace
}  // namespace dial::nn
