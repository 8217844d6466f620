#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/optim.h"
#include "autograd/tape.h"

namespace dial::autograd {
namespace {

using GraphFn = std::function<Var(Tape&, const std::vector<Var>&)>;

/// Builds leaves for `params`, runs `graph` to a scalar loss, backprops once
/// for analytic gradients, then numerically verifies them.
void RunGradCheck(std::vector<Parameter*> params, const GraphFn& graph,
                  float tolerance = 2e-2f) {
  auto forward = [&]() {
    Tape tape;
    std::vector<Var> leaves;
    for (Parameter* p : params) leaves.push_back(tape.Leaf(p));
    return graph(tape, leaves).scalar();
  };
  for (Parameter* p : params) p->ZeroGrad();
  {
    Tape tape;
    std::vector<Var> leaves;
    for (Parameter* p : params) leaves.push_back(tape.Leaf(p));
    Var loss = graph(tape, leaves);
    tape.Backward(loss);
  }
  const GradCheckResult result = CheckGradients(params, forward, 1e-2f, tolerance);
  EXPECT_TRUE(result.ok) << "max rel error " << result.max_rel_error << ", max abs "
                         << result.max_abs_error;
}

Parameter MakeParam(const std::string& name, size_t rows, size_t cols,
                    uint64_t seed, float scale = 1.0f) {
  Parameter p(name, rows, cols);
  util::Rng rng(seed);
  p.value.RandNormal(rng, scale);
  return p;
}

// ------------------------------------------------------------------- basics

TEST(Tape, ConstantHasNoGrad) {
  Tape tape;
  Var c = tape.Constant(la::Matrix({{1, 2}}));
  EXPECT_FALSE(c.requires_grad());
}

TEST(Tape, LeafAccumulatesIntoParameter) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 3.0f;
  p.ZeroGrad();
  Tape tape;
  Var leaf = tape.Leaf(&p);
  Var loss = Square(leaf);
  tape.Backward(loss);
  EXPECT_FLOAT_EQ(p.grad(0, 0), 6.0f);  // d/dx x^2 = 2x
}

TEST(Tape, AllocIsAlignedAndBackwardScratchIsReclaimed) {
  Tape tape;
  float* a = tape.Alloc(3);
  float* b = tape.Alloc(5);
  constexpr size_t kBig = size_t{1} << 17;  // more than one arena block
  float* big = tape.Alloc(kBig);
  for (const float* p : {a, b, big}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % la::kMatrixAlignment, 0u);
  }
  EXPECT_GE(b - a, 3);
  big[kBig - 1] = 1.0f;

  // Two nodes whose backwards each take scratch: the second gets the
  // storage the first one's returned, and the recorded storage stays.
  Parameter p("p", 1, 1);
  p.value(0, 0) = 2.0f;
  p.ZeroGrad();
  std::vector<float*> scratch;
  const auto identity = [&](Var in) {
    Node* out = tape.NewNode(in.value(), /*requires_grad=*/true);
    Node* n = in.node();
    out->backward = [&tape, &scratch, out, n] {
      scratch.push_back(tape.Alloc(16));
      n->EnsureGrad()(0, 0) += out->grad(0, 0);
    };
    return Var(out);
  };
  tape.Backward(identity(identity(tape.Leaf(&p))));
  ASSERT_EQ(scratch.size(), 2u);
  EXPECT_EQ(scratch[0], scratch[1]);
  EXPECT_EQ(big[kBig - 1], 1.0f);
  EXPECT_FLOAT_EQ(p.grad(0, 0), 1.0f);
}

TEST(TapeDeathTest, BackwardTwiceAborts) {
  Parameter p("p", 1, 1);
  p.ZeroGrad();
  Tape tape;
  Var loss = Square(tape.Leaf(&p));
  tape.Backward(loss);
  EXPECT_DEATH(tape.Backward(loss), "once per tape");
}

TEST(TapeDeathTest, BackwardNeedsScalar) {
  Parameter p = MakeParam("p", 2, 2, 1);
  p.ZeroGrad();
  Tape tape;
  Var v = Tanh(tape.Leaf(&p));
  EXPECT_DEATH(tape.Backward(v), "Check failed");
}

TEST(Ops, ForwardValuesElementwise) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{-1.0f, 0.0f, 2.0f}}));
  EXPECT_FLOAT_EQ(Relu(x).value()(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).value()(0, 2), 2.0f);
  EXPECT_NEAR(Sigmoid(x).value()(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(x).value()(0, 2), std::tanh(2.0f), 1e-6f);
  EXPECT_FLOAT_EQ(Abs(x).value()(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(Square(x).value()(0, 2), 4.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2, 3}, {-5, 0, 5}}));
  Var y = SoftmaxRows(x);
  for (size_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (size_t c = 0; c < 3; ++c) sum += y.value()(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, LogSumExpStableForLargeInputs) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1000.0f, 1000.0f}}));
  EXPECT_NEAR(LogSumExpRows(x).value()(0, 0), 1000.0f + std::log(2.0f), 1e-3f);
}

TEST(Ops, MeanRowsValue) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2}, {3, 4}}));
  Var y = MeanRows(x);
  EXPECT_FLOAT_EQ(y.value()(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.value()(0, 1), 3.0f);
}

TEST(Ops, LayerNormRowsNormalizes) {
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2, 3, 4}}));
  Var y = LayerNormRows(x);
  float mean = 0, var = 0;
  for (size_t c = 0; c < 4; ++c) mean += y.value()(0, c);
  mean /= 4;
  for (size_t c = 0; c < 4; ++c) {
    var += (y.value()(0, c) - mean) * (y.value()(0, c) - mean);
  }
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var / 4, 1.0f, 1e-3f);
}

TEST(Ops, DropoutInferencePassThrough) {
  util::Rng rng(3);
  Tape tape;
  Var x = tape.Constant(la::Matrix({{1, 2, 3}}));
  Var y = Dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(y.node(), x.node());  // identity — same node
}

TEST(Ops, DropoutTrainingMasksAndScales) {
  util::Rng rng(3);
  Tape tape;
  la::Matrix ones(1, 1000, 1.0f);
  Var x = tape.Constant(ones);
  Var y = Dropout(x, 0.5f, rng, /*training=*/true);
  size_t zeros = 0;
  double sum = 0;
  for (size_t c = 0; c < 1000; ++c) {
    const float v = y.value()(0, c);
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    zeros += v == 0.0f;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.07);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);  // inverted dropout keeps expectation
}

TEST(Ops, PairwiseSquaredDistanceValues) {
  Tape tape;
  Var a = tape.Constant(la::Matrix({{0, 0}, {1, 1}}));
  Var b = tape.Constant(la::Matrix({{0, 0}, {3, 4}}));
  Var d = PairwiseSquaredDistance(a, b);
  EXPECT_FLOAT_EQ(d.value()(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(d.value()(0, 1), 25.0f);
  EXPECT_FLOAT_EQ(d.value()(1, 1), 13.0f);
}

TEST(Ops, BceWithLogitsMatchesManual) {
  Tape tape;
  Var logits = tape.Constant(la::Matrix({{0.0f}, {2.0f}}));
  Var loss = BceWithLogits(logits, {1.0f, 0.0f});
  const float expected =
      0.5f * (std::log(2.0f) + std::log(1.0f + std::exp(2.0f)));
  EXPECT_NEAR(loss.scalar(), expected, 1e-5f);
}

TEST(Ops, SoftmaxCrossEntropyIgnoresNegativeTargets) {
  Tape tape;
  Var logits = tape.Constant(la::Matrix({{10, 0, 0}, {5, 5, 5}}));
  // Second row ignored; first row nearly perfectly classified.
  Var loss = SoftmaxCrossEntropy(logits, {0, -1});
  EXPECT_LT(loss.scalar(), 1e-3f);
}

// ----------------------------------------------------------- gradient checks

TEST(GradCheck, AddSubMul) {
  Parameter a = MakeParam("a", 2, 3, 10);
  Parameter b = MakeParam("b", 2, 3, 11);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Mul(Add(v[0], v[1]), Sub(v[0], v[1])));
  });
}

TEST(GradCheck, AddN) {
  Parameter a = MakeParam("a", 2, 2, 12);
  Parameter b = MakeParam("b", 2, 2, 13);
  Parameter c = MakeParam("c", 2, 2, 14);
  RunGradCheck({&a, &b, &c}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(AddN({v[0], v[1], v[2]})));
  });
}

TEST(GradCheck, ScalarOps) {
  Parameter a = MakeParam("a", 3, 2, 15);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(AddScalar(ScalarMul(v[0], -2.5f), 1.0f));
  });
}

TEST(GradCheck, AddBroadcastScalar) {
  Parameter a = MakeParam("a", 2, 2, 16);
  Parameter s = MakeParam("s", 1, 1, 17);
  RunGradCheck({&a, &s}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(AddBroadcastScalar(v[0], v[1])));
  });
}

TEST(GradCheck, Activations) {
  Parameter a = MakeParam("a", 2, 4, 18);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Add(Tanh(v[0]), Sigmoid(v[0])));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Gelu(v[0]));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Exp(ScalarMul(v[0], 0.3f)));
  });
}

TEST(GradCheck, LogOfPositive) {
  Parameter a = MakeParam("a", 2, 3, 19, 0.3f);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Log(AddScalar(Square(v[0]), 1.0f)));
  });
}

TEST(GradCheck, MatMulChain) {
  Parameter a = MakeParam("a", 3, 4, 20, 0.5f);
  Parameter b = MakeParam("b", 4, 2, 21, 0.5f);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(MatMul(v[0], v[1])));
  });
}

TEST(GradCheck, MatMulTransposeB) {
  Parameter a = MakeParam("a", 3, 4, 22, 0.5f);
  Parameter b = MakeParam("b", 5, 4, 23, 0.5f);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(MatMulTransposeB(v[0], v[1])));
  });
}

TEST(GradCheck, TransposeOp) {
  Parameter a = MakeParam("a", 2, 5, 24);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(Transpose(v[0])));
  });
}

TEST(GradCheck, Broadcasts) {
  Parameter x = MakeParam("x", 4, 3, 25);
  Parameter b = MakeParam("b", 1, 3, 26);
  RunGradCheck({&x, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(AddRowBroadcast(v[0], v[1])));
  });
  RunGradCheck({&x, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(MulRowBroadcast(v[0], v[1])));
  });
}

TEST(GradCheck, TileRows) {
  Parameter a = MakeParam("a", 1, 4, 27);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(TileRows(v[0], 5)));
  });
}

TEST(GradCheck, SlicesAndConcat) {
  Parameter a = MakeParam("a", 3, 6, 28);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    Var left = SliceCols(v[0], 0, 3);
    Var right = SliceCols(v[0], 3, 6);
    return MeanAll(Square(ConcatCols({right, left})));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    Var top = SliceRows(v[0], 0, 1);
    Var bottom = SliceRows(v[0], 1, 3);
    return MeanAll(Square(ConcatRows({bottom, top})));
  });
}

TEST(GradCheck, Reductions) {
  Parameter a = MakeParam("a", 3, 4, 29);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(RowSum(v[0])));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return SumAll(Square(MeanRows(v[0])));
  });
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(LogSumExpRows(v[0]));
  });
}

TEST(GradCheck, SoftmaxRowsGradient) {
  Parameter a = MakeParam("a", 2, 5, 30);
  RunGradCheck({&a}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(Square(SoftmaxRows(v[0])));
  });
}

TEST(GradCheck, LayerNormGradient) {
  Parameter a = MakeParam("a", 3, 6, 31);
  RunGradCheck(
      {&a},
      [](Tape&, const std::vector<Var>& v) {
        return MeanAll(Square(LayerNormRows(v[0])));
      },
      5e-2f);
}

TEST(GradCheck, EmbeddingGather) {
  Parameter table = MakeParam("table", 6, 4, 32);
  RunGradCheck({&table}, [&table](Tape& t, const std::vector<Var>&) {
    Var gathered = EmbeddingGather(t, &table, {0, 2, 2, 5});
    return MeanAll(Square(gathered));
  });
}

TEST(GradCheck, Distances) {
  Parameter a = MakeParam("a", 3, 4, 33, 0.5f);
  Parameter b = MakeParam("b", 3, 4, 34, 0.5f);
  RunGradCheck({&a, &b}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(RowwiseSquaredDistance(v[0], v[1]));
  });
  Parameter c = MakeParam("c", 5, 4, 35, 0.5f);
  RunGradCheck({&a, &c}, [](Tape&, const std::vector<Var>& v) {
    return MeanAll(PairwiseSquaredDistance(v[0], v[1]));
  });
}

TEST(GradCheck, BceWithLogits) {
  Parameter logits = MakeParam("z", 6, 1, 36);
  RunGradCheck({&logits}, [](Tape&, const std::vector<Var>& v) {
    return BceWithLogits(v[0], {1, 0, 1, 1, 0, 0});
  });
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Parameter logits = MakeParam("z", 4, 5, 37);
  RunGradCheck({&logits}, [](Tape&, const std::vector<Var>& v) {
    return SoftmaxCrossEntropy(v[0], {0, 3, -1, 4});
  });
}

TEST(GradCheck, TwoLayerMlpComposite) {
  Parameter w1 = MakeParam("w1", 3, 4, 38, 0.5f);
  Parameter b1 = MakeParam("b1", 1, 4, 39, 0.1f);
  Parameter w2 = MakeParam("w2", 4, 1, 40, 0.5f);
  Parameter x = MakeParam("x", 5, 3, 41);
  RunGradCheck({&w1, &b1, &w2, &x}, [](Tape&, const std::vector<Var>& v) {
    Var h = Gelu(AddRowBroadcast(MatMul(v[3], v[0]), v[1]));
    Var logits = MatMul(h, v[2]);
    return BceWithLogits(logits, {1, 0, 1, 0, 1});
  });
}

TEST(GradCheck, ContrastiveLossComposite) {
  // The exact graph shape used by the blocker's Eq. 8 implementation.
  Parameter pr = MakeParam("pr", 3, 4, 42, 0.5f);
  Parameter ps = MakeParam("ps", 3, 4, 43, 0.5f);
  Parameter nr = MakeParam("nr", 5, 4, 44, 0.5f);
  Parameter ns = MakeParam("ns", 5, 4, 45, 0.5f);
  RunGradCheck({&pr, &ps, &nr, &ns}, [](Tape&, const std::vector<Var>& v) {
    Var d_pos = RowwiseSquaredDistance(v[0], v[1]);
    Var d_sr = PairwiseSquaredDistance(v[1], v[2]);
    Var d_rs = PairwiseSquaredDistance(v[0], v[3]);
    Var d_rr = RowwiseSquaredDistance(v[2], v[3]);
    Var shared = TileRows(Transpose(ScalarMul(d_rr, -1.0f)), 3);
    Var terms = ConcatCols({ScalarMul(d_pos, -1.0f), ScalarMul(d_sr, -1.0f),
                            ScalarMul(d_rs, -1.0f), shared});
    return MeanAll(Add(LogSumExpRows(terms), d_pos));
  });
}

// --------------------------------------------------------------- optimizers

TEST(Optim, SgdReducesQuadratic) {
  Parameter p("p", 1, 3);
  p.value = la::Matrix({{1.0f, -2.0f, 3.0f}});
  Sgd sgd({&p}, 0.1f);
  for (int step = 0; step < 100; ++step) {
    sgd.ZeroGrad();
    Tape tape;
    Var loss = MeanAll(Square(tape.Leaf(&p)));
    tape.Backward(loss);
    sgd.Step();
  }
  EXPECT_LT(la::FrobeniusNorm(p.value), 1e-2f);
}

TEST(Optim, AdamWReducesQuadratic) {
  Parameter p("p", 2, 2);
  p.value = la::Matrix({{1.0f, -1.0f}, {0.5f, 2.0f}});
  AdamW::Options options;
  options.weight_decay = 0.0f;
  AdamW adam({{{&p}, 0.05f}}, options);
  float first_loss = 0, last_loss = 0;
  for (int step = 0; step < 200; ++step) {
    adam.ZeroGrad();
    Tape tape;
    Var loss = MeanAll(Square(tape.Leaf(&p)));
    tape.Backward(loss);
    if (step == 0) first_loss = loss.scalar();
    last_loss = loss.scalar();
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.01f);
}

TEST(Optim, WeightDecayShrinksWeights) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 1.0f;
  AdamW::Options options;
  options.weight_decay = 0.1f;
  AdamW adam({{{&p}, 0.01f}}, options);
  for (int step = 0; step < 10; ++step) {
    adam.ZeroGrad();  // zero gradient: only decay acts
    adam.Step();
  }
  EXPECT_LT(p.value(0, 0), 1.0f);
  EXPECT_GT(p.value(0, 0), 0.9f);
}

TEST(Optim, GradientClippingBoundsUpdateDirection) {
  Parameter p("p", 1, 1);
  p.value(0, 0) = 0.0f;
  AdamW::Options options;
  options.clip_norm = 1.0f;
  options.weight_decay = 0.0f;
  AdamW clipped({{{&p}, 1e-3f}}, options);
  p.ZeroGrad();
  p.grad(0, 0) = 1e6f;  // exploding gradient
  clipped.Step();
  // Clipping keeps the Adam moment estimates finite and the step bounded.
  EXPECT_TRUE(std::isfinite(p.value(0, 0)));
  EXPECT_LT(std::fabs(p.value(0, 0)), 0.1f);
}

TEST(Optim, LinearScheduleEndpoints) {
  LinearSchedule schedule(10);
  EXPECT_FLOAT_EQ(schedule.Multiplier(0), 1.0f);
  EXPECT_NEAR(schedule.Multiplier(5), 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(schedule.Multiplier(10), 0.0f);
  EXPECT_FLOAT_EQ(schedule.Multiplier(15), 0.0f);
}

TEST(Optim, ParamGroupsUseOwnRates) {
  Parameter fast("fast", 1, 1), slow("slow", 1, 1);
  fast.value(0, 0) = slow.value(0, 0) = 1.0f;
  AdamW::Options options;
  options.weight_decay = 0.0f;
  AdamW adam({{{&fast}, 0.1f}, {{&slow}, 0.001f}}, options);
  adam.ZeroGrad();
  {
    Tape tape;
    Var loss = Add(MeanAll(Square(tape.Leaf(&fast))), MeanAll(Square(tape.Leaf(&slow))));
    tape.Backward(loss);
  }
  adam.Step();
  EXPECT_LT(fast.value(0, 0), slow.value(0, 0));
}

}  // namespace
}  // namespace dial::autograd
