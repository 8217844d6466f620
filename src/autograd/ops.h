#ifndef DIAL_AUTOGRAD_OPS_H_
#define DIAL_AUTOGRAD_OPS_H_

#include <cmath>
#include <vector>

#include "autograd/tape.h"
#include "util/rng.h"

/// \file
/// Differentiable operations over tape `Var`s. Each op creates one node on
/// the inputs' tape; when no input requires a gradient the backward closure
/// is omitted (forward-only cost).
///
/// Shape conventions: matrices are (rows=examples/tokens, cols=features).

namespace dial::autograd {

// ---------------------------------------------------------------- arithmetic
/// Elementwise a + b (same shape).
Var Add(Var a, Var b);
/// Elementwise a - b (same shape).
Var Sub(Var a, Var b);
/// Elementwise a * b (same shape).
Var Mul(Var a, Var b);
/// Sum of N same-shaped vars.
Var AddN(const std::vector<Var>& xs);
/// x * s for a compile-time constant s.
Var ScalarMul(Var x, float s);
/// x + c elementwise for a constant c.
Var AddScalar(Var x, float c);
/// Adds a 1x1 var to every entry of x.
Var AddBroadcastScalar(Var x, Var s);

// --------------------------------------------------------------- activations
Var Tanh(Var x);
Var Relu(Var x);
/// Gaussian error linear unit (tanh approximation, as in BERT):
/// 0.5 x (1 + GeluTanh(x)).
Var Gelu(Var x);

/// GELU's tanh term, tanh(sqrt(2/pi) (x + 0.044715 x^3)). Gelu, the
/// inference engine and the transformer's FFN node all evaluate GELU
/// through it; the FFN node keeps it for the backward.
inline float GeluTanh(float x) {
  constexpr float kAlpha = 0.7978845608f;  // sqrt(2/pi)
  constexpr float kBeta = 0.044715f;
  return std::tanh(kAlpha * (x + kBeta * x * x * x));
}

/// d/dx of 0.5 x (1 + t) at x, given t = GeluTanh(x).
inline float GeluGrad(float x, float t) {
  constexpr float kAlpha = 0.7978845608f;
  constexpr float kBeta = 0.044715f;
  const float dinner = kAlpha * (1.0f + 3.0f * kBeta * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
}

Var Sigmoid(Var x);
Var Exp(Var x);
/// Natural log; inputs must be strictly positive.
Var Log(Var x);
Var Abs(Var x);
/// Elementwise square.
Var Square(Var x);

// ------------------------------------------------------------ linear algebra
/// (m,k) x (k,n) -> (m,n).
Var MatMul(Var a, Var b);
/// a * b^T: (m,k) x (n,k) -> (m,n). Attention scores use this.
Var MatMulTransposeB(Var a, Var b);
Var Transpose(Var x);

// ---------------------------------------------------------------- broadcasts
/// Adds row vector b (1,n) to every row of x (m,n).
Var AddRowBroadcast(Var x, Var b);
/// Multiplies every row of x (m,n) elementwise by row vector g (1,n).
Var MulRowBroadcast(Var x, Var g);
/// Tiles a (1,n) row vector into (m,n).
Var TileRows(Var x, size_t m);

// ------------------------------------------------------------------ reshape
/// Columns [begin, end) of x.
Var SliceCols(Var x, size_t begin, size_t end);
/// Rows [begin, end) of x.
Var SliceRows(Var x, size_t begin, size_t end);
/// Horizontal concatenation (same row count).
Var ConcatCols(const std::vector<Var>& xs);
/// Vertical concatenation (same column count).
Var ConcatRows(const std::vector<Var>& xs);

// --------------------------------------------------------------- reductions
/// (m,n) -> (m,1) row sums.
Var RowSum(Var x);
/// (m,n) -> (1,n) column mean (mean pooling over rows/tokens).
Var MeanRows(Var x);
/// (m,n) -> (1,1) sum of all entries.
Var SumAll(Var x);
/// (m,n) -> (1,1) mean of all entries.
Var MeanAll(Var x);
/// Numerically stable (m,n) -> (m,1) log(sum(exp(row))).
Var LogSumExpRows(Var x);
/// (m,n) -> (m,1) row maxima; gradient flows to the (first) argmax.
Var RowMax(Var x);
/// Row-wise softmax (m,n) -> (m,n).
Var SoftmaxRows(Var x);

// -------------------------------------------------------------- normalization
/// Per-row layer normalization (no affine): (x - mean) / sqrt(var + eps).
Var LayerNormRows(Var x, float eps = 1e-5f);

/// Per-row L2 normalization: x / max(||x||, eps). Squared distances between
/// normalized rows equal 2 - 2·cosine.
Var NormalizeRows(Var x, float eps = 1e-8f);

/// Inverted dropout. Active only when `training`; mask drawn from `rng` at
/// graph-construction time (deterministic given tape build order).
Var Dropout(Var x, float p, util::Rng& rng, bool training);

/// Dropout's mask for n elements, drawn from `rng` in element order: each
/// entry is 1/(1-p) with probability 1-p, else 0. Needs 0 < p < 1.
void DropoutMask(float p, util::Rng& rng, float* mask, size_t n);

// ---------------------------------------------------------------- embeddings
/// Gathers rows `ids` of the embedding table; backward scatter-adds directly
/// into `table->grad` without materializing the full table on the tape.
Var EmbeddingGather(Tape& tape, Parameter* table, const std::vector<int>& ids);

// ----------------------------------------------------------------- distances
/// Row-aligned squared L2 distance: a,b (m,d) -> (m,1).
Var RowwiseSquaredDistance(Var a, Var b);
/// All-pairs squared L2 distance: a (m,d), b (n,d) -> (m,n).
Var PairwiseSquaredDistance(Var a, Var b);

// -------------------------------------------------------------------- losses
/// Mean binary cross entropy over logits (m,1) with targets in {0,1}.
Var BceWithLogits(Var logits, const std::vector<float>& targets);
/// Mean softmax cross entropy over rows of logits (m,V) with integer class
/// targets; rows with target < 0 are ignored (MLM-style masking).
Var SoftmaxCrossEntropy(Var logits, const std::vector<int>& targets);

}  // namespace dial::autograd

#endif  // DIAL_AUTOGRAD_OPS_H_
