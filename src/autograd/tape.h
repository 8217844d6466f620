#ifndef DIAL_AUTOGRAD_TAPE_H_
#define DIAL_AUTOGRAD_TAPE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.h"

/// \file
/// Tape-based reverse-mode automatic differentiation over `la::Matrix`.
///
/// Usage pattern (one tape per training step):
///
///   Tape tape;
///   Var x = tape.Constant(input);
///   Var w = tape.Leaf(&weights);        // gradient accumulates into weights
///   Var loss = BceWithLogits(MatMul(x, w), targets);
///   tape.Backward(loss);                // fills weights.grad
///
/// Nodes are created in topological order by construction, so the backward
/// pass is a single reverse sweep. Ops that feed only `requires_grad=false`
/// inputs skip registering a backward closure entirely, which makes
/// frozen-transformer paths (the DIAL blocker) nearly free to differentiate
/// through.
///
/// Node granularity: each op in ops.h records one node, and each `Leaf`
/// another. The transformer's sublayers record coarse nodes instead
/// (nn/transformer.h, nn/layers.h): self-attention, the FFN, and each
/// LayerNorm with its residual add are one node each, with a hand-written
/// backward that replays the per-op sweep bit for bit. A coarse node keeps
/// the activations its backward reads in storage the tape owns (`Alloc`),
/// and binds its parameters without `Leaf` nodes: it sums each parameter's
/// gradient for its sequence from +0 and adds that to `Parameter::grad`
/// when its backward runs, where the per-op sweep's `Leaf` did.

namespace dial::autograd {

class Tape;

/// A trainable tensor with persistent gradient and optimizer state. Owned by
/// nn::Module subclasses; referenced (not copied) by tapes.
struct Parameter {
  std::string name;
  la::Matrix value;
  la::Matrix grad;
  // AdamW state, lazily sized by the optimizer.
  la::Matrix adam_m;
  la::Matrix adam_v;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols, 0.0f) {}

  void ZeroGrad() {
    if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
      grad = la::Matrix(value.rows(), value.cols(), 0.0f);
    } else {
      grad.Zero();
    }
  }
};

/// One entry in the tape. Public because op implementations live in ops.cc;
/// client code only touches `Var`.
struct Node {
  Tape* tape = nullptr;
  // Owned value, or an alias of an external Parameter's value.
  la::Matrix owned_value;
  const la::Matrix* value_ptr = nullptr;
  la::Matrix grad;  // empty until first accumulation
  bool requires_grad = false;
  std::function<void()> backward;  // may be empty

  const la::Matrix& value() const { return *value_ptr; }
  size_t rows() const { return value_ptr->rows(); }
  size_t cols() const { return value_ptr->cols(); }

  /// Allocates a zero gradient on first use.
  la::Matrix& EnsureGrad() {
    if (grad.rows() != rows() || grad.cols() != cols()) {
      grad = la::Matrix(rows(), cols(), 0.0f);
    }
    return grad;
  }
  bool HasGrad() const { return grad.size() == value_ptr->size() && grad.size() > 0; }
};

/// Lightweight handle to a tape node.
class Var {
 public:
  Var() : node_(nullptr) {}
  explicit Var(Node* node) : node_(node) {}

  bool valid() const { return node_ != nullptr; }
  const la::Matrix& value() const { return node_->value(); }
  const la::Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }
  size_t rows() const { return node_->rows(); }
  size_t cols() const { return node_->cols(); }
  Node* node() const { return node_; }
  Tape* tape() const { return node_->tape; }

  /// The single scalar held by a 1x1 var.
  float scalar() const;

 private:
  Node* node_;
};

/// Records a computation graph and runs its reverse sweep.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// A constant input (no gradient ever flows into it).
  Var Constant(la::Matrix value);

  /// A leaf bound to an external Parameter; Backward() accumulates into
  /// `param->grad` (which must already be shaped like `param->value`).
  Var Leaf(Parameter* param);

  /// Internal: creates a derived node (ops.cc and the coarse nodes in nn).
  /// `requires_grad` should be the OR of the inputs'. The caller fills
  /// `backward` only when requires_grad.
  Node* NewNode(la::Matrix value, bool requires_grad);

  /// Storage the tape owns: `n` floats, 64-byte aligned, contents
  /// unspecified. Taken while recording, it lives until the tape is
  /// destroyed (a coarse node's saved activations); taken inside a node's
  /// backward, it is scratch that Backward() reclaims when that backward
  /// returns.
  float* Alloc(size_t n);

  /// Runs the reverse sweep from `loss` (must be 1x1). May be called once.
  void Backward(Var loss);

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct AlignedFree {
    void operator()(float* p) const;
  };
  struct Block {
    std::unique_ptr<float[], AlignedFree> data;
    size_t size = 0;
  };

  std::vector<std::unique_ptr<Node>> nodes_;
  // Alloc's bump arena: it carves from blocks_[block_] at offset used_.
  std::vector<Block> blocks_;
  size_t block_ = 0;
  size_t used_ = 0;
  bool backward_ran_ = false;
};

}  // namespace dial::autograd

#endif  // DIAL_AUTOGRAD_TAPE_H_
