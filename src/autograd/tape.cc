#include "autograd/tape.h"

#include <algorithm>
#include <new>

namespace dial::autograd {

namespace {
// Allocations are whole 64-byte lines; a block holds 256 KB unless one
// request needs more.
constexpr size_t kLineFloats = la::kMatrixAlignment / sizeof(float);
constexpr size_t kBlockFloats = size_t{1} << 16;
}  // namespace

float Var::scalar() const {
  DIAL_CHECK_EQ(node_->rows(), 1u);
  DIAL_CHECK_EQ(node_->cols(), 1u);
  return node_->value()(0, 0);
}

Var Tape::Constant(la::Matrix value) {
  Node* n = NewNode(std::move(value), /*requires_grad=*/false);
  return Var(n);
}

Var Tape::Leaf(Parameter* param) {
  DIAL_CHECK(param != nullptr);
  auto node = std::make_unique<Node>();
  node->tape = this;
  node->value_ptr = &param->value;
  node->requires_grad = true;
  Node* raw = node.get();
  node->backward = [raw, param]() {
    if (!raw->HasGrad()) return;
    DIAL_CHECK_EQ(param->grad.rows(), raw->rows());
    DIAL_CHECK_EQ(param->grad.cols(), raw->cols());
    la::AddInPlace(param->grad, raw->grad);
  };
  nodes_.push_back(std::move(node));
  return Var(raw);
}

Node* Tape::NewNode(la::Matrix value, bool requires_grad) {
  auto node = std::make_unique<Node>();
  node->tape = this;
  node->owned_value = std::move(value);
  node->value_ptr = &node->owned_value;
  node->requires_grad = requires_grad;
  Node* raw = node.get();
  nodes_.push_back(std::move(node));
  return raw;
}

void Tape::AlignedFree::operator()(float* p) const {
  ::operator delete(p, std::align_val_t(la::kMatrixAlignment));
}

float* Tape::Alloc(size_t n) {
  n = (n + kLineFloats - 1) / kLineFloats * kLineFloats;
  // Blocks past block_ are left from scratch that Backward() reclaimed.
  while (block_ < blocks_.size() && used_ + n > blocks_[block_].size) {
    ++block_;
    used_ = 0;
  }
  if (block_ == blocks_.size()) {
    const size_t size = std::max(n, kBlockFloats);
    float* data = static_cast<float*>(::operator new(
        size * sizeof(float), std::align_val_t(la::kMatrixAlignment)));
    blocks_.push_back({std::unique_ptr<float[], AlignedFree>(data), size});
  }
  float* out = blocks_[block_].data.get() + used_;
  used_ += n;
  return out;
}

void Tape::Backward(Var loss) {
  DIAL_CHECK(!backward_ran_) << "Backward may run once per tape";
  backward_ran_ = true;
  DIAL_CHECK(loss.valid());
  DIAL_CHECK_EQ(loss.rows(), 1u);
  DIAL_CHECK_EQ(loss.cols(), 1u);
  loss.node()->EnsureGrad()(0, 0) = 1.0f;
  for (size_t i = nodes_.size(); i-- > 0;) {
    Node* n = nodes_[i].get();
    if (!n->requires_grad || !n->backward || !n->HasGrad()) continue;
    const size_t block = block_;
    const size_t used = used_;
    n->backward();
    block_ = block;  // reclaim the scratch this backward took
    used_ = used;
  }
}

}  // namespace dial::autograd
