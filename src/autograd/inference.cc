#include "autograd/inference.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"
#include "util/flags.h"
#include "util/logging.h"

namespace dial::autograd {

la::Matrix* InferenceContext::Acquire(size_t rows, size_t cols) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& stack = free_[Key(rows, cols)];
  std::unique_ptr<la::Matrix> m;
  if (!stack.empty()) {
    m = std::move(stack.back());
    stack.pop_back();
  } else {
    m = std::make_unique<la::Matrix>(rows, cols);
    ++allocated_;
    bytes_ += rows * cols * sizeof(float);
  }
  la::Matrix* raw = m.get();
  borrowed_.emplace(raw, std::move(m));
  return raw;
}

void InferenceContext::Release(la::Matrix* m) {
  if (m == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = borrowed_.find(m);
  DIAL_CHECK(it != borrowed_.end()) << "Release of a matrix this arena never lent";
  free_[Key(m->rows(), m->cols())].push_back(std::move(it->second));
  borrowed_.erase(it);
}

size_t InferenceContext::allocated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return allocated_;
}

size_t InferenceContext::arena_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t InferenceContext::borrowed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return borrowed_.size();
}

void InferenceContext::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  DIAL_CHECK(borrowed_.empty()) << "Clear with live scratch borrows";
  free_.clear();
  allocated_ = 0;
  bytes_ = 0;
  std::lock_guard<std::mutex> qlock(quant_mu_);
  quant_cache_.clear();
  quant_epoch_ = 0;
}

util::StatusOr<Precision> ParsePrecision(const std::string& text) {
  return util::ParseChoice<Precision>("precision", text,
                                      {{"fp32", Precision::kFloat32},
                                       {"float32", Precision::kFloat32},
                                       {"int8", Precision::kInt8}});
}

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFloat32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "fp32";
}

std::shared_ptr<const la::quant::QuantizedTensor>
InferenceContext::QuantizedTransposed(const la::Matrix& w) {
  const uint64_t epoch = la::quant::WeightEpoch();
  std::lock_guard<std::mutex> lock(quant_mu_);
  if (epoch != quant_epoch_) {
    // Some parameter somewhere changed; address keys may be stale too
    // (module rebuilds bump the epoch), so drop everything and requantize
    // lazily. Weight quantization is O(weights) once per training step /
    // load, amortized over every forward until the next one.
    quant_cache_.clear();
    quant_epoch_ = epoch;
  }
  auto& entry = quant_cache_[&w];
  if (entry == nullptr) {
    auto q = std::make_shared<la::quant::QuantizedTensor>();
    la::quant::QuantizeTransposed(w, q.get());
    entry = std::move(q);
  }
  return entry;
}

namespace infer {

void MatMul(const la::Matrix& a, const la::Matrix& b, la::Matrix& out,
            util::ThreadPool* pool) {
  DIAL_CHECK_EQ(a.cols(), b.rows());
  DIAL_CHECK_EQ(out.rows(), a.rows());
  DIAL_CHECK_EQ(out.cols(), b.cols());
  out.Zero();
  la::kernels::GemmNN(a.rows(), b.cols(), a.cols(), a.data(), b.data(),
                      out.data(), pool);
}

void MatMulTransposeB(const la::Matrix& a, const la::Matrix& b,
                      la::Matrix& out, util::ThreadPool* pool) {
  DIAL_CHECK_EQ(a.cols(), b.cols());
  DIAL_CHECK_EQ(out.rows(), a.rows());
  DIAL_CHECK_EQ(out.cols(), b.rows());
  out.Zero();
  la::kernels::GemmNT(a.rows(), b.rows(), a.cols(), a.data(), b.data(),
                      out.data(), pool);
}

void TanhInPlace(la::Matrix& x) {
  float* v = x.data();
  for (size_t i = 0; i < x.size(); ++i) v[i] = std::tanh(v[i]);
}

void GeluInPlace(la::Matrix& x) {
  constexpr float kAlpha = 0.7978845608f;  // sqrt(2/pi), as in ops::Gelu
  constexpr float kBeta = 0.044715f;
  float* data = x.data();
  for (size_t i = 0; i < x.size(); ++i) {
    const float v = data[i];
    const float inner = kAlpha * (v + kBeta * v * v * v);
    data[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void SoftmaxRowsInPlace(la::Matrix& x) {
  for (size_t r = 0; r < x.rows(); ++r) {
    float* row = x.row(r);
    float mx = row[0];
    for (size_t c = 1; c < x.cols(); ++c) mx = std::max(mx, row[c]);
    float acc = 0.0f;
    for (size_t c = 0; c < x.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      acc += row[c];
    }
    const float inv = 1.0f / acc;
    for (size_t c = 0; c < x.cols(); ++c) row[c] *= inv;
  }
}

void AddInto(const la::Matrix& a, const la::Matrix& b, la::Matrix& out) {
  DIAL_CHECK_EQ(a.rows(), b.rows());
  DIAL_CHECK_EQ(a.cols(), b.cols());
  DIAL_CHECK_EQ(out.rows(), a.rows());
  DIAL_CHECK_EQ(out.cols(), a.cols());
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  for (size_t i = 0; i < a.size(); ++i) ov[i] = av[i] + bv[i];
}

void LayerNormRows(const la::Matrix& x, la::Matrix& out, float eps) {
  const size_t n = x.cols();
  DIAL_CHECK_GT(n, 0u);
  DIAL_CHECK_EQ(out.rows(), x.rows());
  DIAL_CHECK_EQ(out.cols(), n);
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.row(r);
    float mean = 0.0f;
    for (size_t c = 0; c < n; ++c) mean += row[c];
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (size_t c = 0; c < n; ++c) {
      const float d = row[c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(n);
    const float is = 1.0f / std::sqrt(var + eps);
    float* orow = out.row(r);
    for (size_t c = 0; c < n; ++c) orow[c] = (row[c] - mean) * is;
  }
}

void NormalizeRowsInPlace(la::Matrix& x, float eps) {
  const size_t n = x.cols();
  for (size_t r = 0; r < x.rows(); ++r) {
    float* row = x.row(r);
    const float norm = std::max(la::Norm(row, n), eps);
    const float inv = 1.0f / norm;
    for (size_t c = 0; c < n; ++c) row[c] *= inv;
  }
}

void MeanRowsInto(const la::Matrix& x, size_t row_begin, size_t rows,
                  float* out_row) {
  DIAL_CHECK_GT(rows, 0u);
  DIAL_CHECK_LE(row_begin + rows, x.rows());
  const size_t n = x.cols();
  for (size_t c = 0; c < n; ++c) out_row[c] = 0.0f;
  for (size_t r = row_begin; r < row_begin + rows; ++r) {
    const float* row = x.row(r);
    for (size_t c = 0; c < n; ++c) out_row[c] += row[c];
  }
  const float inv = 1.0f / static_cast<float>(rows);
  for (size_t c = 0; c < n; ++c) out_row[c] *= inv;
}

}  // namespace infer

}  // namespace dial::autograd
