#ifndef DIAL_LA_MATRIX_H_
#define DIAL_LA_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

/// \file
/// Dense row-major float32 matrix plus the handful of BLAS-free kernels the
/// autograd layer is built on. Everything in the training stack (transformer,
/// committee, heads) reduces to these operations; the heavy lifting lives in
/// la/kernels.h (register-tiled GEMM, batched distances) and this header is the
/// shape-checked Matrix-level entry point.

namespace dial::util {
class ThreadPool;
}

namespace dial::la {

/// Minimal over-aligned allocator so Matrix storage starts on a cache-line
/// (and AVX-512-friendly) 64-byte boundary: kernel loads from row 0 are
/// aligned, and rows never straddle lines unnecessarily.
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

constexpr size_t kMatrixAlignment = 64;

/// Matrix backing store: contiguous, 64-byte aligned.
using AlignedVector = std::vector<float, AlignedAllocator<float, kMatrixAlignment>>;

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols) {
    DebugCheckAlignment();
  }
  Matrix(size_t rows, size_t cols, float fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    DebugCheckAlignment();
  }
  /// Builds from nested initializer lists: Matrix({{1,2},{3,4}}).
  Matrix(std::initializer_list<std::initializer_list<float>> rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  float& at(size_t r, size_t c) {
    DIAL_CHECK_LT(r, rows_);
    DIAL_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    DIAL_CHECK_LT(r, rows_);
    DIAL_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  /// Unchecked access for hot loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  /// Gaussian init with the given standard deviation.
  void RandNormal(util::Rng& rng, float stddev);
  /// Uniform init in [-limit, limit].
  void RandUniform(util::Rng& rng, float limit);

  const AlignedVector& storage() const { return data_; }
  AlignedVector& storage() { return data_; }

 private:
  /// Kernels assume 64-byte-aligned storage; verify in debug builds.
  void DebugCheckAlignment() const {
#ifndef NDEBUG
    DIAL_CHECK_EQ(reinterpret_cast<std::uintptr_t>(data_.data()) %
                      kMatrixAlignment,
                  0u)
        << "Matrix storage is not 64-byte aligned";
#endif
  }

  size_t rows_;
  size_t cols_;
  AlignedVector data_;
};

/// out = a * b. Shapes: (m,k) x (k,n) -> (m,n). `out` is overwritten and may
/// not alias the inputs. `pool` (optional) fans the GEMM out over output-row
/// blocks; results are bit-identical for every thread count (see kernels.h).
void MatMul(const Matrix& a, const Matrix& b, Matrix& out,
            util::ThreadPool* pool = nullptr);

/// out += a * b (accumulating variant used in backward passes).
void MatMulAcc(const Matrix& a, const Matrix& b, Matrix& out,
               util::ThreadPool* pool = nullptr);

/// out += a^T * b. Shapes: (k,m)^T x (k,n) -> (m,n).
void MatMulTransposeAAcc(const Matrix& a, const Matrix& b, Matrix& out,
                         util::ThreadPool* pool = nullptr);

/// out += a * b^T. Shapes: (m,k) x (n,k)^T -> (m,n).
void MatMulTransposeBAcc(const Matrix& a, const Matrix& b, Matrix& out,
                         util::ThreadPool* pool = nullptr);

/// Convenience non-accumulating wrappers.
Matrix MatMul(const Matrix& a, const Matrix& b);
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// out = a + b (same shape).
void Add(const Matrix& a, const Matrix& b, Matrix& out);
/// a += b
void AddInPlace(Matrix& a, const Matrix& b);
/// a += scale * b
void Axpy(Matrix& a, float scale, const Matrix& b);
/// Adds row-vector `bias` (1 x n) to every row of `a` (m x n).
void AddRowBroadcast(Matrix& a, const Matrix& bias);

/// Elementwise product out = a ⊙ b.
void Hadamard(const Matrix& a, const Matrix& b, Matrix& out);

/// Scales all entries in place.
void Scale(Matrix& a, float s);

/// Returns the transpose (cache-blocked).
Matrix Transpose(const Matrix& a);

/// Squared L2 distance between two equal-length rows.
float SquaredDistance(const float* a, const float* b, size_t n);
/// Dot product of two equal-length rows.
float Dot(const float* a, const float* b, size_t n);
/// L2 norm of a row.
float Norm(const float* a, size_t n);

/// Frobenius norm of the whole matrix.
float FrobeniusNorm(const Matrix& a);

/// Scales every row to unit L2 norm (zero rows stay zero). On normalized
/// rows, squared-L2 nearest neighbours coincide with cosine similarity —
/// the "scaled cosine" retrieval the paper mentions as an alternative
/// similarity for the blocker.
void NormalizeRowsInPlace(Matrix& a);

/// True if all entries are finite.
bool AllFinite(const Matrix& a);

}  // namespace dial::la

#endif  // DIAL_LA_MATRIX_H_
