#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"

namespace dial::autograd {

namespace {

Tape& TapeOf(Var v) {
  DIAL_CHECK(v.valid());
  return *v.tape();
}

/// Creates the output node; attaches `make_backward(out)` only if needed.
/// The factory runs before MakeOp returns, so it may capture the caller's
/// locals by reference and move them into the closure it returns.
template <typename BackwardFactory>
Var MakeOp(Tape& tape, la::Matrix value, bool requires_grad,
           BackwardFactory make_backward) {
  Node* out = tape.NewNode(std::move(value), requires_grad);
  if (requires_grad) out->backward = make_backward(out);
  return Var(out);
}

void CheckSameShape(Var a, Var b) {
  DIAL_CHECK_EQ(a.rows(), b.rows());
  DIAL_CHECK_EQ(a.cols(), b.cols());
}

}  // namespace

Var Add(Var a, Var b) {
  CheckSameShape(a, b);
  la::Matrix v;
  la::Add(a.value(), b.value(), v);
  const bool rg = a.requires_grad() || b.requires_grad();
  Node* na = a.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(a), std::move(v), rg, [na, nb](Node* out) {
    return [na, nb, out]() {
      if (na->requires_grad) la::AddInPlace(na->EnsureGrad(), out->grad);
      if (nb->requires_grad) la::AddInPlace(nb->EnsureGrad(), out->grad);
    };
  });
}

Var Sub(Var a, Var b) {
  CheckSameShape(a, b);
  la::Matrix v(a.rows(), a.cols());
  for (size_t i = 0; i < v.size(); ++i) {
    v.data()[i] = a.value().data()[i] - b.value().data()[i];
  }
  const bool rg = a.requires_grad() || b.requires_grad();
  Node* na = a.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(a), std::move(v), rg, [na, nb](Node* out) {
    return [na, nb, out]() {
      if (na->requires_grad) la::AddInPlace(na->EnsureGrad(), out->grad);
      if (nb->requires_grad) la::Axpy(nb->EnsureGrad(), -1.0f, out->grad);
    };
  });
}

Var Mul(Var a, Var b) {
  CheckSameShape(a, b);
  la::Matrix v;
  la::Hadamard(a.value(), b.value(), v);
  const bool rg = a.requires_grad() || b.requires_grad();
  Node* na = a.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(a), std::move(v), rg, [na, nb](Node* out) {
    return [na, nb, out]() {
      if (na->requires_grad) {
        la::Matrix& g = na->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          g.data()[i] += out->grad.data()[i] * nb->value().data()[i];
        }
      }
      if (nb->requires_grad) {
        la::Matrix& g = nb->EnsureGrad();
        for (size_t i = 0; i < g.size(); ++i) {
          g.data()[i] += out->grad.data()[i] * na->value().data()[i];
        }
      }
    };
  });
}

Var AddN(const std::vector<Var>& xs) {
  DIAL_CHECK(!xs.empty());
  la::Matrix v = xs[0].value();
  bool rg = xs[0].requires_grad();
  for (size_t i = 1; i < xs.size(); ++i) {
    CheckSameShape(xs[0], xs[i]);
    la::AddInPlace(v, xs[i].value());
    rg = rg || xs[i].requires_grad();
  }
  std::vector<Node*> nodes;
  nodes.reserve(xs.size());
  for (Var x : xs) nodes.push_back(x.node());
  return MakeOp(TapeOf(xs[0]), std::move(v), rg, [&nodes](Node* out) {
    return [nodes = std::move(nodes), out]() {
      for (Node* n : nodes) {
        if (n->requires_grad) la::AddInPlace(n->EnsureGrad(), out->grad);
      }
    };
  });
}

Var ScalarMul(Var x, float s) {
  la::Matrix v = x.value();
  la::Scale(v, s);
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx, s](Node* out) {
    return [nx, s, out]() { la::Axpy(nx->EnsureGrad(), s, out->grad); };
  });
}

Var AddScalar(Var x, float c) {
  la::Matrix v = x.value();
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] += c;
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx](Node* out) {
    return [nx, out]() { la::AddInPlace(nx->EnsureGrad(), out->grad); };
  });
}

Var AddBroadcastScalar(Var x, Var s) {
  DIAL_CHECK_EQ(s.rows(), 1u);
  DIAL_CHECK_EQ(s.cols(), 1u);
  la::Matrix v = x.value();
  const float sv = s.value()(0, 0);
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] += sv;
  const bool rg = x.requires_grad() || s.requires_grad();
  Node* nx = x.node();
  Node* ns = s.node();
  return MakeOp(TapeOf(x), std::move(v), rg, [nx, ns](Node* out) {
    return [nx, ns, out]() {
      if (nx->requires_grad) la::AddInPlace(nx->EnsureGrad(), out->grad);
      if (ns->requires_grad) {
        float total = 0.0f;
        for (size_t i = 0; i < out->grad.size(); ++i) total += out->grad.data()[i];
        ns->EnsureGrad()(0, 0) += total;
      }
    };
  });
}

namespace {

/// Helper for simple elementwise unary ops: dy/dx computed from y and x.
template <typename Fwd, typename Bwd>
Var UnaryOp(Var x, Fwd fwd, Bwd dydx_from_xy) {
  la::Matrix v(x.rows(), x.cols());
  for (size_t i = 0; i < v.size(); ++i) v.data()[i] = fwd(x.value().data()[i]);
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(),
                [nx, dydx_from_xy](Node* out) {
                  return [nx, dydx_from_xy, out]() {
                    la::Matrix& g = nx->EnsureGrad();
                    for (size_t i = 0; i < g.size(); ++i) {
                      const float xi = nx->value().data()[i];
                      const float yi = out->owned_value.data()[i];
                      g.data()[i] += out->grad.data()[i] * dydx_from_xy(xi, yi);
                    }
                  };
                });
}

}  // namespace

Var Tanh(Var x) {
  return UnaryOp(
      x, [](float v) { return std::tanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Var Relu(Var x) {
  return UnaryOp(
      x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float xv, float) { return xv > 0.0f ? 1.0f : 0.0f; });
}

Var Gelu(Var x) {
  return UnaryOp(
      x, [](float v) { return 0.5f * v * (1.0f + GeluTanh(v)); },
      [](float v, float) { return GeluGrad(v, GeluTanh(v)); });
}

Var Sigmoid(Var x) {
  return UnaryOp(
      x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); },
      [](float, float y) { return y * (1.0f - y); });
}

Var Exp(Var x) {
  return UnaryOp(
      x, [](float v) { return std::exp(v); }, [](float, float y) { return y; });
}

Var Log(Var x) {
  return UnaryOp(
      x,
      [](float v) {
        DIAL_CHECK_GT(v, 0.0f) << "Log of non-positive value";
        return std::log(v);
      },
      [](float xv, float) { return 1.0f / xv; });
}

Var Abs(Var x) {
  return UnaryOp(
      x, [](float v) { return std::fabs(v); },
      [](float xv, float) { return xv >= 0.0f ? 1.0f : -1.0f; });
}

Var Square(Var x) {
  return UnaryOp(
      x, [](float v) { return v * v; }, [](float xv, float) { return 2.0f * xv; });
}

Var MatMul(Var a, Var b) {
  la::Matrix v;
  la::MatMul(a.value(), b.value(), v);
  const bool rg = a.requires_grad() || b.requires_grad();
  Node* na = a.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(a), std::move(v), rg, [na, nb](Node* out) {
    return [na, nb, out]() {
      if (na->requires_grad) {
        // dA += dOut * B^T
        la::MatMulTransposeBAcc(out->grad, nb->value(), na->EnsureGrad());
      }
      if (nb->requires_grad) {
        // dB += A^T * dOut
        la::MatMulTransposeAAcc(na->value(), out->grad, nb->EnsureGrad());
      }
    };
  });
}

Var MatMulTransposeB(Var a, Var b) {
  DIAL_CHECK_EQ(a.cols(), b.cols());
  la::Matrix v(a.rows(), b.rows());
  la::MatMulTransposeBAcc(a.value(), b.value(), v);
  const bool rg = a.requires_grad() || b.requires_grad();
  Node* na = a.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(a), std::move(v), rg, [na, nb](Node* out) {
    return [na, nb, out]() {
      if (na->requires_grad) {
        // dA += dOut * B
        la::MatMulAcc(out->grad, nb->value(), na->EnsureGrad());
      }
      if (nb->requires_grad) {
        // dB += dOut^T * A
        la::MatMulTransposeAAcc(out->grad, na->value(), nb->EnsureGrad());
      }
    };
  });
}

Var Transpose(Var x) {
  Node* nx = x.node();
  return MakeOp(TapeOf(x), la::Transpose(x.value()), x.requires_grad(),
                [nx](Node* out) {
                  return [nx, out]() {
                    la::Matrix gt = la::Transpose(out->grad);
                    la::AddInPlace(nx->EnsureGrad(), gt);
                  };
                });
}

Var AddRowBroadcast(Var x, Var b) {
  DIAL_CHECK_EQ(b.rows(), 1u);
  DIAL_CHECK_EQ(b.cols(), x.cols());
  la::Matrix v = x.value();
  la::AddRowBroadcast(v, b.value());
  const bool rg = x.requires_grad() || b.requires_grad();
  Node* nx = x.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(x), std::move(v), rg, [nx, nb](Node* out) {
    return [nx, nb, out]() {
      if (nx->requires_grad) la::AddInPlace(nx->EnsureGrad(), out->grad);
      if (nb->requires_grad) {
        la::Matrix& g = nb->EnsureGrad();
        for (size_t r = 0; r < out->grad.rows(); ++r) {
          const float* grow = out->grad.row(r);
          for (size_t c = 0; c < out->grad.cols(); ++c) g(0, c) += grow[c];
        }
      }
    };
  });
}

Var MulRowBroadcast(Var x, Var g) {
  DIAL_CHECK_EQ(g.rows(), 1u);
  DIAL_CHECK_EQ(g.cols(), x.cols());
  la::Matrix v = x.value();
  for (size_t r = 0; r < v.rows(); ++r) {
    float* row = v.row(r);
    const float* grow = g.value().row(0);
    for (size_t c = 0; c < v.cols(); ++c) row[c] *= grow[c];
  }
  const bool rg = x.requires_grad() || g.requires_grad();
  Node* nx = x.node();
  Node* ng = g.node();
  return MakeOp(TapeOf(x), std::move(v), rg, [nx, ng](Node* out) {
    return [nx, ng, out]() {
      const size_t rows = out->grad.rows();
      const size_t cols = out->grad.cols();
      if (nx->requires_grad) {
        la::Matrix& gx = nx->EnsureGrad();
        for (size_t r = 0; r < rows; ++r) {
          const float* grow = out->grad.row(r);
          const float* gv = ng->value().row(0);
          float* dst = gx.row(r);
          for (size_t c = 0; c < cols; ++c) dst[c] += grow[c] * gv[c];
        }
      }
      if (ng->requires_grad) {
        la::Matrix& gg = ng->EnsureGrad();
        for (size_t r = 0; r < rows; ++r) {
          const float* grow = out->grad.row(r);
          const float* xrow = nx->value().row(r);
          for (size_t c = 0; c < cols; ++c) gg(0, c) += grow[c] * xrow[c];
        }
      }
    };
  });
}

Var TileRows(Var x, size_t m) {
  DIAL_CHECK_EQ(x.rows(), 1u);
  la::Matrix v(m, x.cols());
  for (size_t r = 0; r < m; ++r) {
    std::copy(x.value().row(0), x.value().row(0) + x.cols(), v.row(r));
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx](Node* out) {
    return [nx, out]() {
      la::Matrix& g = nx->EnsureGrad();
      for (size_t r = 0; r < out->grad.rows(); ++r) {
        const float* grow = out->grad.row(r);
        for (size_t c = 0; c < out->grad.cols(); ++c) g(0, c) += grow[c];
      }
    };
  });
}

Var SliceCols(Var x, size_t begin, size_t end) {
  DIAL_CHECK_LE(begin, end);
  DIAL_CHECK_LE(end, x.cols());
  la::Matrix v(x.rows(), end - begin);
  for (size_t r = 0; r < x.rows(); ++r) {
    std::copy(x.value().row(r) + begin, x.value().row(r) + end, v.row(r));
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx, begin](Node* out) {
    return [nx, begin, out]() {
      la::Matrix& g = nx->EnsureGrad();
      for (size_t r = 0; r < out->grad.rows(); ++r) {
        const float* grow = out->grad.row(r);
        float* dst = g.row(r) + begin;
        for (size_t c = 0; c < out->grad.cols(); ++c) dst[c] += grow[c];
      }
    };
  });
}

Var SliceRows(Var x, size_t begin, size_t end) {
  DIAL_CHECK_LE(begin, end);
  DIAL_CHECK_LE(end, x.rows());
  la::Matrix v(end - begin, x.cols());
  for (size_t r = begin; r < end; ++r) {
    std::copy(x.value().row(r), x.value().row(r) + x.cols(), v.row(r - begin));
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx, begin](Node* out) {
    return [nx, begin, out]() {
      la::Matrix& g = nx->EnsureGrad();
      for (size_t r = 0; r < out->grad.rows(); ++r) {
        const float* grow = out->grad.row(r);
        float* dst = g.row(r + begin);
        for (size_t c = 0; c < out->grad.cols(); ++c) dst[c] += grow[c];
      }
    };
  });
}

Var ConcatCols(const std::vector<Var>& xs) {
  DIAL_CHECK(!xs.empty());
  const size_t rows = xs[0].rows();
  size_t cols = 0;
  bool rg = false;
  for (Var x : xs) {
    DIAL_CHECK_EQ(x.rows(), rows);
    cols += x.cols();
    rg = rg || x.requires_grad();
  }
  la::Matrix v(rows, cols);
  size_t offset = 0;
  for (Var x : xs) {
    for (size_t r = 0; r < rows; ++r) {
      std::copy(x.value().row(r), x.value().row(r) + x.cols(), v.row(r) + offset);
    }
    offset += x.cols();
  }
  std::vector<Node*> nodes;
  for (Var x : xs) nodes.push_back(x.node());
  return MakeOp(TapeOf(xs[0]), std::move(v), rg, [&nodes](Node* out) {
    return [nodes = std::move(nodes), out]() {
      size_t offset = 0;
      for (Node* n : nodes) {
        if (n->requires_grad) {
          la::Matrix& g = n->EnsureGrad();
          for (size_t r = 0; r < out->grad.rows(); ++r) {
            const float* grow = out->grad.row(r) + offset;
            float* dst = g.row(r);
            for (size_t c = 0; c < n->cols(); ++c) dst[c] += grow[c];
          }
        }
        offset += n->cols();
      }
    };
  });
}

Var ConcatRows(const std::vector<Var>& xs) {
  DIAL_CHECK(!xs.empty());
  const size_t cols = xs[0].cols();
  size_t rows = 0;
  bool rg = false;
  for (Var x : xs) {
    DIAL_CHECK_EQ(x.cols(), cols);
    rows += x.rows();
    rg = rg || x.requires_grad();
  }
  la::Matrix v(rows, cols);
  size_t offset = 0;
  for (Var x : xs) {
    for (size_t r = 0; r < x.rows(); ++r) {
      std::copy(x.value().row(r), x.value().row(r) + cols, v.row(offset + r));
    }
    offset += x.rows();
  }
  std::vector<Node*> nodes;
  for (Var x : xs) nodes.push_back(x.node());
  return MakeOp(TapeOf(xs[0]), std::move(v), rg, [&nodes](Node* out) {
    return [nodes = std::move(nodes), out]() {
      size_t offset = 0;
      for (Node* n : nodes) {
        if (n->requires_grad) {
          la::Matrix& g = n->EnsureGrad();
          for (size_t r = 0; r < n->rows(); ++r) {
            const float* grow = out->grad.row(offset + r);
            float* dst = g.row(r);
            for (size_t c = 0; c < n->cols(); ++c) dst[c] += grow[c];
          }
        }
        offset += n->rows();
      }
    };
  });
}

Var RowSum(Var x) {
  la::Matrix v(x.rows(), 1);
  for (size_t r = 0; r < x.rows(); ++r) {
    float acc = 0.0f;
    const float* row = x.value().row(r);
    for (size_t c = 0; c < x.cols(); ++c) acc += row[c];
    v(r, 0) = acc;
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx](Node* out) {
    return [nx, out]() {
      la::Matrix& g = nx->EnsureGrad();
      for (size_t r = 0; r < g.rows(); ++r) {
        const float gr = out->grad(r, 0);
        float* dst = g.row(r);
        for (size_t c = 0; c < g.cols(); ++c) dst[c] += gr;
      }
    };
  });
}

Var MeanRows(Var x) {
  DIAL_CHECK_GT(x.rows(), 0u);
  la::Matrix v(1, x.cols(), 0.0f);
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.value().row(r);
    for (size_t c = 0; c < x.cols(); ++c) v(0, c) += row[c];
  }
  const float inv = 1.0f / static_cast<float>(x.rows());
  la::Scale(v, inv);
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx, inv](Node* out) {
    return [nx, inv, out]() {
      la::Matrix& g = nx->EnsureGrad();
      for (size_t r = 0; r < g.rows(); ++r) {
        float* dst = g.row(r);
        const float* grow = out->grad.row(0);
        for (size_t c = 0; c < g.cols(); ++c) dst[c] += grow[c] * inv;
      }
    };
  });
}

Var SumAll(Var x) {
  float acc = 0.0f;
  for (size_t i = 0; i < x.value().size(); ++i) acc += x.value().data()[i];
  la::Matrix v(1, 1);
  v(0, 0) = acc;
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx](Node* out) {
    return [nx, out]() {
      const float g = out->grad(0, 0);
      la::Matrix& gx = nx->EnsureGrad();
      for (size_t i = 0; i < gx.size(); ++i) gx.data()[i] += g;
    };
  });
}

Var MeanAll(Var x) {
  DIAL_CHECK_GT(x.value().size(), 0u);
  return ScalarMul(SumAll(x), 1.0f / static_cast<float>(x.value().size()));
}

Var LogSumExpRows(Var x) {
  la::Matrix v(x.rows(), 1);
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.value().row(r);
    float mx = row[0];
    for (size_t c = 1; c < x.cols(); ++c) mx = std::max(mx, row[c]);
    float acc = 0.0f;
    for (size_t c = 0; c < x.cols(); ++c) acc += std::exp(row[c] - mx);
    v(r, 0) = mx + std::log(acc);
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx](Node* out) {
    return [nx, out]() {
      la::Matrix& g = nx->EnsureGrad();
      for (size_t r = 0; r < g.rows(); ++r) {
        const float lse = out->owned_value(r, 0);
        const float gr = out->grad(r, 0);
        const float* row = nx->value().row(r);
        float* dst = g.row(r);
        for (size_t c = 0; c < g.cols(); ++c) {
          dst[c] += gr * std::exp(row[c] - lse);
        }
      }
    };
  });
}

Var RowMax(Var x) {
  la::Matrix v(x.rows(), 1);
  std::vector<size_t> argmax(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.value().row(r);
    size_t best = 0;
    for (size_t c = 1; c < x.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    v(r, 0) = row[best];
    argmax[r] = best;
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(),
                [nx, &argmax](Node* out) {
                  return [nx, argmax = std::move(argmax), out]() {
                    la::Matrix& g = nx->EnsureGrad();
                    for (size_t r = 0; r < g.rows(); ++r) {
                      g(r, argmax[r]) += out->grad(r, 0);
                    }
                  };
                });
}

Var SoftmaxRows(Var x) {
  la::Matrix v(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.value().row(r);
    float* vrow = v.row(r);
    float mx = row[0];
    for (size_t c = 1; c < x.cols(); ++c) mx = std::max(mx, row[c]);
    float acc = 0.0f;
    for (size_t c = 0; c < x.cols(); ++c) {
      vrow[c] = std::exp(row[c] - mx);
      acc += vrow[c];
    }
    const float inv = 1.0f / acc;
    for (size_t c = 0; c < x.cols(); ++c) vrow[c] *= inv;
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(), [nx](Node* out) {
    return [nx, out]() {
      // dx = y ⊙ (dy - (dy·y per row))
      la::Matrix& g = nx->EnsureGrad();
      for (size_t r = 0; r < g.rows(); ++r) {
        const float* y = out->owned_value.row(r);
        const float* dy = out->grad.row(r);
        float dot = 0.0f;
        for (size_t c = 0; c < g.cols(); ++c) dot += dy[c] * y[c];
        float* dst = g.row(r);
        for (size_t c = 0; c < g.cols(); ++c) dst[c] += y[c] * (dy[c] - dot);
      }
    };
  });
}

Var LayerNormRows(Var x, float eps) {
  const size_t n = x.cols();
  DIAL_CHECK_GT(n, 0u);
  la::Matrix v(x.rows(), n);
  la::Matrix inv_sigma(x.rows(), 1);
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.value().row(r);
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
    inv_sigma(r, 0) = is;
    float* vrow = v.row(r);
    for (size_t c = 0; c < n; ++c) vrow[c] = (row[c] - mean) * is;
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(),
                [nx, &inv_sigma](Node* out) {
                  return [nx, inv_sigma = std::move(inv_sigma), out]() {
                    // dx_i = is * (dy_i - mean(dy) - xhat_i * mean(dy ⊙ xhat))
                    la::Matrix& g = nx->EnsureGrad();
                    const size_t n = g.cols();
                    for (size_t r = 0; r < g.rows(); ++r) {
                      const float* xhat = out->owned_value.row(r);
                      const float* dy = out->grad.row(r);
                      float mean_dy = 0.0f;
                      float mean_dyxhat = 0.0f;
                      for (size_t c = 0; c < n; ++c) {
                        mean_dy += dy[c];
                        mean_dyxhat += dy[c] * xhat[c];
                      }
                      mean_dy /= static_cast<float>(n);
                      mean_dyxhat /= static_cast<float>(n);
                      const float is = inv_sigma(r, 0);
                      float* dst = g.row(r);
                      for (size_t c = 0; c < n; ++c) {
                        dst[c] += is * (dy[c] - mean_dy - xhat[c] * mean_dyxhat);
                      }
                    }
                  };
                });
}

Var NormalizeRows(Var x, float eps) {
  const size_t n = x.cols();
  la::Matrix v(x.rows(), n);
  la::Matrix inv_norm(x.rows(), 1);
  for (size_t r = 0; r < x.rows(); ++r) {
    const float* row = x.value().row(r);
    const float norm = std::max(la::Norm(row, n), eps);
    const float inv = 1.0f / norm;
    inv_norm(r, 0) = inv;
    float* vrow = v.row(r);
    for (size_t c = 0; c < n; ++c) vrow[c] = row[c] * inv;
  }
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(),
                [nx, &inv_norm](Node* out) {
                  return [nx, inv_norm = std::move(inv_norm), out]() {
                    // dx = (dy - y (y·dy)) / ||x||
                    la::Matrix& g = nx->EnsureGrad();
                    const size_t n = g.cols();
                    for (size_t r = 0; r < g.rows(); ++r) {
                      const float* y = out->owned_value.row(r);
                      const float* dy = out->grad.row(r);
                      float dot = 0.0f;
                      for (size_t c = 0; c < n; ++c) dot += y[c] * dy[c];
                      const float inv = inv_norm(r, 0);
                      float* dst = g.row(r);
                      for (size_t c = 0; c < n; ++c) {
                        dst[c] += inv * (dy[c] - y[c] * dot);
                      }
                    }
                  };
                });
}

void DropoutMask(float p, util::Rng& rng, float* mask, size_t n) {
  DIAL_CHECK_GT(p, 0.0f);
  DIAL_CHECK_LT(p, 1.0f);
  const float keep = 1.0f - p;
  const float scale = 1.0f / keep;
  for (size_t i = 0; i < n; ++i) mask[i] = rng.Bernoulli(keep) ? scale : 0.0f;
}

Var Dropout(Var x, float p, util::Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  la::Matrix mask(x.rows(), x.cols());
  DropoutMask(p, rng, mask.data(), mask.size());
  la::Matrix v;
  la::Hadamard(x.value(), mask, v);
  Node* nx = x.node();
  return MakeOp(TapeOf(x), std::move(v), x.requires_grad(),
                [nx, &mask](Node* out) {
                  return [nx, mask = std::move(mask), out]() {
                    la::Matrix& g = nx->EnsureGrad();
                    for (size_t i = 0; i < g.size(); ++i) {
                      g.data()[i] += out->grad.data()[i] * mask.data()[i];
                    }
                  };
                });
}

Var EmbeddingGather(Tape& tape, Parameter* table, const std::vector<int>& ids) {
  DIAL_CHECK(table != nullptr);
  const size_t d = table->value.cols();
  la::Matrix v(ids.size(), d);
  for (size_t i = 0; i < ids.size(); ++i) {
    DIAL_CHECK_GE(ids[i], 0);
    DIAL_CHECK_LT(static_cast<size_t>(ids[i]), table->value.rows());
    std::copy(table->value.row(ids[i]), table->value.row(ids[i]) + d, v.row(i));
  }
  Node* out = tape.NewNode(std::move(v), /*requires_grad=*/true);
  out->backward = [out, table, ids]() {
    const size_t d = table->grad.cols();
    for (size_t i = 0; i < ids.size(); ++i) {
      float* dst = table->grad.row(ids[i]);
      const float* src = out->grad.row(i);
      for (size_t c = 0; c < d; ++c) dst[c] += src[c];
    }
  };
  return Var(out);
}

Var RowwiseSquaredDistance(Var a, Var b) {
  CheckSameShape(a, b);
  la::Matrix v(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    v(r, 0) = la::SquaredDistance(a.value().row(r), b.value().row(r), a.cols());
  }
  const bool rg = a.requires_grad() || b.requires_grad();
  Node* na = a.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(a), std::move(v), rg, [na, nb](Node* out) {
    return [na, nb, out]() {
      const size_t d = na->cols();
      for (size_t r = 0; r < out->grad.rows(); ++r) {
        const float g2 = 2.0f * out->grad(r, 0);
        const float* ar = na->value().row(r);
        const float* br = nb->value().row(r);
        if (na->requires_grad) {
          float* dst = na->EnsureGrad().row(r);
          for (size_t c = 0; c < d; ++c) dst[c] += g2 * (ar[c] - br[c]);
        }
        if (nb->requires_grad) {
          float* dst = nb->EnsureGrad().row(r);
          for (size_t c = 0; c < d; ++c) dst[c] -= g2 * (ar[c] - br[c]);
        }
      }
    };
  });
}

Var PairwiseSquaredDistance(Var a, Var b) {
  DIAL_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows();
  const size_t n = b.rows();
  const size_t d = a.cols();
  la::Matrix v(m, n);
  // One batched scan of b per row of a (bit-identical to the scalar kernel).
  for (size_t i = 0; i < m; ++i) {
    la::kernels::SquaredDistanceBatch(a.value().row(i), b.value().data(), n, d,
                                      v.row(i));
  }
  const bool rg = a.requires_grad() || b.requires_grad();
  Node* na = a.node();
  Node* nb = b.node();
  return MakeOp(TapeOf(a), std::move(v), rg, [na, nb](Node* out) {
    return [na, nb, out]() {
      const size_t d = na->cols();
      const size_t m = out->grad.rows();
      const size_t n = out->grad.cols();
      for (size_t i = 0; i < m; ++i) {
        const float* ar = na->value().row(i);
        const float* grow = out->grad.row(i);
        for (size_t j = 0; j < n; ++j) {
          const float g2 = 2.0f * grow[j];
          if (g2 == 0.0f) continue;
          const float* br = nb->value().row(j);
          if (na->requires_grad) {
            float* dst = na->EnsureGrad().row(i);
            for (size_t c = 0; c < d; ++c) dst[c] += g2 * (ar[c] - br[c]);
          }
          if (nb->requires_grad) {
            float* dst = nb->EnsureGrad().row(j);
            for (size_t c = 0; c < d; ++c) dst[c] -= g2 * (ar[c] - br[c]);
          }
        }
      }
    };
  });
}

Var BceWithLogits(Var logits, const std::vector<float>& targets) {
  DIAL_CHECK_EQ(logits.cols(), 1u);
  DIAL_CHECK_EQ(logits.rows(), targets.size());
  DIAL_CHECK_GT(targets.size(), 0u);
  const size_t m = targets.size();
  double loss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const float z = logits.value()(i, 0);
    // softplus(z) - y*z computed stably.
    const float softplus = z > 0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
    loss += softplus - targets[i] * z;
  }
  la::Matrix v(1, 1);
  v(0, 0) = static_cast<float>(loss / static_cast<double>(m));
  Node* nl = logits.node();
  return MakeOp(TapeOf(logits), std::move(v), logits.requires_grad(),
                [nl, &targets](Node* out) {
                  return [nl, targets, out]() {
                    const float g = out->grad(0, 0) / static_cast<float>(targets.size());
                    la::Matrix& gx = nl->EnsureGrad();
                    for (size_t i = 0; i < targets.size(); ++i) {
                      const float z = nl->value()(i, 0);
                      const float p = 1.0f / (1.0f + std::exp(-z));
                      gx(i, 0) += g * (p - targets[i]);
                    }
                  };
                });
}

Var SoftmaxCrossEntropy(Var logits, const std::vector<int>& targets) {
  DIAL_CHECK_EQ(logits.rows(), targets.size());
  const size_t m = targets.size();
  const size_t vsize = logits.cols();
  size_t valid = 0;
  double loss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    if (targets[i] < 0) continue;
    DIAL_CHECK_LT(static_cast<size_t>(targets[i]), vsize);
    ++valid;
    const float* row = logits.value().row(i);
    float mx = row[0];
    for (size_t c = 1; c < vsize; ++c) mx = std::max(mx, row[c]);
    float acc = 0.0f;
    for (size_t c = 0; c < vsize; ++c) acc += std::exp(row[c] - mx);
    loss += (mx + std::log(acc)) - row[targets[i]];
  }
  DIAL_CHECK_GT(valid, 0u) << "SoftmaxCrossEntropy with no valid targets";
  la::Matrix v(1, 1);
  v(0, 0) = static_cast<float>(loss / static_cast<double>(valid));
  Node* nl = logits.node();
  const float inv_valid = 1.0f / static_cast<float>(valid);
  return MakeOp(TapeOf(logits), std::move(v), logits.requires_grad(),
                [nl, &targets, inv_valid](Node* out) {
                  return [nl, targets, inv_valid, out]() {
                    const float g = out->grad(0, 0) * inv_valid;
                    la::Matrix& gx = nl->EnsureGrad();
                    const size_t vsize = gx.cols();
                    for (size_t i = 0; i < targets.size(); ++i) {
                      if (targets[i] < 0) continue;
                      const float* row = nl->value().row(i);
                      float mx = row[0];
                      for (size_t c = 1; c < vsize; ++c) mx = std::max(mx, row[c]);
                      float acc = 0.0f;
                      for (size_t c = 0; c < vsize; ++c) acc += std::exp(row[c] - mx);
                      const float inv_acc = 1.0f / acc;
                      float* dst = gx.row(i);
                      for (size_t c = 0; c < vsize; ++c) {
                        float p = std::exp(row[c] - mx) * inv_acc;
                        if (static_cast<int>(c) == targets[i]) p -= 1.0f;
                        dst[c] += g * p;
                      }
                    }
                  };
                });
}

}  // namespace dial::autograd
