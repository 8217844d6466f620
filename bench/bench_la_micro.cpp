// Kernel-layer microbenchmarks: tiled GEMM vs the pre-refactor scalar
// kernel, pool-threaded GEMM scaling, the pooled-vs-inline crossover at the
// training tape's GEMM shapes, and the batched distance scans the index
// backends run on. CI's bench-smoke job archives the records as
// BENCH_la.json; the `speedup_vs_naive` metric is the acceptance gate for
// the kernel layer (>= 2x single-thread GEMM throughput vs the old loop).
//
// The crossover sweep times each shape two ways: inline, and forced through
// the pool (rows split over the workers whatever the size, as every tape
// GEMM was before util::kMinParallelWork). It does so for NN (the tape's
// layout) and NT (LSH hashing and the inference engine's transposed
// products), two of the three GEMMs that share the cutoff; TN's rows are
// NN's with a strided a. `pooled_over_inline` above 1 means the pool's
// hand-off costs more than it saves at that shape; the cutoff should sit
// where the lower of the two crosses 1. The `dispatch` column names the
// path the library takes for that shape under the current cutoff.
//
// The "naive" baselines below are verbatim re-implementations of the
// pre-kernel-layer src/la/matrix.cc loops (ikj GEMM with the `av == 0.0f`
// sparsity branch, single-accumulator distance scans) so the recorded ratio
// tracks exactly the refactor's win, not a strawman.

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using dial::la::Matrix;

/// Pre-refactor GEMM: ikj order, per-element zero skip, no unroll/restrict.
void NaiveGemmAcc(const Matrix& a, const Matrix& b, Matrix& out) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.row(p);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Pre-refactor distance scan: single-accumulator per row.
void NaiveDistanceScan(const float* q, const Matrix& base, float* out) {
  for (size_t i = 0; i < base.rows(); ++i) {
    const float* row = base.row(i);
    float acc = 0.0f;
    for (size_t c = 0; c < base.cols(); ++c) {
      const float d = q[c] - row[c];
      acc += d * d;
    }
    out[i] = acc;
  }
}

/// Distance-scan widths: the PQ subspace width (the AVX-512 tier's gathered
/// d < 16 path), the IBC and model width, and a wider embedding.
constexpr size_t kScanDims[] = {8, 32, 64};

Matrix Random(size_t rows, size_t cols, uint64_t seed) {
  dial::util::Rng rng(seed);
  Matrix m(rows, cols);
  m.RandNormal(rng, 1.0f);
  return m;
}

/// Best-of-`reps` wall milliseconds.
template <typename Fn>
double BestMs(size_t reps, Fn fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    dial::util::WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds() * 1000.0);
  }
  return best;
}

double Gflops(size_t m, size_t n, size_t k, double ms) {
  return ms > 0.0 ? 2.0 * static_cast<double>(m * n * k) / (ms * 1e6) : 0.0;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* scale = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* threads = flags.AddInt("threads", 2, "worker threads for the pooled column");
  int64_t* reps = flags.AddInt("reps", 5, "repetitions (best-of)");
  std::string* json_out = flags.AddString(
      "json_out", "", "also write machine-readable records (JSON array) here");
  flags.Parse(argc, argv);

  size_t gemm_dim = 256;
  size_t scan_rows = 8192;
  if (*scale == "small") {
    gemm_dim = 384;
    scan_rows = 20000;
  } else if (*scale == "medium") {
    gemm_dim = 512;
    scan_rows = 50000;
  }

  dial::bench::PrintHeader(
      "LA micro: tiled GEMM + batched distance kernels vs scalar loops",
      "runtime substrate of Table 9 — not a paper table");
  std::printf("gemm %zux%zux%zu, scan %zux{8,32,64}, threads=%zu (ms = best of %zu)\n\n",
              gemm_dim, gemm_dim, gemm_dim, scan_rows,
              static_cast<size_t>(*threads), static_cast<size_t>(*reps));

  dial::util::ThreadPool pool(static_cast<size_t>(*threads));
  dial::bench::BenchJsonWriter json;
  const size_t n_reps = static_cast<size_t>(*reps);

  // ----------------------------------------------------------------- GEMM
  {
    const size_t d = gemm_dim;
    const Matrix a = Random(d, d, 1);
    const Matrix b = Random(d, d, 2);
    Matrix out(d, d);

    dial::util::WallTimer total;
    const double naive_ms = BestMs(n_reps, [&] {
      out.Zero();
      NaiveGemmAcc(a, b, out);
    });
    const Matrix naive_out = out;
    const double blocked_ms = BestMs(n_reps, [&] {
      out.Zero();
      dial::la::MatMulAcc(a, b, out);
    });
    const Matrix blocked_out = out;
    const double pooled_ms = BestMs(n_reps, [&] {
      out.Zero();
      dial::la::MatMulAcc(a, b, out, &pool);
    });
    DIAL_CHECK(BitIdentical(out, blocked_out))
        << "pooled GEMM diverged from single-thread GEMM";
    // Sanity vs the old kernel (different accumulation order, so tolerance).
    for (size_t i = 0; i < out.size(); ++i) {
      DIAL_CHECK_LT(std::fabs(naive_out.data()[i] - blocked_out.data()[i]),
                    1e-2f * static_cast<float>(d));
    }

    const double speedup_vs_naive = blocked_ms > 0.0 ? naive_ms / blocked_ms : 0.0;
    const double speedup_pooled = pooled_ms > 0.0 ? blocked_ms / pooled_ms : 0.0;
    dial::util::TablePrinter table(
        {"gemm", "naive ms", "blocked ms", "pooled ms", "GFLOP/s", "vs naive"});
    table.AddRow({dial::util::StrFormat("%zux%zux%zu", d, d, d),
                  dial::util::TablePrinter::Num(naive_ms, 2),
                  dial::util::TablePrinter::Num(blocked_ms, 2),
                  dial::util::TablePrinter::Num(pooled_ms, 2),
                  dial::util::TablePrinter::Num(Gflops(d, d, d, blocked_ms), 2),
                  dial::util::TablePrinter::Num(speedup_vs_naive, 2)});
    std::printf("%s\n", table.ToString().c_str());

    json.Add("la_micro",
             {{"op", "gemm_nn"},
              {"scale", *scale},
              {"m", std::to_string(d)},
              {"n", std::to_string(d)},
              {"k", std::to_string(d)},
              {"threads", std::to_string(*threads)}},
             {{"naive_ms", naive_ms},
              {"blocked_ms", blocked_ms},
              {"pooled_ms", pooled_ms},
              {"gflops_blocked", Gflops(d, d, d, blocked_ms)},
              {"speedup_vs_naive", speedup_vs_naive},
              {"speedup_pooled", speedup_pooled}},
             total.Seconds() * 1000.0);
  }

  // ------------------------------------------- pooled vs inline crossover
  {
    // (m, n, k) of the training tape's GEMMs: rows 16..1024 against the
    // model's 32/64-wide projections (k = 32/64 is also the LSH hashing
    // depth), plus the MLM head's vocabulary GEMM.
    std::vector<std::array<size_t, 3>> shapes;
    for (size_t m = 16; m <= 1024; m *= 2) {
      for (const size_t n : {32, 64}) {
        for (const size_t k : {32, 64}) shapes.push_back({m, n, k});
      }
    }
    shapes.push_back({64, 2048, 32});

    dial::util::TablePrinter table({"gemm", "m x n x k", "work", "inline us",
                                    "pooled us", "pooled/inline",
                                    "dispatch"});
    for (const auto& [m, n, k] : shapes) {
      const Matrix a = Random(m, k, 5);
      const Matrix b = Random(k, n, 6);
      const Matrix bt = Random(n, k, 7);
      Matrix out(m, n, 0.0f);
      // Each layout's kernel on output rows [begin, end): inline runs it
      // once over all m rows; pooled hands row blocks to the workers with no
      // work estimate, the dispatch every pooled GEMM had before the
      // cutoff. The kernel contract makes the two bit-identical.
      const auto nn = [&](size_t begin, size_t end) {
        dial::la::kernels::GemmNN(end - begin, n, k, a.row(begin), b.data(),
                                  out.row(begin));
      };
      const auto nt = [&](size_t begin, size_t end) {
        dial::la::kernels::GemmNT(end - begin, n, k, a.row(begin), bt.data(),
                                  out.row(begin));
      };
      const std::pair<const char*, std::function<void(size_t, size_t)>>
          layouts[] = {{"nn", nn}, {"nt", nt}};
      for (const auto& [layout, rows] : layouts) {
        out.Zero();
        rows(0, m);
        const Matrix inline_out = out;
        out.Zero();
        dial::util::ParallelFor(&pool, m, rows);
        DIAL_CHECK(BitIdentical(out, inline_out))
            << layout << " pooled GEMM diverged from inline GEMM at " << m
            << "x" << n << "x" << k;

        dial::util::WallTimer total;
        const double inline_us =
            dial::bench::BestUsPerCall(n_reps, [&] { rows(0, m); });
        const double pooled_us = dial::bench::BestUsPerCall(
            n_reps, [&] { dial::util::ParallelFor(&pool, m, rows); });
        const size_t work = m * n * k;
        const double pooled_over_inline =
            inline_us > 0.0 ? pooled_us / inline_us : 0.0;
        const char* dispatch =
            work < dial::util::kMinParallelWork ? "inline" : "pooled";
        table.AddRow({layout, dial::util::StrFormat("%zux%zux%zu", m, n, k),
                      std::to_string(work),
                      dial::util::TablePrinter::Num(inline_us, 1),
                      dial::util::TablePrinter::Num(pooled_us, 1),
                      dial::util::TablePrinter::Num(pooled_over_inline, 2),
                      dispatch});
        json.Add("la_micro",
                 {{"op", "gemm_pooled_vs_inline"},
                  {"layout", layout},
                  {"scale", *scale},
                  {"m", std::to_string(m)},
                  {"n", std::to_string(n)},
                  {"k", std::to_string(k)},
                  {"threads", std::to_string(*threads)},
                  {"dispatch", dispatch}},
                 {{"inline_us", inline_us},
                  {"pooled_us", pooled_us},
                  {"pooled_over_inline", pooled_over_inline}},
                 total.Seconds() * 1000.0);
      }
    }
    std::printf("%s", table.ToString().c_str());
    std::printf(
        "dispatch = the path each GEMM with a pool takes: inline below "
        "util::kMinParallelWork = %zu multiply-adds, pooled at or above it\n\n",
        dial::util::kMinParallelWork);
  }

  // ------------------------------------------------------- batch distances
  // Dim 8 is the PQ subspace width, dim 32 the IBC and model width, dim 64
  // the wider embedding case.
  // `per_row` calls the per-row kernel once per row, which the batch scan
  // must match bit for bit; that parity gates the timing.
  dial::util::TablePrinter scan_table({"scan", "naive ms", "per-row ms",
                                       "batch ms", "expanded ms", "vs naive",
                                       "vs per-row"});
  for (const size_t scan_dim : kScanDims) {
    const Matrix base = Random(scan_rows, scan_dim, 3);
    const Matrix q = Random(1, scan_dim, 4);
    std::vector<float> out(scan_rows), naive_out(scan_rows), per_row(scan_rows);
    std::vector<float> base_sq(scan_rows);
    dial::la::kernels::NormsSquared(base.data(), scan_rows, scan_dim,
                                    base_sq.data());
    const float q_sq = dial::la::kernels::Dot(q.data(), q.data(), scan_dim);
    const auto per_row_scan = [&] {
      for (size_t i = 0; i < scan_rows; ++i) {
        per_row[i] =
            dial::la::kernels::SquaredDistance(q.data(), base.row(i), scan_dim);
      }
    };
    const auto batch_scan = [&] {
      dial::la::kernels::SquaredDistanceBatch(q.data(), base.data(), scan_rows,
                                              scan_dim, out.data());
    };
    per_row_scan();
    batch_scan();
    DIAL_CHECK(std::memcmp(out.data(), per_row.data(),
                           scan_rows * sizeof(float)) == 0)
        << "SquaredDistanceBatch differs from the per-row kernel at dim "
        << scan_dim;

    dial::util::WallTimer total;
    const double naive_ms =
        BestMs(n_reps, [&] { NaiveDistanceScan(q.data(), base, naive_out.data()); });
    const double per_row_ms = BestMs(n_reps, per_row_scan);
    const double batch_ms = BestMs(n_reps, batch_scan);
    // Expansion path = DotBatch + FromDots, the shape matmul_search runs
    // (with the dots coming from a GEMM there).
    std::vector<float> dots(scan_rows);
    const double expanded_ms = BestMs(n_reps, [&] {
      dial::la::kernels::DotBatch(q.data(), base.data(), scan_rows, scan_dim,
                                  dots.data());
      dial::la::kernels::SquaredDistanceFromDots(q_sq, dots.data(),
                                                 base_sq.data(), scan_rows,
                                                 out.data());
    });

    const double speedup_vs_naive = batch_ms > 0.0 ? naive_ms / batch_ms : 0.0;
    const double speedup_vs_per_row =
        batch_ms > 0.0 ? per_row_ms / batch_ms : 0.0;
    scan_table.AddRow({dial::util::StrFormat("%zux%zu", scan_rows, scan_dim),
                       dial::util::TablePrinter::Num(naive_ms, 3),
                       dial::util::TablePrinter::Num(per_row_ms, 3),
                       dial::util::TablePrinter::Num(batch_ms, 3),
                       dial::util::TablePrinter::Num(expanded_ms, 3),
                       dial::util::TablePrinter::Num(speedup_vs_naive, 2),
                       dial::util::TablePrinter::Num(speedup_vs_per_row, 2)});
    json.Add("la_micro",
             {{"op", "sqdist_batch"},
              {"scale", *scale},
              {"n", std::to_string(scan_rows)},
              {"dim", std::to_string(scan_dim)}},
             {{"naive_ms", naive_ms},
              {"per_row_ms", per_row_ms},
              {"batch_ms", batch_ms},
              {"expanded_ms", expanded_ms},
              {"speedup_vs_naive", speedup_vs_naive},
              {"speedup_vs_per_row", speedup_vs_per_row}},
             total.Seconds() * 1000.0);
  }
  std::printf("%s", scan_table.ToString().c_str());
  std::printf(
      "batch = SquaredDistanceBatch, checked bit-identical to per-row before "
      "timing\n\n");

  std::printf(
      "Pooled GEMM is bit-identical to single-thread GEMM (checked above);\n"
      "`speedup_vs_naive` compares against the pre-kernel-layer scalar loops.\n");
  if (!json.WriteTo(*json_out)) return 1;
  return 0;
}
