// Ablation (beyond the paper's tables): index-backend choice for the
// blocker's retrieval step — the "to index or not to index" trade-off the
// paper discusses in Sec. 5.4 (FAISS k-selection vs DITTO's blocked matmul
// vs DeepER/AutoBlock LSH). Three parts:
//
//   1. On each benchmark dataset: candidate recall + retrieval time per
//      backend over the pretrained TPLM's single-mode embeddings.
//   2. A synthetic scale sweep (clustered vectors) showing how build/search
//      cost and recall move as the database grows — where the approximate
//      structures start paying for themselves. Search is timed best of
//      --reps, inline and over the worker pool, and the pooled results must
//      be bit-identical to the inline ones. The exact backends also time a
//      1-query search, the shape of a dial_serve top-k: matmul's GEMM then
//      runs NT's single-row path. Its result must match row 0 of the batch
//      bit for bit.
//   3. The warm-start refresh sweep (--refresh_json_out).
//
// Every index is built by core::MakeIbcIndex, with the options IBC uses.
// CI's bench-smoke job archives --json_out as BENCH_index.json.

#include <set>

#include "bench_common.h"
#include "index/flat_index.h"

namespace {

dial::la::Matrix Clustered(size_t n, size_t d, size_t clusters, uint64_t seed) {
  dial::util::Rng rng(seed);
  dial::la::Matrix centers(clusters, d);
  centers.RandNormal(rng, 8.0f);
  dial::la::Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.UniformInt(clusters);
    for (size_t j = 0; j < d; ++j) {
      m(i, j) = centers(c, j) + static_cast<float>(rng.Normal()) * 0.5f;
    }
  }
  return m;
}

/// Database size for the refresh sweep, per backend: big enough that the
/// backend's build/refresh work dwarfs timer + pool-dispatch overhead, small
/// enough that the costly builders (PQ k-means, HNSW graphs) keep the bench
/// quick. The cheap-build backends get the production-shaped sizes where
/// per-round rebuild cost actually matters.
size_t RefreshSweepN(dial::core::IndexBackend backend) {
  switch (backend) {
    case dial::core::IndexBackend::kPq:
    case dial::core::IndexBackend::kIvfPq:
      return 4000;
    case dial::core::IndexBackend::kHnsw:
      return 2000;
    default:
      return 24000;
  }
}

/// Round-to-round embedding drift: small Gaussian nudge per coordinate.
dial::la::Matrix Drift(const dial::la::Matrix& data, uint64_t seed) {
  dial::util::Rng rng(seed);
  dial::la::Matrix out = data;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] += static_cast<float>(rng.Normal()) * 0.1f;
  }
  return out;
}

/// Best-of-`reps` wall milliseconds for one batch Search.
double SearchMs(const dial::index::VectorIndex& index,
                const dial::la::Matrix& queries, size_t k, size_t reps) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    dial::util::WallTimer timer;
    const dial::index::SearchBatch batch = index.Search(queries, k);
    best = std::min(best, timer.Seconds() * 1000.0);
    DIAL_CHECK_EQ(batch.size(), queries.rows());
  }
  return best;
}

bool SameBatch(const dial::index::SearchBatch& a,
               const dial::index::SearchBatch& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].distance != b[q][i].distance) {
        return false;
      }
    }
  }
  return true;
}

double RecallVsFlat(dial::index::VectorIndex& index,
                    const dial::la::Matrix& data,
                    const dial::la::Matrix& queries, size_t k) {
  dial::index::FlatIndex truth(data.cols());
  truth.Add(data);
  const auto expected = truth.Search(queries, k);
  const auto got = index.Search(queries, k);
  size_t hits = 0, total = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::set<int> ids;
    for (const auto& nb : expected[q]) ids.insert(nb.id);
    for (const auto& nb : got[q]) hits += ids.count(nb.id);
    total += expected[q].size();
  }
  return total == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  dial::bench::BenchFlags flags("walmart_amazon,dblp_acm");
  int64_t* k = flags.flags.AddInt("k", 3, "neighbours per probe");
  int64_t* threads =
      flags.flags.AddInt("threads", 2, "worker threads for the threaded columns");
  int64_t* reps = flags.flags.AddInt(
      "reps", 3, "scale-sweep search repetitions (times are best of)");
  std::string* refresh_json_out = flags.flags.AddString(
      "refresh_json_out", "",
      "write the warm-start refresh sweep records here (BENCH_refresh.json)");
  flags.Parse(argc, argv);
  const auto scale = flags.ParsedScale();
  dial::util::ThreadPool pool(static_cast<size_t>(*threads));
  dial::bench::BenchJsonWriter json;

  dial::bench::PrintHeader(
      "Ablation: blocker index backend",
      "Sec. 5.4 design discussion (FAISS vs matmul vs LSH) — not a paper table");

  // Part 1: real blocker embeddings.
  dial::util::TablePrinter table(
      {"Dataset", "backend", "cand", "recall", "retrieve ms"});
  for (const std::string& dataset : flags.DatasetList()) {
    auto& exp = dial::bench::GetExperiment(dataset, scale);
    dial::core::AlConfig al =
        dial::core::DefaultAlConfig(scale, static_cast<uint64_t>(*flags.seed));
    dial::core::Matcher matcher(exp.pretrained->config(), al.matcher, 0x1d1);
    matcher.ResetFromPretrained(*exp.pretrained);
    dial::core::RecordEncodings encodings(exp.bundle, exp.vocab,
                                          exp.pretrained->config().max_single_len);
    std::vector<const dial::text::EncodedSequence*> r_seqs, s_seqs;
    for (size_t i = 0; i < encodings.r_size(); ++i) r_seqs.push_back(&encodings.R(i));
    for (size_t i = 0; i < encodings.s_size(); ++i) s_seqs.push_back(&encodings.S(i));
    const dial::la::Matrix emb_r = matcher.EmbedSingleMode(r_seqs);
    const dial::la::Matrix emb_s = matcher.EmbedSingleMode(s_seqs);

    for (const auto backend : dial::core::AllIndexBackends()) {
      dial::core::IbcConfig ibc;
      ibc.k_neighbors = static_cast<size_t>(*k);
      ibc.backend = backend;
      dial::util::WallTimer timer;
      const auto cand = dial::core::DirectKnnCandidates(emb_r, emb_s, ibc, &pool);
      const double ms = timer.Seconds() * 1000.0;
      const double recall = dial::core::CandidateRecall(
          dial::core::CandidatePairs(cand), exp.bundle);
      table.AddRow({dataset, dial::core::IndexBackendName(backend),
                    std::to_string(cand.size()), dial::bench::Pct(recall),
                    dial::util::TablePrinter::Num(ms, 2)});
      json.Add("index_backends_dataset",
               {{"dataset", dataset},
                {"backend", dial::core::IndexBackendName(backend)},
                {"scale", *flags.scale},
                {"k", std::to_string(*k)},
                {"threads", std::to_string(*threads)}},
               {{"cand", static_cast<double>(cand.size())},
                {"cand_recall", recall},
                {"retrieve_ms", ms}},
               ms);
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // Part 2: synthetic scale sweep (recall@10 vs flat truth), with the
  // batch-search speedup from attaching a thread pool (bit-identical
  // results, checked below; see VectorIndex::SetThreadPool).
  std::printf(
      "Scale sweep (clustered vectors, dim 32, recall@10 vs exact, search ms "
      "= best of %lld, %lld-thread pool):\n",
      static_cast<long long>(*reps), static_cast<long long>(*threads));
  dial::util::TablePrinter sweep({"n", "backend", "build ms", "search ms",
                                  "search ms (pool)", "speedup", "recall@10",
                                  "1 query us"});
  const size_t dim = 32;
  for (const size_t n : {size_t{2000}, size_t{8000}}) {
    const dial::la::Matrix data = Clustered(n, dim, 32, 5);
    const dial::la::Matrix queries = Clustered(200, dim, 32, 6);
    dial::index::FlatIndex truth_index(dim);
    truth_index.Add(data);
    const auto truth = truth_index.Search(queries, 10);
    for (const auto backend : dial::core::AllIndexBackends()) {
      auto index =
          dial::core::MakeIbcIndex(backend, dim, dial::index::Metric::kL2);
      dial::util::WallTimer timer;
      index->Add(data);
      const double build_ms = timer.Seconds() * 1000.0;
      const double search_ms =
          SearchMs(*index, queries, 10, static_cast<size_t>(*reps));
      const auto got = index->Search(queries, 10);
      double one_us = 0.0;
      if (backend == dial::core::IndexBackend::kFlat ||
          backend == dial::core::IndexBackend::kMatmul) {
        dial::util::WallTimer one_timer;
        dial::la::Matrix one(1, dim);
        std::copy(queries.row(0), queries.row(0) + dim, one.data());
        one_us = SearchMs(*index, one, 10, static_cast<size_t>(*reps)) * 1000.0;
        DIAL_CHECK(SameBatch(index->Search(one, 10), {got[0]}))
            << "1-query search diverged from the batch for "
            << dial::core::IndexBackendName(backend);
        json.Add("index_backends_sweep",
                 {{"backend", dial::core::IndexBackendName(backend)},
                  {"n", std::to_string(n)},
                  {"dim", std::to_string(dim)},
                  {"queries", "1"},
                  {"reps", std::to_string(*reps)}},
                 {{"search_us_inline", one_us}}, one_timer.Seconds() * 1000.0);
      }
      index->SetThreadPool(&pool);
      const double pool_ms =
          SearchMs(*index, queries, 10, static_cast<size_t>(*reps));
      DIAL_CHECK(SameBatch(index->Search(queries, 10), got))
          << "threaded search diverged from inline for "
          << dial::core::IndexBackendName(backend);
      const double speedup = pool_ms > 0.0 ? search_ms / pool_ms : 0.0;
      size_t hits = 0, total = 0;
      for (size_t q = 0; q < queries.rows(); ++q) {
        std::set<int> expected;
        for (const auto& nb : truth[q]) expected.insert(nb.id);
        for (const auto& nb : got[q]) hits += expected.count(nb.id);
        total += truth[q].size();
      }
      const double recall =
          static_cast<double>(hits) / static_cast<double>(total);
      sweep.AddRow({std::to_string(n), dial::core::IndexBackendName(backend),
                    dial::util::TablePrinter::Num(build_ms, 1),
                    dial::util::TablePrinter::Num(search_ms, 1),
                    dial::util::TablePrinter::Num(pool_ms, 1),
                    dial::util::TablePrinter::Num(speedup, 2),
                    dial::bench::Pct(recall),
                    one_us > 0.0 ? dial::util::TablePrinter::Num(one_us, 1)
                                 : "-"});
      json.Add("index_backends_sweep",
               {{"backend", dial::core::IndexBackendName(backend)},
                {"n", std::to_string(n)},
                {"dim", std::to_string(dim)},
                {"queries", std::to_string(queries.rows())},
                {"threads", std::to_string(*threads)},
                {"reps", std::to_string(*reps)}},
               {{"build_ms", build_ms},
                {"search_ms_inline", search_ms},
                {"search_ms_threaded", pool_ms},
                {"speedup", speedup},
                {"recall_at_10", recall}},
               build_ms + search_ms + pool_ms);
    }
  }
  std::printf("%s\n", sweep.ToString().c_str());
  std::printf(
      "Shape: exact backends (flat/matmul) share 100%% recall; matmul's GEMM\n"
      "amortization wins as n grows; IVF/HNSW cut search time at mild recall\n"
      "cost; PQ/IVFPQ additionally shrink memory ~dim*4/m per vector. The\n"
      "pool column is the same search fanned over worker threads —\n"
      "bit-identical results, lower wall clock.\n");

  // Part 3: index lifecycle — per-AL-round full rebuild vs warm Refresh on
  // drifting embeddings (the round-2+ cost VectorIndex::Refresh removes).
  // Both sides run with the worker pool attached, matching how the AL loop
  // deploys them (--threads): the parallelizable work (encoding, hashing,
  // Lloyd assignment) speeds up on both paths, and what separates them is
  // the warm start plus rebuild's inherently serial training steps.
  std::printf(
      "\nWarm-start refresh sweep (dim=64, 3 drift rounds, %lld-thread pool\n"
      "on both sides; rebuild = fresh index + Add per round, refresh =\n"
      "Refresh on the live index; n sized per backend so build cost\n"
      "dominates overheads):\n",
      static_cast<long long>(*threads));
  dial::bench::BenchJsonWriter refresh_json;
  dial::util::TablePrinter refresh_table({"backend", "n", "build ms",
                                          "rebuild ms", "refresh ms", "speedup",
                                          "recall@10", "recall (fresh)",
                                          "warm rounds"});
  const size_t rdim = 64;
  const size_t drift_rounds = 3;
  for (const auto backend : dial::core::AllIndexBackends()) {
    const size_t rn = RefreshSweepN(backend);
    const dial::la::Matrix base = Clustered(rn, rdim, 32, 11);
    const dial::la::Matrix refresh_queries = Clustered(100, rdim, 32, 12);
    auto live = dial::core::MakeIbcIndex(backend, rdim,
                                         dial::index::Metric::kL2, &pool);
    dial::util::WallTimer timer;
    live->Add(base);
    const double build_ms = timer.Seconds() * 1000.0;
    double rebuild_ms = 0.0;
    double refresh_ms = 0.0;
    size_t warm_rounds = 0;
    dial::la::Matrix current = base;
    std::unique_ptr<dial::index::VectorIndex> fresh;
    for (size_t r = 1; r <= drift_rounds; ++r) {
      current = Drift(current, 100 + r);
      fresh = dial::core::MakeIbcIndex(backend, rdim, dial::index::Metric::kL2,
                                       &pool);
      timer.Restart();
      fresh->Add(current);
      rebuild_ms += timer.Seconds() * 1000.0;
      timer.Restart();
      const auto stats = live->Refresh(current);
      refresh_ms += timer.Seconds() * 1000.0;
      warm_rounds += stats.warm ? 1 : 0;
    }
    rebuild_ms /= static_cast<double>(drift_rounds);
    refresh_ms /= static_cast<double>(drift_rounds);
    const double speedup = refresh_ms > 0.0 ? rebuild_ms / refresh_ms : 0.0;
    // Recall parity on the final round's vectors: warm structure vs the
    // fresh build that refresh=off would have produced.
    const double recall = RecallVsFlat(*live, current, refresh_queries, 10);
    const double recall_fresh =
        RecallVsFlat(*fresh, current, refresh_queries, 10);
    refresh_table.AddRow({dial::core::IndexBackendName(backend),
                          std::to_string(rn),
                          dial::util::TablePrinter::Num(build_ms, 2),
                          dial::util::TablePrinter::Num(rebuild_ms, 2),
                          dial::util::TablePrinter::Num(refresh_ms, 2),
                          dial::util::TablePrinter::Num(speedup, 2),
                          dial::bench::Pct(recall), dial::bench::Pct(recall_fresh),
                          std::to_string(warm_rounds)});
    refresh_json.Add("index_refresh_sweep",
                     {{"backend", dial::core::IndexBackendName(backend)},
                      {"n", std::to_string(rn)},
                      {"dim", std::to_string(rdim)},
                      {"rounds", std::to_string(drift_rounds)}},
                     {{"build_ms", build_ms},
                      {"rebuild_ms", rebuild_ms},
                      {"refresh_ms", refresh_ms},
                      {"speedup", speedup},
                      {"recall_at_10", recall},
                      {"recall_at_10_fresh", recall_fresh},
                      {"warm_rounds", static_cast<double>(warm_rounds)}},
                     build_ms + drift_rounds * (rebuild_ms + refresh_ms));
  }
  std::printf("%s\n", refresh_table.ToString().c_str());
  std::printf(
      "Refresh reuses trained structure: IVF/IVFPQ centroids warm-start\n"
      "Lloyd, PQ keeps codebooks and only re-encodes, SQ keeps ranges (its\n"
      "~1.8x is the bandwidth ceiling: rebuild streams the input twice —\n"
      "range scan + encode — refresh once), LSH keeps hyperplanes and skips\n"
      "even the re-hash while sampled sign bits stay put. flat/matmul swap\n"
      "storage; HNSW rebuilds its graph from prior levels (continuity, not\n"
      "speed). recall vs recall(fresh) is the price of the warm structure.\n");

  if (!json.WriteTo(*flags.json_out)) return 1;
  if (!refresh_json.WriteTo(*refresh_json_out)) return 1;
  return 0;
}
