// The 10^6–10^7-record axis: does the out-of-core stack actually hold its
// memory bound, and does sharding actually buy throughput? Four parts, each
// emitting BENCH_scale.json records (CI bench-smoke artifact):
//
//   1. Streamed index build + query: per (n, backend), build via
//      VectorIndex::AddStreamed over a synthetic RowSource that computes
//      rows on the fly (no fp32 materialization anywhere), then measure
//      QPS and self-recall (queries are exact copies of database rows; a
//      query hits iff its own row id lands in the top-k). Code-only
//      backends (pq/sq/ivfpq) run before materializing ones (flat/ivf/...)
//      because VmHWM is process-monotonic; each phase also records the
//      high-water mark it started from plus fp32_mb = n*dim*4/2^20, the
//      cost a materialized build would floor at.
//   2. shard-<backend>: the same sweep through an IndexShard, plus a
//      1-shard control — bit-identity is asserted for exact backends and
//      the QPS ratio reported (the single-query parallelism axis).
//   3. Record-pack I/O: stream n synthetic records to disk
//      (WriteSyntheticPack, O(1) memory), mmap the pack back (Open checks
//      the CRC and every record's bounds, page cache warm from the write),
//      full sequential TextOf scan — write and scan rates in records/s.
//   4. Meta-blocking: pooled vs inline MetaBlock over a synthetic block
//      collection, results asserted identical, speedup reported.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "baselines/meta_blocking.h"
#include "core/ibc.h"
#include "data/record_pack.h"
#include "index/row_source.h"
#include "index/shard.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using dial::bench::BenchJsonWriter;
using dial::bench::PeakRssMb;

/// Clustered vectors computed on the fly from (seed, row, column) — a
/// RowSource with zero bytes of row storage, so the bench's own data never
/// contributes to the memory bound it is checking. SplitMix64 finalizer as
/// the hash; const-thread-safe by construction (no state).
class ClusteredRowSource final : public dial::index::RowSource {
 public:
  ClusteredRowSource(size_t n, size_t d, size_t clusters, uint64_t seed)
      : n_(n), d_(d), clusters_(clusters), seed_(seed) {}

  size_t rows() const override { return n_; }
  size_t cols() const override { return d_; }

  void ReadRows(size_t begin, size_t end, float* out) const override {
    for (size_t i = begin; i < end; ++i, out += d_) {
      const uint64_t c = Mix(seed_ ^ 0x7c15ull, i) % clusters_;
      for (size_t j = 0; j < d_; ++j) {
        out[j] = 8.0f * Unit(Mix(seed_ ^ 0xc2b2ull, c * d_ + j)) +
                 0.5f * Unit(Mix(seed_, i * d_ + j));
      }
    }
  }

 private:
  static uint64_t Mix(uint64_t a, uint64_t b) {
    uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [-1, 1) from the hash's top bits.
  static float Unit(uint64_t h) {
    return static_cast<float>(h >> 40) * (2.0f / 16777216.0f) - 1.0f;
  }

  size_t n_, d_, clusters_;
  uint64_t seed_;
};

struct BackendSpec {
  std::string name;                  // as given on the flag, e.g. "shard-flat"
  dial::core::IndexBackend backend;  // sub-backend for shard-*
  bool sharded = false;
};

/// Backends whose index stores the fp32 vectors themselves (their build
/// memory grows with n no matter how it is fed); code-only backends keep
/// just quantization codes and must stay far below fp32_mb.
bool Materializes(const BackendSpec& spec) {
  using dial::core::IndexBackend;
  switch (spec.backend) {
    case IndexBackend::kPq:
    case IndexBackend::kIvfPq:
    case IndexBackend::kSq:
      return false;
    default:
      return true;
  }
}

std::unique_ptr<dial::index::VectorIndex> Build(const BackendSpec& spec,
                                                size_t dim, size_t shards,
                                                dial::util::ThreadPool* pool) {
  if (spec.sharded) {
    const dial::core::IndexBackend backend = spec.backend;
    auto index = std::make_unique<dial::index::IndexShard>(
        dim, shards, [backend, dim] {
          return dial::core::MakeIbcIndex(backend, dim,
                                          dial::index::Metric::kL2, nullptr);
        });
    index->SetThreadPool(pool);
    return index;
  }
  return dial::core::MakeIbcIndex(spec.backend, dim, dial::index::Metric::kL2,
                                  pool);
}

/// Queries = every (n / q)-th database row, materialized via the source.
dial::la::Matrix SelfQueries(const dial::index::RowSource& source, size_t q,
                             std::vector<size_t>& ids) {
  const size_t n = source.rows();
  q = std::min(q, n);
  const size_t stride = std::max<size_t>(1, n / q);
  ids.clear();
  for (size_t i = 0; i * stride < n && ids.size() < q; ++i) {
    ids.push_back(i * stride);
  }
  dial::la::Matrix m(ids.size(), source.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    source.ReadRows(ids[i], ids[i] + 1, m.row(i));
  }
  return m;
}

double SelfRecall(const dial::index::SearchBatch& results,
                  const std::vector<size_t>& ids) {
  if (ids.empty()) return 1.0;
  size_t hits = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (const auto& nb : results[i]) {
      if (static_cast<size_t>(nb.id) == ids[i]) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(ids.size());
}

/// Median-of-3 search wall time (seconds) for a QPS reading.
double SearchSeconds(const dial::index::VectorIndex& index,
                     const dial::la::Matrix& queries, size_t k) {
  std::vector<double> secs;
  for (int rep = 0; rep < 3; ++rep) {
    dial::util::WallTimer timer;
    const auto results = index.Search(queries, k);
    secs.push_back(timer.Seconds());
  }
  std::sort(secs.begin(), secs.end());
  return secs[1];
}

bool SameResults(const dial::index::SearchBatch& a,
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

/// Synthetic redundancy-positive block collection for the meta-blocking
/// speedup row: block count scales with n but is capped so the section
/// stays a side dish next to the index sweep.
dial::baselines::BlockCollection SyntheticBlocks(size_t n, uint64_t seed) {
  dial::util::Rng rng(seed);
  dial::baselines::BlockCollection collection;
  const size_t ids = std::min<size_t>(std::max<size_t>(n, 16), 200000);
  collection.r_size = ids;
  collection.s_size = ids;
  const size_t blocks = std::min<size_t>(std::max<size_t>(n / 4, 8), 100000);
  collection.blocks.reserve(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    dial::baselines::Block block;
    block.key = "b" + std::to_string(b);
    const size_t nr = 1 + static_cast<size_t>(rng.UniformInt(6));
    const size_t ns = 1 + static_cast<size_t>(rng.UniformInt(6));
    for (size_t i = 0; i < nr; ++i) {
      block.r_ids.push_back(static_cast<uint32_t>(rng.UniformInt(ids)));
    }
    for (size_t i = 0; i < ns; ++i) {
      block.s_ids.push_back(static_cast<uint32_t>(rng.UniformInt(ids)));
    }
    for (auto* side : {&block.r_ids, &block.s_ids}) {
      std::sort(side->begin(), side->end());
      side->erase(std::unique(side->begin(), side->end()), side->end());
    }
    collection.blocks.push_back(std::move(block));
  }
  return collection;
}

bool SameEdges(const dial::baselines::MetaBlockingResult& a,
               const dial::baselines::MetaBlockingResult& b) {
  if (a.input_edges != b.input_edges || a.edges.size() != b.edges.size()) {
    return false;
  }
  for (size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].pair.r != b.edges[i].pair.r ||
        a.edges[i].pair.s != b.edges[i].pair.s ||
        a.edges[i].weight != b.edges[i].weight) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* n_list =
      flags.AddString("n", "10000,100000",
                      "comma-separated database sizes (the scale axis)");
  int64_t* dim = flags.AddInt("dim", 32, "vector dimensionality");
  int64_t* k = flags.AddInt("k", 10, "neighbours per query");
  int64_t* queries =
      flags.AddInt("queries", 100, "query count (database rows reused)");
  std::string* backends = flags.AddString(
      "backends", "pq,sq,ivfpq,shard-flat,flat",
      "comma-separated backend list; shard-<backend> routes through "
      "IndexShard with --shards partitions");
  int64_t* shards = flags.AddInt("shards", 8, "shard count for shard-*");
  int64_t* threads = flags.AddInt("threads", 4, "worker threads");
  int64_t* seed = flags.AddInt("seed", 7, "synthetic data seed");
  std::string* json_out = flags.AddString(
      "json_out", "", "also write machine-readable records here");
  flags.Parse(argc, argv);

  const size_t d = static_cast<size_t>(*dim);
  const size_t topk = static_cast<size_t>(*k);
  const size_t S = std::max<int64_t>(1, *shards);
  dial::util::ThreadPool pool(static_cast<size_t>(std::max<int64_t>(1, *threads)));
  BenchJsonWriter json;

  std::vector<size_t> sizes;
  for (const std::string& tok : dial::util::Split(*n_list, ",")) {
    if (!tok.empty()) sizes.push_back(static_cast<size_t>(std::stoull(tok)));
  }

  std::vector<BackendSpec> specs;
  for (const std::string& tok : dial::util::Split(*backends, ",")) {
    if (tok.empty()) continue;
    BackendSpec spec;
    spec.name = tok;
    spec.sharded = tok.rfind("shard-", 0) == 0;
    spec.backend = dial::util::CheckFlag(
        dial::core::ParseIndexBackend(spec.sharded ? tok.substr(6) : tok));
    specs.push_back(std::move(spec));
  }
  // VmHWM never comes back down: run the code-only backends before anything
  // that materializes fp32 rows, so their peak readings stay attributable.
  std::stable_partition(specs.begin(), specs.end(),
                        [](const BackendSpec& s) { return !Materializes(s); });

  dial::bench::PrintHeader(
      "Scale: streamed builds, sharded top-k, record-pack I/O",
      "Sec. 5.4 scalability discussion — not a paper table");

  dial::util::TablePrinter table({"n", "backend", "build s", "qps",
                                  "self-recall", "rss before MB", "peak MB",
                                  "fp32 MB"});
  for (const size_t n : sizes) {
    const ClusteredRowSource source(n, d, 64, static_cast<uint64_t>(*seed));
    std::vector<size_t> query_ids;
    const dial::la::Matrix query_matrix =
        SelfQueries(source, static_cast<size_t>(*queries), query_ids);
    const double fp32_mb =
        static_cast<double>(n) * static_cast<double>(d) * 4.0 / (1024.0 * 1024.0);
    for (const BackendSpec& spec : specs) {
      const double rss_before = PeakRssMb();
      auto index = Build(spec, d, S, &pool);
      dial::util::WallTimer timer;
      index->AddStreamed(source);
      const double build_s = timer.Seconds();
      const double search_s = SearchSeconds(*index, query_matrix, topk);
      const double qps = search_s > 0.0
                             ? static_cast<double>(query_ids.size()) / search_s
                             : 0.0;
      const auto results = index->Search(query_matrix, topk);
      const double recall = SelfRecall(results, query_ids);
      const double peak = PeakRssMb();

      BenchJsonWriter::Metrics metrics = {{"build_s", build_s},
                                          {"qps", qps},
                                          {"self_recall", recall},
                                          {"rss_before_mb", rss_before},
                                          {"peak_rss_mb", peak},
                                          {"fp32_mb", fp32_mb}};
      if (spec.sharded) {
        // 1-shard control: same partitioned code path, no fan-out. Exact
        // backends must be bit-identical across shard counts (quantizing
        // ones train per shard, so only their ordering contract holds).
        auto control = Build(spec, d, 1, &pool);
        control->AddStreamed(source);
        const double control_s = SearchSeconds(*control, query_matrix, topk);
        const bool identical =
            SameResults(results, control->Search(query_matrix, topk));
        if (Materializes(spec)) {
          DIAL_CHECK(identical)
              << spec.name << ": sharded results diverge from 1-shard control";
        }
        metrics.push_back({"qps_shard1",
                           control_s > 0.0
                               ? static_cast<double>(query_ids.size()) / control_s
                               : 0.0});
        metrics.push_back({"shard_identical", identical ? 1.0 : 0.0});
      }
      table.AddRow({std::to_string(n), spec.name,
                    dial::util::TablePrinter::Num(build_s, 2),
                    dial::util::TablePrinter::Num(qps, 0),
                    dial::bench::Pct(recall),
                    dial::util::TablePrinter::Num(rss_before, 1),
                    dial::util::TablePrinter::Num(peak, 1),
                    dial::util::TablePrinter::Num(fp32_mb, 1)});
      json.Add("scale_index",
               {{"backend", spec.name},
                {"n", std::to_string(n)},
                {"dim", std::to_string(d)},
                {"k", std::to_string(topk)},
                {"queries", std::to_string(query_ids.size())},
                {"shards", std::to_string(spec.sharded ? S : 1)},
                {"threads", std::to_string(*threads)}},
               metrics, (build_s + search_s) * 1000.0);
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // Part 3: record-pack write + mmap scan. Runs after the index sweep so
  // the file-backed pages it touches cannot pollute the index phases' VmHWM.
  dial::util::TablePrinter pack_table(
      {"n", "write s", "MB", "write rec/s", "open s", "scan s", "scan rec/s"});
  for (const size_t n : sizes) {
    const std::string path = "/tmp/dial_bench_scale_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(n) + ".pack";
    const double rss_before = PeakRssMb();
    dial::util::WallTimer timer;
    DIAL_CHECK_OK(
        dial::data::WriteSyntheticPack(path, n, static_cast<uint64_t>(*seed)));
    const double write_s = timer.Seconds();
    dial::data::RecordPackReader reader;
    timer.Restart();
    DIAL_CHECK_OK(reader.Open(path, dial::data::RecordPackReader::Mode::kMmap));
    const double open_s = timer.Seconds();
    DIAL_CHECK_EQ(reader.size(), n);
    timer.Restart();
    size_t text_bytes = 0;
    for (size_t i = 0; i < reader.size(); ++i) {
      text_bytes += reader.TextOf(i).size();
    }
    const double scan_s = timer.Seconds();
    double file_mb = 0.0;
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      std::fseek(f, 0, SEEK_END);
      file_mb = static_cast<double>(std::ftell(f)) / (1024.0 * 1024.0);
      std::fclose(f);
    }
    ::unlink(path.c_str());
    const double write_rate = write_s > 0.0 ? n / write_s : 0.0;
    const double scan_rate = scan_s > 0.0 ? n / scan_s : 0.0;
    pack_table.AddRow({std::to_string(n),
                       dial::util::TablePrinter::Num(write_s, 2),
                       dial::util::TablePrinter::Num(file_mb, 1),
                       dial::util::TablePrinter::Num(write_rate, 0),
                       dial::util::TablePrinter::Num(open_s, 4),
                       dial::util::TablePrinter::Num(scan_s, 2),
                       dial::util::TablePrinter::Num(scan_rate, 0)});
    json.Add("scale_record_pack", {{"n", std::to_string(n)}},
             {{"write_s", write_s},
              {"file_mb", file_mb},
              {"write_records_per_s", write_rate},
              {"open_s", open_s},
              {"scan_s", scan_s},
              {"scan_records_per_s", scan_rate},
              {"text_mb", static_cast<double>(text_bytes) / (1024.0 * 1024.0)},
              {"rss_before_mb", rss_before},
              {"peak_rss_mb", PeakRssMb()}},
             (write_s + open_s + scan_s) * 1000.0);
  }
  std::printf("Record-pack I/O (write = streamed synthetic records, scan = "
              "mmap TextOf sweep):\n%s\n",
              pack_table.ToString().c_str());

  // Part 4: meta-blocking candidate generation, pooled vs inline. The two
  // runs must agree bit-for-bit (fixed-grain chunked merge); report the
  // wall-clock ratio.
  dial::util::TablePrinter meta_table(
      {"blocks", "edges", "inline s", "pooled s", "speedup"});
  for (const size_t n : sizes) {
    const auto collection = SyntheticBlocks(n, static_cast<uint64_t>(*seed));
    dial::baselines::MetaBlockingConfig config;
    config.weighting = dial::baselines::EdgeWeighting::kArcs;
    dial::util::WallTimer timer;
    const auto inline_result =
        dial::baselines::MetaBlock(collection, config, nullptr);
    const double inline_s = timer.Seconds();
    timer.Restart();
    const auto pooled_result =
        dial::baselines::MetaBlock(collection, config, &pool);
    const double pooled_s = timer.Seconds();
    DIAL_CHECK(SameEdges(inline_result, pooled_result))
        << "pooled meta-blocking diverges from inline";
    const double speedup = pooled_s > 0.0 ? inline_s / pooled_s : 0.0;
    meta_table.AddRow({std::to_string(collection.blocks.size()),
                       std::to_string(inline_result.edges.size()),
                       dial::util::TablePrinter::Num(inline_s, 3),
                       dial::util::TablePrinter::Num(pooled_s, 3),
                       dial::util::TablePrinter::Num(speedup, 2)});
    json.Add("scale_meta_blocking",
             {{"blocks", std::to_string(collection.blocks.size())},
              {"threads", std::to_string(*threads)}},
             {{"input_edges", static_cast<double>(inline_result.input_edges)},
              {"edges", static_cast<double>(inline_result.edges.size())},
              {"inline_s", inline_s},
              {"pooled_s", pooled_s},
              {"speedup", speedup},
              {"identical", 1.0}},
             (inline_s + pooled_s) * 1000.0);
  }
  std::printf("Meta-blocking graph build, pooled vs inline (results "
              "asserted identical):\n%s\n",
              meta_table.ToString().c_str());

  if (!json.WriteTo(*json_out)) return 1;
  return 0;
}
