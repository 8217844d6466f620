#include "core/ibc.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "util/flags.h"
#include "util/timer.h"

#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "index/ivfpq_index.h"
#include "index/lsh_index.h"
#include "index/matmul_search.h"
#include "index/pq_index.h"
#include "index/sq_index.h"

namespace dial::core {

util::StatusOr<IndexBackend> ParseIndexBackend(const std::string& text) {
  return util::ParseChoice<IndexBackend>(
      "index backend", text,
      {{"flat", IndexBackend::kFlat},   {"ivf", IndexBackend::kIvf},
       {"lsh", IndexBackend::kLsh},     {"pq", IndexBackend::kPq},
       {"ivfpq", IndexBackend::kIvfPq}, {"sq", IndexBackend::kSq},
       {"hnsw", IndexBackend::kHnsw},   {"matmul", IndexBackend::kMatmul}});
}

std::string IndexBackendName(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kFlat: return "flat";
    case IndexBackend::kIvf: return "ivf";
    case IndexBackend::kLsh: return "lsh";
    case IndexBackend::kPq: return "pq";
    case IndexBackend::kIvfPq: return "ivfpq";
    case IndexBackend::kSq: return "sq";
    case IndexBackend::kHnsw: return "hnsw";
    case IndexBackend::kMatmul: return "matmul";
  }
  return "unknown";
}

std::vector<IndexBackend> AllIndexBackends() {
  return {IndexBackend::kFlat,  IndexBackend::kIvf,  IndexBackend::kLsh,
          IndexBackend::kPq,    IndexBackend::kIvfPq, IndexBackend::kSq,
          IndexBackend::kHnsw,  IndexBackend::kMatmul};
}

namespace {

/// PQ needs num_subspaces | dim; picks the largest divisor of dim <= want.
size_t PqSubspacesFor(size_t dim, size_t want) {
  for (size_t m = std::min(want, dim); m >= 1; --m) {
    if (dim % m == 0) return m;
  }
  return 1;
}

}  // namespace

std::unique_ptr<index::VectorIndex> MakeIbcIndex(IndexBackend backend, size_t dim,
                                                 index::Metric /*metric*/,
                                                 util::ThreadPool* pool) {
  std::unique_ptr<index::VectorIndex> idx;
  switch (backend) {
    case IndexBackend::kFlat:
      idx = std::make_unique<index::FlatIndex>(dim);
      break;
    case IndexBackend::kIvf:
      idx = std::make_unique<index::IvfIndex>(dim, index::IvfIndex::Options{});
      break;
    case IndexBackend::kLsh:
      idx = std::make_unique<index::LshIndex>(dim, index::LshIndex::Options{});
      break;
    case IndexBackend::kPq: {
      index::ProductQuantizer::Options pq;
      pq.num_subspaces = PqSubspacesFor(dim, 4);
      idx = std::make_unique<index::PqIndex>(dim, pq);
      break;
    }
    case IndexBackend::kIvfPq: {
      index::IvfPqIndex::Options opts;
      opts.pq.num_subspaces = PqSubspacesFor(dim, 4);
      idx = std::make_unique<index::IvfPqIndex>(dim, opts);
      break;
    }
    case IndexBackend::kSq:
      idx = std::make_unique<index::SqIndex>(dim);
      break;
    case IndexBackend::kHnsw:
      idx = std::make_unique<index::HnswIndex>(dim, index::HnswIndex::Options{});
      break;
    case IndexBackend::kMatmul:
      idx = std::make_unique<index::MatmulSearchIndex>(dim);
      break;
  }
  if (idx != nullptr) idx->SetThreadPool(pool);
  return idx;
}

namespace {

/// Merges per-member retrievals keeping the minimum distance per pair, then
/// sorts ascending and truncates.
std::vector<Candidate> MergeAndTruncate(
    std::unordered_map<uint64_t, Candidate>& best, size_t cand_size) {
  std::vector<Candidate> merged;
  merged.reserve(best.size());
  for (auto& [key, cand] : best) merged.push_back(cand);
  std::sort(merged.begin(), merged.end(), [](const Candidate& a, const Candidate& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.pair.Key() < b.pair.Key();
  });
  if (cand_size > 0 && merged.size() > cand_size) merged.resize(cand_size);
  return merged;
}

void AccumulateRetrieval(const index::SearchBatch& batch,
                         std::unordered_map<uint64_t, Candidate>& best) {
  for (size_t s = 0; s < batch.size(); ++s) {
    for (const index::Neighbor& nb : batch[s]) {
      const data::PairId pair{static_cast<uint32_t>(nb.id), static_cast<uint32_t>(s)};
      auto [it, inserted] = best.try_emplace(pair.Key(), Candidate{pair, nb.distance});
      if (!inserted && nb.distance < it->second.distance) {
        it->second.distance = nb.distance;
      }
    }
  }
}

/// Builds-or-refreshes one cache slot (`slot` must already exist when the
/// cache is compatible — see PrepareCache) and returns the per-slot stats.
/// With a null cache the index is built fresh and discarded by the caller.
index::RefreshStats PopulateIndex(index::VectorIndex& idx,
                                  const la::Matrix& vectors, bool use_refresh,
                                  const index::RefreshOptions& refresh) {
  if (use_refresh) return idx.Refresh(vectors, refresh);
  idx.Add(vectors);
  return {};
}

/// Ensures `cache` has one compatible index per slot; returns true when the
/// existing indexes should be Refresh()ed (false = slots were (re)created
/// and must be cold-Added). Never called with a null cache.
bool PrepareCache(IbcIndexCache& cache, IndexBackend backend, size_t dim,
                  size_t slots, util::ThreadPool* pool) {
  const bool reuse = cache.Compatible(backend, dim, slots);
  if (!reuse) {
    cache.Reset();
    cache.backend = backend;
    cache.dim = dim;
    cache.members.reserve(slots);
    for (size_t k = 0; k < slots; ++k) {
      cache.members.push_back(
          MakeIbcIndex(backend, dim, index::Metric::kL2, pool));
    }
  } else {
    for (auto& member : cache.members) member->SetThreadPool(pool);
  }
  return reuse;
}

}  // namespace

void IbcIndexCache::Reset() {
  members.clear();
  dim = 0;
}

bool IbcIndexCache::Compatible(IndexBackend backend_in, size_t dim_in,
                               size_t member_count) const {
  return !members.empty() && backend == backend_in && dim == dim_in &&
         members.size() == member_count;
}

void IbcIndexCache::SaveWarmState(util::BinaryWriter& writer) const {
  writer.WriteU64(members.size());
  if (members.empty()) return;
  writer.WriteU32(static_cast<uint32_t>(backend));
  writer.WriteU32(0);  // metric tag: squared L2, the only metric
  writer.WriteU64(dim);
  for (const auto& member : members) member->SaveWarmState(writer);
}

util::Status IbcIndexCache::LoadWarmState(util::BinaryReader& reader) {
  Reset();
  const uint64_t count = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (count == 0) return util::Status::OK();
  if (count > 4096) return util::Status::Corruption("index cache member count");
  const uint32_t backend_raw = reader.ReadU32();
  const uint32_t metric_raw = reader.ReadU32();
  const uint64_t dim_in = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (backend_raw > static_cast<uint32_t>(IndexBackend::kMatmul) ||
      metric_raw != 0) {
    return util::Status::Corruption("index cache backend/metric tag");
  }
  if (dim_in == 0 || dim_in > (1u << 24)) {
    return util::Status::Corruption("index cache dim");
  }
  backend = static_cast<IndexBackend>(backend_raw);
  dim = dim_in;
  members.reserve(count);
  for (uint64_t k = 0; k < count; ++k) {
    auto idx = MakeIbcIndex(backend, dim, index::Metric::kL2, nullptr);
    DIAL_RETURN_IF_ERROR(idx->LoadWarmState(reader));
    members.push_back(std::move(idx));
  }
  return util::Status::OK();
}

std::vector<Candidate> IndexByCommittee(BlockerCommittee& committee,
                                        const la::Matrix& emb_r,
                                        const la::Matrix& emb_s,
                                        const IbcConfig& config,
                                        util::ThreadPool* pool,
                                        IbcIndexCache* cache, IbcStats* stats) {
  DIAL_CHECK_GT(committee.size(), 0u);
  const size_t n_members = committee.size();
  bool use_refresh = false;
  if (cache != nullptr) {
    use_refresh = PrepareCache(*cache, config.backend, emb_r.cols(),
                               n_members, pool);
  }
  // Members are independent until the merge, so encode/index/probe runs one
  // member per pool task (this is what keeps IBC's cost nearly flat in N,
  // the paper's Table 10 claim). The merge applies per-member batches in
  // member order, so results are identical with or without a pool.
  std::vector<index::SearchBatch> batches(n_members);
  std::vector<index::RefreshStats> refresh_stats(n_members);
  std::vector<double> build_seconds(n_members, 0.0);
  util::ParallelFor(pool, n_members, [&](size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      const la::Matrix enc_r = committee.Encode(k, emb_r);
      const la::Matrix enc_s = committee.Encode(k, emb_s);
      // The pool is forwarded into the per-member index: when this task is
      // already on a pool worker, nested ParallelFor calls degrade to inline
      // execution (no deadlock, same results); when IBC ran inline (null
      // pool), the index still gets null and stays inline.
      std::unique_ptr<index::VectorIndex> owned;
      index::VectorIndex* idx;
      if (cache != nullptr) {
        idx = cache->members[k].get();
      } else {
        owned = MakeIbcIndex(config.backend, enc_r.cols(), index::Metric::kL2,
                             pool);
        idx = owned.get();
      }
      util::WallTimer timer;
      refresh_stats[k] =
          PopulateIndex(*idx, enc_r, use_refresh, config.refresh);
      build_seconds[k] = timer.Seconds();
      batches[k] = idx->Search(enc_s, config.k_neighbors);
    }
  });
  if (stats != nullptr) {
    *stats = IbcStats{};
    for (size_t k = 0; k < n_members; ++k) {
      stats->index_build_seconds += build_seconds[k];
      stats->warm_members += refresh_stats[k].warm ? 1 : 0;
      stats->retrained_members += refresh_stats[k].retrained ? 1 : 0;
    }
  }
  std::unordered_map<uint64_t, Candidate> best;
  for (const index::SearchBatch& batch : batches) {
    AccumulateRetrieval(batch, best);
  }
  return MergeAndTruncate(best, config.cand_size);
}

std::vector<Candidate> DirectKnnCandidates(const la::Matrix& emb_r,
                                           const la::Matrix& emb_s,
                                           const IbcConfig& config,
                                           util::ThreadPool* pool,
                                           IbcIndexCache* cache, IbcStats* stats) {
  bool use_refresh = false;
  std::unique_ptr<index::VectorIndex> owned;
  index::VectorIndex* idx;
  if (cache != nullptr) {
    use_refresh = PrepareCache(*cache, config.backend, emb_r.cols(), 1, pool);
    idx = cache->members[0].get();
  } else {
    owned = MakeIbcIndex(config.backend, emb_r.cols(), index::Metric::kL2, pool);
    idx = owned.get();
  }
  util::WallTimer timer;
  const index::RefreshStats refreshed =
      PopulateIndex(*idx, emb_r, use_refresh, config.refresh);
  if (stats != nullptr) {
    *stats = IbcStats{};
    stats->index_build_seconds = timer.Seconds();
    stats->warm_members = refreshed.warm ? 1 : 0;
    stats->retrained_members = refreshed.retrained ? 1 : 0;
  }
  std::unordered_map<uint64_t, Candidate> best;
  AccumulateRetrieval(idx->Search(emb_s, config.k_neighbors), best);
  return MergeAndTruncate(best, config.cand_size);
}

std::vector<data::PairId> CandidatePairs(const std::vector<Candidate>& cand) {
  std::vector<data::PairId> out;
  out.reserve(cand.size());
  for (const Candidate& c : cand) out.push_back(c.pair);
  return out;
}

}  // namespace dial::core
