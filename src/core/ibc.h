#ifndef DIAL_CORE_IBC_H_
#define DIAL_CORE_IBC_H_

#include <memory>
#include <string>
#include <vector>

#include "core/committee.h"
#include "index/vector_index.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file
/// Index-By-Committee (Alg. 1 lines 9–25): every committee member indexes
/// its embeddings of R, probes with its embeddings of S, and the closest
/// pairs across all members form the candidate set `cand`.
///
/// Across AL rounds the member embeddings drift slowly, so the per-member
/// indexes need not be reconstructed from scratch every round: a caller that
/// keeps an `IbcIndexCache` alive gets warm-start `VectorIndex::Refresh`
/// (trained centroids/codebooks/planes reused) from round 2 on — the
/// dominant per-round retrieval cost in the paper's Table 9 breakdown.

namespace dial::core {

/// One retrieved pair with its best (minimum over members) distance.
struct Candidate {
  data::PairId pair;
  float distance = 0.0f;
};

enum class IndexBackend {
  kFlat,    // exact brute force (faiss::IndexFlat)
  kIvf,     // inverted file, flat residuals (faiss::IndexIVFFlat)
  kLsh,     // random hyperplanes (DeepER/AutoBlock retrieval)
  kPq,      // exhaustive ADC over PQ codes (faiss::IndexPQ)
  kIvfPq,   // IVF + residual PQ (faiss::IndexIVFPQ)
  kSq,      // 8-bit scalar quantization (faiss::IndexScalarQuantizer)
  kHnsw,    // navigable small-world graph (faiss::IndexHNSW)
  kMatmul,  // exact, blocked-GEMM scoring (DITTO / Abuzaid et al. [1])
};

/// The backend's IndexBackendName spelling; InvalidArgument naming every
/// backend otherwise.
util::StatusOr<IndexBackend> ParseIndexBackend(const std::string& text);
std::string IndexBackendName(IndexBackend backend);

/// All backends, in enum order (used by the backend-ablation bench/tests).
std::vector<IndexBackend> AllIndexBackends();

struct IbcConfig {
  /// k nearest neighbours per member per probe (paper: 3; 20 for Abt-Buy).
  size_t k_neighbors = 3;
  /// Final |cand| (closest pairs kept after the cross-member merge).
  size_t cand_size = 0;  // 0 = keep every retrieved pair
  IndexBackend backend = IndexBackend::kFlat;
  /// Warm-start knobs applied when an IbcIndexCache is passed in.
  index::RefreshOptions refresh;
};

/// Persistent per-member (or, for DirectKnnCandidates, single) indexes that
/// survive across retrieval calls. First use cold-builds; every later call
/// with a compatible configuration Refresh()es instead. A configuration
/// change (backend/dim/member count) silently drops the cache and
/// cold-builds again.
struct IbcIndexCache {
  IndexBackend backend = IndexBackend::kFlat;
  size_t dim = 0;
  std::vector<std::unique_ptr<index::VectorIndex>> members;

  bool empty() const { return members.empty(); }
  void Reset();
  /// True when the cached indexes can be Refresh()ed for this configuration.
  bool Compatible(IndexBackend backend_in, size_t dim_in,
                  size_t member_count) const;

  /// Serializes the members' warm-startable structure (backend-tagged, for
  /// AL checkpoints). The section also carries a 4-byte metric tag, always
  /// 0 (squared L2), so checkpoints keep the layout they had when indexes
  /// took a metric. Load recreates the indexes and restores their state;
  /// kCorruption on malformed payloads, a nonzero metric tag included.
  void SaveWarmState(util::BinaryWriter& writer) const;
  util::Status LoadWarmState(util::BinaryReader& reader);
};

/// What one retrieval call did to its indexes (Table 9 instrumentation).
struct IbcStats {
  /// Seconds spent building or refreshing the member indexes, summed across
  /// members (wall time per member, so with a pool the sum can exceed the
  /// elapsed wall clock).
  double index_build_seconds = 0.0;
  /// Members that reused trained structure (VectorIndex::RefreshStats::warm).
  size_t warm_members = 0;
  /// Members whose drift check forced a retrain.
  size_t retrained_members = 0;
};

/// Runs IBC: returns candidates sorted by ascending distance, truncated to
/// cand_size. `emb_r`/`emb_s` are the frozen single-mode embeddings E(x).
/// `cache` (optional) enables warm-start index reuse across calls; `stats`
/// (optional) reports build-vs-refresh cost either way.
std::vector<Candidate> IndexByCommittee(BlockerCommittee& committee,
                                        const la::Matrix& emb_r,
                                        const la::Matrix& emb_s,
                                        const IbcConfig& config,
                                        util::ThreadPool* pool = nullptr,
                                        IbcIndexCache* cache = nullptr,
                                        IbcStats* stats = nullptr);

/// Direct kNN over raw embeddings (no committee) — the retrieval used by
/// the PairedFixed / PairedAdapt / SentenceBERT baselines. `cache` reuses a
/// single index slot across calls, mirroring IndexByCommittee.
std::vector<Candidate> DirectKnnCandidates(const la::Matrix& emb_r,
                                           const la::Matrix& emb_s,
                                           const IbcConfig& config,
                                           util::ThreadPool* pool = nullptr,
                                           IbcIndexCache* cache = nullptr,
                                           IbcStats* stats = nullptr);

/// Extracts just the pairs.
std::vector<data::PairId> CandidatePairs(const std::vector<Candidate>& cand);

/// Constructs a backend index with the exact per-backend options IBC uses
/// (PQ subspace fitting etc.). Exposed for the serving layer, which builds
/// per-member indexes once at bundle-load time and probes them per request.
/// Every index ranks by squared L2; `metric` can only say so, and stays in
/// the signature because the dialbench harness passes it. It goes with the
/// next change to that benchmark's definition.
std::unique_ptr<index::VectorIndex> MakeIbcIndex(IndexBackend backend, size_t dim,
                                                 index::Metric metric,
                                                 util::ThreadPool* pool = nullptr);

}  // namespace dial::core

#endif  // DIAL_CORE_IBC_H_
