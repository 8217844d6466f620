#ifndef DIAL_INDEX_VECTOR_INDEX_H_
#define DIAL_INDEX_VECTOR_INDEX_H_

#include <vector>

#include "la/matrix.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file
/// k-nearest-neighbour indexes over dense float vectors — the FAISS
/// substitute used by Index-By-Committee (DESIGN.md §2). Every index ranks
/// by squared L2 distance: `Search` returns neighbours ordered by ascending
/// `distance`. The paper's cosine alternative (Sec. 3.2.3) needs no metric
/// of its own: committee members L2-normalize their outputs
/// (BlockerConfig::normalize_output), and on unit vectors squared L2 is
/// 2 - 2·cosine, so it ranks the same.
///
/// Every backend optionally runs batch `Search` (and the cheap, deterministic
/// parts of index construction) data-parallel over an unowned
/// `util::ThreadPool` — see `VectorIndex::SetThreadPool`. Threaded execution
/// is bit-identical to inline execution: per-query work touches no shared
/// mutable state and results are merged in query order.
///
/// Index lifecycle: DIAL's AL loop re-embeds every record each round, so the
/// per-round cost used to be a full index reconstruction per committee
/// member. `Refresh` replaces the stored vectors while *reusing* the trained
/// structure (k-means centroids, PQ codebooks, SQ ranges, LSH hyperplanes,
/// HNSW level assignments) — embeddings drift slowly between rounds, so the
/// round-1 structure remains a good quantizer for round-2 vectors. Quantizing
/// backends guard the reuse with a drift check that falls back to a full
/// retrain when the quantization error on the new vectors degrades past a
/// threshold. Refresh obeys the same determinism contract as Search/Add:
/// results are bit-identical with and without an attached pool.
///
/// Incremental lifecycle (streaming pools): `Add` assigns monotonically
/// increasing ids and `Remove(id)` tombstones one id — the trained structure
/// and the stored row are left in place, Search just filters the id out of
/// its results. Tombstones accumulate until `Compact()` (or the threshold
/// form `MaybeCompact`) physically drops the dead rows; surviving ids are
/// *stable across compaction* — an id handed out by Add refers to the same
/// vector until it is removed, no matter how many compactions run in
/// between. Removed ids are never reused. Tombstones and the id remap are
/// serving-time state, NOT trained structure: SaveWarmState does not persist
/// them (a checkpoint fingerprint stays independent of removal history), and
/// Refresh resets the id space to 0..n-1 with no tombstones.

namespace dial::index {

class RowSource;
class TopK;

/// The one distance every index computes. It survives only as
/// core::MakeIbcIndex's third parameter, which the dialbench harness still
/// passes; the parameter goes with the next change to that benchmark.
enum class Metric {
  kL2,  // squared Euclidean distance
};

struct Neighbor {
  int id = -1;
  float distance = 0.0f;

  bool operator<(const Neighbor& other) const {
    if (distance != other.distance) return distance < other.distance;
    return id < other.id;
  }
};

/// Per-query neighbour lists.
using SearchBatch = std::vector<std::vector<Neighbor>>;

/// Knobs for VectorIndex::Refresh.
struct RefreshOptions {
  /// Reuse trained structure. `false` drops everything and rebuilds from
  /// scratch — the ablation/fallback path, bit-identical to constructing a
  /// fresh index and Add()ing the same vectors.
  bool warm_start = true;
  /// Lloyd-iteration cap for the warm-started coarse quantizer (IVF/IVFPQ).
  /// The full Options::train_iterations + k-means++ seeding run only on
  /// cold builds. Warm Lloyd stops as soon as assignments converge, so under
  /// mild drift this cap is rarely reached — but when the embedding space
  /// genuinely moved (e.g. DIAL's per-round re-seeded committees) the extra
  /// iterations buy back most of the recall a staler warm start would cost.
  size_t warm_iterations = 5;
  /// Quantizing backends (PQ/IVFPQ/SQ) retrain from scratch when the
  /// quantization error on the (sampled) new vectors exceeds
  /// `drift_threshold` times the error recorded when the structure was
  /// trained. <= 0 disables the check (never retrain).
  double drift_threshold = 2.0;
};

/// Rows sampled (from the head — embeddings carry no meaningful row order)
/// when a quantizing backend measures its training/refresh quantization
/// error. Small on purpose: the drift ratio is a coarse go/no-go signal, and
/// the check must stay well under the re-encode cost it guards (SQ's whole
/// refresh is one pass; a large sample would cancel the warm-start win).
constexpr size_t kDriftSampleRows = 64;

/// Knobs for VectorIndex::AddStreamed.
struct StreamOptions {
  /// Cap on the rows materialized for structure training (k-means, PQ
  /// codebooks, SQ ranges). Sources at or under the cap train on every row
  /// in order, making AddStreamed equivalent to a one-shot Add for the
  /// backends whose training is row-order independent (see AddStreamed).
  size_t train_sample = 32768;
  /// Rows materialized per encode chunk — the working-set bound.
  size_t chunk_rows = 8192;
  /// Seed for the reservoir sampler (only consulted when the source exceeds
  /// train_sample rows).
  uint64_t sample_seed = 97;
};

/// What Refresh did (diagnostics for benches/tests and the AL round metrics).
struct RefreshStats {
  /// Trained structure was reused. False when the index was untrained/empty,
  /// warm_start was off, or a drift fallback retrained.
  bool warm = false;
  /// The drift check tripped and forced a full retrain.
  bool retrained = false;
  /// err_new / err_trained when a drift check ran (0 when it did not).
  double drift = 0.0;
};

class VectorIndex {
 public:
  explicit VectorIndex(size_t dim) : dim_(dim) {}
  virtual ~VectorIndex() = default;

  VectorIndex(const VectorIndex&) = delete;
  VectorIndex& operator=(const VectorIndex&) = delete;

  size_t dim() const { return dim_; }

  /// Appends `vectors` (n, dim); row i of the first Add gets id 0, etc.
  virtual void Add(const la::Matrix& vectors) = 0;

  /// Number of indexed vectors.
  virtual size_t size() const = 0;

  /// Builds from a row stream in bounded memory: trains structure on a
  /// capped sample (quantizing backends override to do so), then encodes in
  /// `options.chunk_rows`-sized chunks — the only full-width buffer ever
  /// held is one chunk. Ids follow stream order, same as Add. The default
  /// implementation is just the chunked Add loop (correct for every
  /// backend; backends whose first Add trains on the incoming batch
  /// override so training sees the sample, not merely the first chunk).
  ///
  /// Equivalence to `Add(all rows at once)`: bit-identical for flat/matmul
  /// (no trained structure) and, when the source fits `train_sample`, for
  /// PQ/SQ (training reads the full sample in row order and encoding is
  /// per-row). IVF/IVFPQ are *not* bit-identical even on small sources:
  /// k-means assignment after an exhausted iteration cap is not the argmin
  /// of the final centroids, so chunked re-assignment can differ — results
  /// remain valid per the Search contract, just not identical.
  virtual void AddStreamed(const RowSource& source,
                           const StreamOptions& options);
  void AddStreamed(const RowSource& source) {
    AddStreamed(source, StreamOptions{});
  }

  /// k nearest neighbours for each row of `queries` (m, dim). Returns fewer
  /// than k entries per query only when the index holds fewer than k live
  /// vectors (or, for approximate indexes, when probing finds fewer
  /// candidates). Tombstoned ids never appear in results.
  virtual SearchBatch Search(const la::Matrix& queries, size_t k) const = 0;

  /// Tombstones `id` (assigned by Add: row i of the first Add is id 0, ids
  /// grow monotonically and are never reused). The stored row and trained
  /// structure stay put; Search filters the id from every result from now
  /// on. Removing an already-removed id is a no-op. `id` must have been
  /// assigned (checked).
  virtual void Remove(int id);

  /// True when `id` has been tombstoned (compacted-away ids stay removed).
  /// False for live ids and ids never assigned.
  virtual bool IsRemoved(int id) const;

  /// Tombstoned rows still physically stored (reset to 0 by Compact).
  virtual size_t dead_count() const { return dead_rows_; }

  /// Live (searchable) vectors: size() - dead_count().
  size_t live_size() const { return size() - dead_count(); }

  /// Physically drops every tombstoned row. Surviving ids are unchanged;
  /// internal storage is re-packed (per backend: rows gathered, inverted
  /// lists filtered, the HNSW graph rebuilt from the surviving nodes' kept
  /// level assignments). Deterministic, and bit-identical with and without
  /// an attached pool. No-op when nothing is dead.
  virtual void Compact();

  /// Compacts when the stored-dead fraction exceeds `max_dead_fraction`
  /// (the streaming maintenance policy). Returns true when it compacted.
  bool MaybeCompact(double max_dead_fraction = 0.25);

  /// Quantizing backends (PQ/SQ/IVFPQ) cannot retrain their codebooks on
  /// post-training inserts (they hold codes, not raw vectors). Instead each
  /// post-training Add samples its batch's quantization error; this reports
  /// the worst sampled-error ratio against the training-time baseline (0
  /// until a post-training batch arrives, 1.0-ish means "as good as training
  /// day"). Streaming drivers watch it and schedule a full Refresh when it
  /// crosses their drift budget. Non-quantizing backends return 0.
  virtual double insert_drift() const { return 0.0; }

  /// Replaces the index contents with `vectors` (n, dim), reusing trained
  /// structure where the backend supports it (see the per-backend headers for
  /// what each one keeps). Row i gets id i. Equivalent to a fresh build when
  /// the index holds no trained structure or options.warm_start is false.
  /// Refreshing with a 0-row matrix is a no-op: the index (contents and
  /// structure) is left unchanged.
  virtual RefreshStats Refresh(const la::Matrix& vectors,
                               const RefreshOptions& options) = 0;
  RefreshStats Refresh(const la::Matrix& vectors) {
    return Refresh(vectors, RefreshOptions{});
  }

  /// Serializes the warm-startable trained structure — NOT the stored
  /// vectors/codes, which the next Refresh replaces anyway. This is what an
  /// AL checkpoint persists so that a resumed run's Refresh starts from
  /// exactly the structure the uninterrupted run would have had. Default:
  /// no state (flat/matmul).
  virtual void SaveWarmState(util::BinaryWriter& writer) const {
    (void)writer;
  }
  /// Restores state written by SaveWarmState into a compatibly-configured
  /// index. Non-OK on malformed/mismatched payloads.
  virtual util::Status LoadWarmState(util::BinaryReader& reader) {
    (void)reader;
    return util::Status::OK();
  }

  /// Attaches an unowned worker pool (nullptr detaches — the default).
  /// Batch Search fans query rows out over the pool; Add parallelizes the
  /// deterministic build steps (k-means assignment, PQ/SQ encoding). The
  /// caller keeps `pool` alive for as long as it is attached. Results are
  /// guaranteed bit-identical whether a pool is attached or not.
  void SetThreadPool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* thread_pool() const { return pool_; }

 protected:
  /// Chunked-Add workhorse shared by AddStreamed and its overrides: streams
  /// `source` through Add in chunk_rows-sized blocks.
  void AddStreamedChunks(const RowSource& source, size_t chunk_rows);

  /// External id of internal row `row`. Identity until the first Compact;
  /// afterwards survivors keep their pre-compaction ids via an explicit
  /// remap, and rows appended later extend the id space from
  /// dropped-so-far + row (so Add needs no lifecycle hook).
  int IdOf(size_t row) const {
    if (row < ids_.size()) return ids_[row];
    return static_cast<int>(dropped_ + row);
  }

  /// True when internal row `row` is not tombstoned. The dead_rows_ == 0
  /// shortcut keeps removal-free workloads on the exact pre-lifecycle code
  /// path (bit-identical results, no per-row bitmap lookups).
  bool RowLive(size_t row) const {
    if (dead_rows_ == 0) return true;
    const size_t id = static_cast<size_t>(IdOf(row));
    return id >= dead_.size() || !dead_[id];
  }

  /// Restarts the id space at 0..n-1 with no tombstones — every backend
  /// Refresh calls this first (Refresh replaces the contents wholesale, and
  /// tombstones/remaps are content state, not trained structure).
  void ResetLifecycle() {
    ids_.clear();
    dead_.clear();
    dropped_ = 0;
    dead_rows_ = 0;
  }

  /// Backend compaction primitive: physically keep exactly the internal
  /// rows listed in `keep` (ascending), renumbering internal storage to
  /// 0..keep.size()-1 in that order. The base Compact() maintains the
  /// id remap around this call.
  virtual void CompactRows(const std::vector<int>& keep);

  /// Offers internal rows row_of(0), ..., row_of(n - 1), at distances
  /// dist[0..n), to `heap`: the top-k loop of the scan backends (flat and
  /// matmul tiles, PQ, IVF-PQ lists, the LSH exact fallback). Once the heap
  /// is full, its worst kept distance lives in a local, and a row TopK::Push
  /// would reject (the same >= comparison, so a NaN still reaches Push) is
  /// skipped before its tombstone lookup. Defined in index/topk.h.
  template <typename RowOf>
  void PushRows(TopK& heap, const float* dist, size_t n, RowOf row_of) const;

  /// Squared L2 distance between two dim-float vectors.
  float Distance(const float* a, const float* b) const;

  /// Fills out[i] = Distance(query, rows + i * dim) for the `count`
  /// row-major rows at `rows`, via the la/kernels batch scan —
  /// bit-identical to calling Distance per row, but vectorized. The
  /// exact-scan workhorse behind FlatIndex's ScoreBlock (one call per query
  /// and row block) and the LSH exact fallback (one call over every stored
  /// row).
  void DistanceBatch(const float* query, const float* rows, size_t count,
                     float* out) const;

  size_t dim_;
  util::ThreadPool* pool_ = nullptr;  // unowned; null = inline execution

 private:
  /// Internal row -> external id for rows below ids_.size() (non-empty only
  /// after a Compact actually dropped something); ascending, so (distance,
  /// external id) order equals (distance, row) order and TopK tie-breaks
  /// are unchanged by compaction.
  std::vector<int> ids_;
  /// Tombstone bitmap keyed by external id (grown lazily by Remove).
  std::vector<uint8_t> dead_;
  /// Ids dropped by past Compacts: total ids ever assigned = dropped_ + size().
  size_t dropped_ = 0;
  /// Stored rows currently tombstoned (the RowLive fast-path gate).
  size_t dead_rows_ = 0;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_VECTOR_INDEX_H_
