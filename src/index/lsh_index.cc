#include "index/lsh_index.h"

#include <algorithm>

#include "index/topk.h"
#include "la/kernels.h"

namespace dial::index {

LshIndex::LshIndex(size_t dim, Metric metric, Options options)
    : VectorIndex(dim, metric), options_(options) {
  util::Rng rng(options_.seed);
  planes_ = la::Matrix(options_.num_tables * options_.num_bits, dim);
  planes_.RandNormal(rng, 1.0f);
  tables_.resize(options_.num_tables);
}

void LshIndex::HashAll(const float* x, float* dot_scratch,
                       uint64_t* codes) const {
  la::kernels::DotBatch(x, planes_.data(), planes_.rows(), dim_, dot_scratch);
  for (size_t t = 0; t < options_.num_tables; ++t) {
    uint64_t code = 0;
    const float* dots = dot_scratch + t * options_.num_bits;
    for (size_t b = 0; b < options_.num_bits; ++b) {
      if (dots[b] >= 0.0f) code |= (1ull << b);
    }
    codes[t] = code;
  }
}

std::vector<uint64_t> LshIndex::BulkCodes(const la::Matrix& vectors) const {
  // One register-blocked GEMM computes every (vector, hyperplane) dot; the
  // sign-packing then fans out over the pool. GEMM results are bit-identical
  // across thread counts (la/kernels.h), so the codes are too.
  const size_t nt = options_.num_tables;
  la::Matrix dots(vectors.rows(), planes_.rows());
  la::MatMulTransposeBAcc(vectors, planes_, dots, pool_);
  std::vector<uint64_t> codes(vectors.rows() * nt);
  util::ParallelFor(pool_, vectors.rows(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const float* row = dots.row(i);
      for (size_t t = 0; t < nt; ++t) {
        uint64_t code = 0;
        for (size_t b = 0; b < options_.num_bits; ++b) {
          if (row[t * options_.num_bits + b] >= 0.0f) code |= (1ull << b);
        }
        codes[i * nt + t] = code;
      }
    }
  });
  return codes;
}

void LshIndex::InsertCodes(const std::vector<uint64_t>& codes, size_t rows,
                           size_t base) {
  // Bucket appends run serially in row order: contents are identical to
  // inline execution regardless of how the hashing was chunked.
  const size_t nt = options_.num_tables;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t t = 0; t < nt; ++t) {
      tables_[t][codes[i * nt + t]].push_back(static_cast<int>(base + i));
    }
  }
}

void LshIndex::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return;
  const size_t base = data_.rows();
  if (data_.empty()) {
    data_ = vectors;
  } else {
    la::Matrix merged(base + vectors.rows(), dim_);
    std::copy(data_.data(), data_.data() + data_.size(), merged.data());
    std::copy(vectors.data(), vectors.data() + vectors.size(),
              merged.data() + data_.size());
    data_ = std::move(merged);
  }
  const std::vector<uint64_t> codes = BulkCodes(vectors);
  InsertCodes(codes, vectors.rows(), base);
  codes_.insert(codes_.end(), codes.begin(), codes.end());
}

double LshIndex::SampledBitFlipFraction(const la::Matrix& vectors) const {
  const size_t nt = options_.num_tables;
  const size_t sample = std::min(vectors.rows(), kDriftSampleRows);
  if (sample == 0) return 0.0;
  std::vector<float> dots(planes_.rows());
  std::vector<uint64_t> fresh(nt);
  size_t flipped = 0;
  for (size_t i = 0; i < sample; ++i) {
    HashAll(vectors.row(i), dots.data(), fresh.data());
    for (size_t t = 0; t < nt; ++t) {
      uint64_t diff = fresh[t] ^ codes_[i * nt + t];
      for (; diff != 0; diff &= diff - 1) ++flipped;
    }
  }
  return static_cast<double>(flipped) /
         static_cast<double>(sample * nt * options_.num_bits);
}

void LshIndex::CompactRows(const std::vector<int>& keep) {
  const size_t nt = options_.num_tables;
  la::Matrix packed(keep.size(), dim_);
  std::vector<uint64_t> kept_codes(keep.size() * nt);
  for (size_t i = 0; i < keep.size(); ++i) {
    const float* src = data_.row(keep[i]);
    std::copy(src, src + dim_, packed.row(i));
    std::copy(codes_.begin() + static_cast<size_t>(keep[i]) * nt,
              codes_.begin() + (static_cast<size_t>(keep[i]) + 1) * nt,
              kept_codes.begin() + i * nt);
  }
  data_ = std::move(packed);
  codes_ = std::move(kept_codes);
  for (auto& table : tables_) table.clear();
  InsertCodes(codes_, keep.size(), 0);
}

RefreshStats LshIndex::Refresh(const la::Matrix& vectors,
                               const RefreshOptions& options) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  ResetLifecycle();
  if (!options.warm_start) {
    // Cold path mirrors a fresh construction exactly (the planes come out
    // identical — they are a pure function of the seed).
    util::Rng rng(options_.seed);
    planes_.RandNormal(rng, 1.0f);
    tables_.assign(options_.num_tables, {});
    codes_.clear();
    data_ = la::Matrix();
    Add(vectors);
    return {};
  }
  RefreshStats stats;
  stats.warm = true;
  const size_t nt = options_.num_tables;
  const size_t n = vectors.rows();
  if (options.max_stale_bits > 0.0 && codes_.size() == n * nt) {
    stats.drift = SampledBitFlipFraction(vectors);
    if (stats.drift <= options.max_stale_bits) {
      // Drift regime: the codes barely moved, so the tables stay; queries
      // re-rank against the fresh vectors below. A checkpoint-restored
      // index reaches this point with codes but empty tables — rebuild them
      // (same id-order content a live index has).
      bool have_tables = false;
      for (const auto& table : tables_) have_tables = have_tables || !table.empty();
      if (!have_tables) InsertCodes(codes_, n, 0);
      data_ = vectors;
      return stats;
    }
  }
  // Real movement: full re-hash against the kept planes (one blocked GEMM),
  // tables rebuilt in id order (clear() keeps bucket arrays allocated).
  std::vector<uint64_t> fresh = BulkCodes(vectors);
  for (auto& table : tables_) table.clear();
  InsertCodes(fresh, n, 0);
  codes_ = std::move(fresh);
  data_ = vectors;
  return stats;
}

void LshIndex::SaveWarmState(util::BinaryWriter& writer) const {
  writer.WriteU64(codes_.size());
  for (const uint64_t code : codes_) writer.WriteU64(code);
}

util::Status LshIndex::LoadWarmState(util::BinaryReader& reader) {
  const uint64_t count = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (count > (1u << 24)) return util::Status::Corruption("lsh warm state too large");
  if (count % options_.num_tables != 0) {
    return util::Status::Corruption("lsh warm state shape mismatch");
  }
  std::vector<uint64_t> codes;
  codes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    codes.push_back(reader.ReadU64());
    // Bail on the first short read instead of spinning through the rest of
    // a truncated payload.
    if (!reader.status().ok()) return reader.status();
  }
  codes_ = std::move(codes);
  for (auto& table : tables_) table.clear();
  data_ = la::Matrix();
  ResetLifecycle();
  return util::Status::OK();
}

SearchBatch LshIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  util::ParallelFor(pool_, queries.rows(), [&](size_t begin, size_t end) {
    // The dedup bitmap and per-table codes are per-chunk scratch; the hash
    // tables themselves are read-only during Search.
    std::vector<char> seen(data_.rows());
    std::vector<uint64_t> codes(options_.num_tables);
    std::vector<float> hash_dots(planes_.rows());
    std::vector<float> fallback_dist;
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries.row(q);
      std::fill(seen.begin(), seen.end(), 0);
      size_t candidates = 0;
      TopK topk(k);
      const auto scan_bucket = [&](size_t table, uint64_t code) {
        auto it = tables_[table].find(code);
        if (it == tables_[table].end()) return;
        for (const int row : it->second) {
          if (seen[row]) continue;
          seen[row] = 1;
          if (!RowLive(row)) continue;
          ++candidates;
          topk.Push(IdOf(row), Distance(query, data_.row(row)));
        }
      };
      HashAll(query, hash_dots.data(), codes.data());
      for (size_t t = 0; t < options_.num_tables; ++t) {
        scan_bucket(t, codes[t]);
      }
      if (candidates < k && options_.multiprobe) {
        for (size_t t = 0; t < options_.num_tables; ++t) {
          for (size_t b = 0; b < options_.num_bits; ++b) {
            scan_bucket(t, codes[t] ^ (1ull << b));
          }
        }
      }
      if (candidates == 0 && options_.exact_fallback) {
        // Full scan through the batch kernels (bit-identical to the scalar
        // Distance loop, but vectorized).
        fallback_dist.resize(data_.rows());
        DistanceBatch(query, data_.data(), data_.rows(), fallback_dist.data());
        PushRows(topk, fallback_dist.data(), data_.rows(),
                 [](size_t row) { return row; });
      }
      results[q] = topk.Take();
    }
  });
  return results;
}

double LshIndex::MeanBucketSize() const {
  size_t buckets = 0;
  size_t total = 0;
  for (const auto& table : tables_) {
    buckets += table.size();
    for (const auto& [code, list] : table) total += list.size();
  }
  return buckets == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(buckets);
}

}  // namespace dial::index
