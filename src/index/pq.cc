#include "index/pq.h"

#include <algorithm>
#include <limits>

#include "index/kmeans.h"
#include "index/row_source.h"
#include "la/kernels.h"

namespace dial::index {

ProductQuantizer::ProductQuantizer(size_t dim, Options options)
    : dim_(dim), options_(options) {
  DIAL_CHECK_GT(options_.num_subspaces, 0u);
  DIAL_CHECK_GT(options_.bits_per_code, 0u);
  DIAL_CHECK_LE(options_.bits_per_code, 8u);
  DIAL_CHECK_EQ(dim % options_.num_subspaces, 0u)
      << "PQ requires num_subspaces (" << options_.num_subspaces
      << ") to divide dim (" << dim << ")";
  dsub_ = dim / options_.num_subspaces;
}

void ProductQuantizer::Train(const la::Matrix& data) {
  DIAL_CHECK_EQ(data.cols(), dim_);
  DIAL_CHECK_GT(data.rows(), 0u);
  const size_t m = options_.num_subspaces;
  ksub_ = std::min<size_t>(size_t{1} << options_.bits_per_code, data.rows());
  codebooks_.clear();
  codebooks_.reserve(m);
  util::Rng rng(options_.seed);
  la::Matrix slice(data.rows(), dsub_);
  // Subspaces stay sequential — they consume one shared RNG stream for
  // seeding — but each subspace's k-means fans its assignment step out over
  // the pool (bit-identical either way; see KMeans).
  for (size_t sub = 0; sub < m; ++sub) {
    util::ParallelFor(pool_, data.rows(), [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        const float* src = data.row(r) + sub * dsub_;
        std::copy(src, src + dsub_, slice.row(r));
      }
    });
    KMeansResult km = KMeans(slice, ksub_, options_.train_iterations, rng, pool_);
    codebooks_.push_back(std::move(km.centroids));
  }
  BuildSdcTables();
}

void ProductQuantizer::BuildSdcTables() {
  sdc_tables_.clear();
  sdc_tables_.reserve(codebooks_.size());
  for (const la::Matrix& book : codebooks_) {
    la::Matrix table(ksub_, ksub_);
    for (size_t a = 0; a < ksub_; ++a) {
      la::kernels::SquaredDistanceBatch(book.row(a), book.data(), ksub_, dsub_,
                                        table.row(a));
    }
    sdc_tables_.push_back(std::move(table));
  }
}

void ProductQuantizer::TrainSampled(const RowSource& source,
                                    size_t max_sample_rows,
                                    uint64_t sample_seed) {
  DIAL_CHECK_GT(source.rows(), 0u);
  Train(SampleRows(source, std::max<size_t>(1, max_sample_rows), sample_seed));
}

size_t ProductQuantizer::NearestCentroid(size_t subspace, const float* sub) const {
  // ksub_ <= 256: bits_per_code is capped at 8.
  float dist[256];
  la::kernels::SquaredDistanceBatch(sub, codebooks_[subspace].data(), ksub_,
                                    dsub_, dist);
  // Not kernels::ArgMin: this scan starts from +inf, so a NaN first
  // distance loses to the first finite one.
  size_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < ksub_; ++c) {
    if (dist[c] < best_d) {
      best_d = dist[c];
      best = c;
    }
  }
  return best;
}

void ProductQuantizer::Encode(const float* x, uint8_t* code) const {
  DIAL_CHECK(trained()) << "ProductQuantizer::Encode before Train";
  for (size_t sub = 0; sub < options_.num_subspaces; ++sub) {
    code[sub] = static_cast<uint8_t>(NearestCentroid(sub, x + sub * dsub_));
  }
}

std::vector<uint8_t> ProductQuantizer::EncodeBatch(const la::Matrix& data) const {
  DIAL_CHECK_EQ(data.cols(), dim_);
  std::vector<uint8_t> codes(data.rows() * code_size());
  util::ParallelFor(pool_, data.rows(), [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      Encode(data.row(r), codes.data() + r * code_size());
    }
  });
  return codes;
}

void ProductQuantizer::Decode(const uint8_t* code, float* out) const {
  DIAL_CHECK(trained()) << "ProductQuantizer::Decode before Train";
  for (size_t sub = 0; sub < options_.num_subspaces; ++sub) {
    const float* centroid = codebooks_[sub].row(code[sub]);
    std::copy(centroid, centroid + dsub_, out + sub * dsub_);
  }
}

la::Matrix ProductQuantizer::DecodeBatch(const std::vector<uint8_t>& codes,
                                         size_t n) const {
  DIAL_CHECK_EQ(codes.size(), n * code_size());
  la::Matrix out(n, dim_);
  for (size_t r = 0; r < n; ++r) {
    Decode(codes.data() + r * code_size(), out.row(r));
  }
  return out;
}

void ProductQuantizer::ComputeDistanceTable(const float* query,
                                            std::vector<float>& table) const {
  DIAL_CHECK(trained()) << "ProductQuantizer distance table before Train";
  const size_t m = options_.num_subspaces;
  table.resize(m * ksub_);
  for (size_t sub = 0; sub < m; ++sub) {
    la::kernels::SquaredDistanceBatch(query + sub * dsub_,
                                      codebooks_[sub].data(), ksub_, dsub_,
                                      table.data() + sub * ksub_);
  }
}

// The ADC kernel lives in la/kernels (dispatched per CPU tier): 4 independent
// subspace accumulators combined as (s0+s1)+(s2+s3) with a scalar tail, and
// the batched scan replays the per-code chain exactly, so both entry points
// stay bit-identical to each other on every tier.
float ProductQuantizer::AdcDistance(const std::vector<float>& table,
                                    const uint8_t* code) const {
  return la::kernels::AdcDistance(table.data(), ksub_, code,
                                  options_.num_subspaces);
}

void ProductQuantizer::AdcDistanceBatch(const std::vector<float>& table,
                                        const uint8_t* codes, size_t n,
                                        float* out) const {
  la::kernels::AdcDistanceScan(table.data(), ksub_, codes,
                               options_.num_subspaces, n, out);
}

float ProductQuantizer::SymmetricDistance(const uint8_t* a, const uint8_t* b) const {
  DIAL_CHECK(trained()) << "ProductQuantizer::SymmetricDistance before Train";
  float d = 0.0f;
  for (size_t sub = 0; sub < options_.num_subspaces; ++sub) {
    d += sdc_tables_[sub](a[sub], b[sub]);
  }
  return d;
}

double ProductQuantizer::QuantizationError(const la::Matrix& data,
                                           size_t max_rows) const {
  DIAL_CHECK_EQ(data.cols(), dim_);
  const size_t n = std::min(data.rows(), max_rows);
  if (n == 0) return 0.0;
  std::vector<uint8_t> code(code_size());
  std::vector<float> recon(dim_);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    Encode(data.row(r), code.data());
    Decode(code.data(), recon.data());
    total += la::SquaredDistance(data.row(r), recon.data(), dim_);
  }
  return total / static_cast<double>(n);
}

void ProductQuantizer::Reset() {
  ksub_ = 0;
  codebooks_.clear();
  sdc_tables_.clear();
}

void ProductQuantizer::SaveState(util::BinaryWriter& writer) const {
  writer.WriteU64(ksub_);
  if (!trained()) return;
  for (const la::Matrix& book : codebooks_) {
    writer.WriteFloats(book.data(), book.size());
  }
}

util::Status ProductQuantizer::LoadState(util::BinaryReader& reader) {
  const uint64_t ksub = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (ksub == 0) {
    Reset();
    return util::Status::OK();
  }
  if (ksub > (size_t{1} << options_.bits_per_code)) {
    return util::Status::Corruption("pq state: codebook size exceeds bits");
  }
  std::vector<la::Matrix> books;
  books.reserve(options_.num_subspaces);
  for (size_t sub = 0; sub < options_.num_subspaces; ++sub) {
    const std::vector<float> values = reader.ReadFloatVector();
    if (!reader.status().ok()) return reader.status();
    if (values.size() != ksub * dsub_) {
      return util::Status::Corruption("pq state: codebook shape mismatch");
    }
    la::Matrix book(ksub, dsub_);
    std::copy(values.begin(), values.end(), book.data());
    books.push_back(std::move(book));
  }
  ksub_ = ksub;
  codebooks_ = std::move(books);
  BuildSdcTables();
  return util::Status::OK();
}

const la::Matrix& ProductQuantizer::codebook(size_t subspace) const {
  DIAL_CHECK_LT(subspace, codebooks_.size());
  return codebooks_[subspace];
}

}  // namespace dial::index
