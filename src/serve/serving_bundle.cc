#include "serve/serving_bundle.h"

#include <algorithm>
#include <unordered_map>

#include "util/hash.h"
#include "util/logging.h"

namespace dial::serve {

namespace {

constexpr uint32_t kBundleMagic = 0x5345'5256;  // "SERV"
// v2: CRC32C trailer (whole-file, verified before parsing); payload layout
// unchanged. Only v2 loads; v1 files fail with kCorruption.
constexpr uint32_t kBundleVersion = 2;

/// Embedding batch cap: keeps the load-time arena at request-sized shapes
/// (bit-identical across any chunking — the engine's batching contract).
constexpr size_t kEmbedChunk = 128;

la::Matrix EmbedTable(const core::Matcher& matcher, autograd::InferenceContext& ctx,
                      const data::Table& table, const text::SubwordVocab& vocab,
                      size_t max_single_len) {
  la::Matrix out;
  std::vector<text::EncodedSequence> encoded;
  std::vector<const text::EncodedSequence*> ptrs;
  for (size_t begin = 0; begin < table.size(); begin += kEmbedChunk) {
    const size_t end = std::min(table.size(), begin + kEmbedChunk);
    encoded.clear();
    ptrs.clear();
    for (size_t i = begin; i < end; ++i) {
      encoded.push_back(vocab.EncodeSingle(table.TextOf(i), max_single_len));
    }
    for (const auto& seq : encoded) ptrs.push_back(&seq);
    const la::Matrix chunk = matcher.EmbedSingleModeWith(ctx, ptrs);
    if (out.rows() == 0) {
      out = la::Matrix(table.size(), chunk.cols());
    }
    for (size_t i = 0; i < chunk.rows(); ++i) {
      std::copy(chunk.row(i), chunk.row(i) + chunk.cols(), out.row(begin + i));
    }
  }
  return out;
}

void WriteTplmConfig(util::BinaryWriter& w, const tplm::TplmConfig& c) {
  w.WriteU64(c.transformer.vocab_size);
  w.WriteU64(c.transformer.max_positions);
  w.WriteU64(c.transformer.num_segments);
  w.WriteU64(c.transformer.dim);
  w.WriteU64(c.transformer.num_layers);
  w.WriteU64(c.transformer.num_heads);
  w.WriteU64(c.transformer.ffn_dim);
  w.WriteF32(c.transformer.dropout);
  w.WriteF32(c.transformer.position_init_scale);
  w.WriteU64(c.max_single_len);
  w.WriteU64(c.max_pair_len);
  w.WriteF32(c.single_mode_last_weight);
}

tplm::TplmConfig ReadTplmConfig(util::BinaryReader& r) {
  tplm::TplmConfig c;
  c.transformer.vocab_size = r.ReadU64();
  c.transformer.max_positions = r.ReadU64();
  c.transformer.num_segments = r.ReadU64();
  c.transformer.dim = r.ReadU64();
  c.transformer.num_layers = r.ReadU64();
  c.transformer.num_heads = r.ReadU64();
  c.transformer.ffn_dim = r.ReadU64();
  c.transformer.dropout = r.ReadF32();
  c.transformer.position_init_scale = r.ReadF32();
  c.max_single_len = r.ReadU64();
  c.max_pair_len = r.ReadU64();
  c.single_mode_last_weight = r.ReadF32();
  return c;
}

util::Status ValidateTplmConfig(const tplm::TplmConfig& c) {
  if (c.transformer.dim == 0 || c.transformer.dim > (1u << 16) ||
      c.transformer.num_layers == 0 || c.transformer.num_layers > 256 ||
      c.transformer.num_heads == 0 || c.transformer.num_heads > 256 ||
      c.transformer.vocab_size == 0 || c.transformer.vocab_size > (1u << 24) ||
      c.transformer.max_positions == 0 || c.transformer.max_positions > (1u << 16) ||
      c.max_pair_len == 0 || c.max_pair_len > c.transformer.max_positions ||
      c.max_single_len == 0 || c.max_single_len > c.transformer.max_positions) {
    return util::Status::Corruption("serving bundle: implausible model shape");
  }
  return util::Status::OK();
}

}  // namespace

std::unique_ptr<ServingBundle> ServingBundle::Train(const ServingOptions& options) {
  core::ExperimentConfig exp_config = core::DefaultExperimentConfig(options.scale);
  exp_config.data_seed = options.data_seed;
  core::Experiment exp = core::PrepareExperiment(options.dataset, exp_config);

  core::AlConfig al = core::DefaultAlConfig(options.scale, options.al_seed);
  al.index_backend = options.backend;
  al.k_neighbors = options.k_neighbors;

  core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), al);
  loop.Run();
  core::TrainedModels models = loop.ReleaseTrainedModels();

  auto bundle = std::unique_ptr<ServingBundle>(new ServingBundle());
  bundle->options_ = options;
  bundle->vocab_max_ = exp_config.tplm.transformer.vocab_size;
  bundle->bundle_ = std::move(exp.bundle);
  bundle->vocab_ = std::move(exp.vocab);
  bundle->tplm_config_ = exp_config.tplm;
  bundle->tplm_config_.transformer.vocab_size = bundle->vocab_.size();
  bundle->matcher_ = std::move(models.matcher);
  bundle->committee_ = std::move(models.committee);
  bundle->fingerprint_ = bundle->ComputeFingerprint();
  bundle->BuildIndexes();
  return bundle;
}

void ServingBundle::BuildIndexes() {
  autograd::InferenceContext ctx;
  const la::Matrix emb_r = EmbedTable(*matcher_, ctx, bundle_.r_table, vocab_,
                                      tplm_config_.max_single_len);
  // Fresh build: index external ids 0..n-1 are exactly the R record ids.
  const size_t n = bundle_.r_table.size();
  record_index_id_.resize(n);
  index_id_record_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    record_index_id_[i] = static_cast<int>(i);
    index_id_record_[i] = static_cast<uint32_t>(i);
  }
  text_overlay_.assign(n, std::string());
  member_indexes_.clear();
  if (committee_ != nullptr) {
    for (size_t k = 0; k < committee_->size(); ++k) {
      la::Matrix enc = committee_->member(k).TransformWith(ctx, emb_r);
      auto idx = core::MakeIbcIndex(options_.backend, enc.cols(),
                                    index::Metric::kL2, nullptr);
      idx->Add(enc);
      member_indexes_.push_back(std::move(idx));
    }
  } else {
    auto idx = core::MakeIbcIndex(options_.backend, emb_r.cols(),
                                  index::Metric::kL2, nullptr);
    idx->Add(emb_r);
    member_indexes_.push_back(std::move(idx));
  }
}

uint64_t ServingBundle::ComputeFingerprint() const {
  // Identity of the *artifact configuration*, not the weights: everything
  // that pins which model a health probe is talking to, cheap enough to
  // recompute at load without walking megabytes of parameters.
  uint64_t h = util::Fnv1a(options_.dataset);
  h = util::HashCombine(h, util::Fnv1a(data::ScaleName(options_.scale)));
  h = util::HashCombine(h, options_.data_seed);
  h = util::HashCombine(h, options_.al_seed);
  h = util::HashCombine(h, util::Fnv1a(core::IndexBackendName(options_.backend)));
  h = util::HashCombine(h, options_.k_neighbors);
  h = util::HashCombine(h, vocab_max_);
  h = util::HashCombine(h, tplm_config_.transformer.vocab_size);
  h = util::HashCombine(h, tplm_config_.transformer.dim);
  h = util::HashCombine(h, tplm_config_.transformer.num_layers);
  h = util::HashCombine(h, tplm_config_.transformer.num_heads);
  h = util::HashCombine(h, committee_ != nullptr ? committee_->size() : 0u);
  return h;
}

util::Status ServingBundle::Save(const std::string& path) {
  util::BinaryWriter writer(path, kBundleMagic, kBundleVersion);
  writer.WriteString(bundle_.name);
  writer.WriteString(data::ScaleName(options_.scale));
  writer.WriteU64(options_.data_seed);
  writer.WriteU64(options_.al_seed);
  writer.WriteU64(vocab_max_);
  writer.WriteString(core::IndexBackendName(options_.backend));
  writer.WriteU64(options_.k_neighbors);
  WriteTplmConfig(writer, tplm_config_);
  writer.WriteU32(committee_ != nullptr ? 1 : 0);
  if (committee_ != nullptr) {
    writer.WriteF64(committee_->config().mask_keep_prob);
    writer.WriteU32(committee_->config().normalize_output ? 1 : 0);
    committee_->SaveWeights(writer);
  }
  matcher_->SaveWeights(writer);
  return writer.Finish();
}

util::StatusOr<std::unique_ptr<ServingBundle>> ServingBundle::Load(
    const std::string& path) {
  util::BinaryReader reader(path, kBundleMagic, kBundleVersion);
  DIAL_RETURN_IF_ERROR(reader.status());

  auto bundle = std::unique_ptr<ServingBundle>(new ServingBundle());
  ServingOptions& opt = bundle->options_;
  opt.dataset = reader.ReadString();
  const std::string scale_name = reader.ReadString();
  opt.data_seed = reader.ReadU64();
  opt.al_seed = reader.ReadU64();
  bundle->vocab_max_ = reader.ReadU64();
  const std::string backend_name = reader.ReadString();
  opt.k_neighbors = reader.ReadU64();
  const tplm::TplmConfig config = ReadTplmConfig(reader);
  DIAL_RETURN_IF_ERROR(reader.status());
  DIAL_RETURN_IF_ERROR(ValidateTplmConfig(config));
  if (opt.k_neighbors == 0 || opt.k_neighbors > 4096) {
    return util::Status::Corruption("serving bundle: implausible k_neighbors");
  }

  bool known_scale = false;
  for (auto scale : {data::Scale::kSmoke, data::Scale::kSmall, data::Scale::kMedium}) {
    if (data::ScaleName(scale) == scale_name) {
      opt.scale = scale;
      known_scale = true;
    }
  }
  if (!known_scale) {
    return util::Status::Corruption("serving bundle: unknown scale '" + scale_name + "'");
  }
  bool known_backend = false;
  for (auto backend : core::AllIndexBackends()) {
    if (core::IndexBackendName(backend) == backend_name) {
      opt.backend = backend;
      known_backend = true;
    }
  }
  if (!known_backend) {
    return util::Status::Corruption("serving bundle: unknown backend '" +
                                    backend_name + "'");
  }

  // Regenerate the dataset + vocabulary the bundle was trained on; both are
  // pure functions of (name, scale, seed), so this reproduces training-time
  // encodings exactly. A vocab-size mismatch means the file does not belong
  // to this code version — refuse rather than serve garbage.
  bundle->bundle_ = data::MakeDataset(opt.dataset, opt.scale, opt.data_seed);
  text::SubwordVocab::Options vocab_options;
  vocab_options.max_vocab = bundle->vocab_max_;
  bundle->vocab_ = text::SubwordVocab::Train(bundle->bundle_.CorpusLines(),
                                             vocab_options);
  if (bundle->vocab_.size() != config.transformer.vocab_size) {
    return util::Status::Corruption(
        "serving bundle: vocabulary mismatch (regenerated " +
        std::to_string(bundle->vocab_.size()) + " pieces, bundle expects " +
        std::to_string(config.transformer.vocab_size) + ")");
  }
  bundle->tplm_config_ = config;

  const uint32_t has_committee = reader.ReadU32();
  DIAL_RETURN_IF_ERROR(reader.status());
  if (has_committee > 1) {
    return util::Status::Corruption("serving bundle: bad committee flag");
  }
  if (has_committee == 1) {
    core::BlockerConfig blocker;
    blocker.mask_keep_prob = reader.ReadF64();
    blocker.normalize_output = reader.ReadU32() != 0;
    DIAL_RETURN_IF_ERROR(reader.status());
    // Peek the member count from the committee payload to size construction.
    const uint64_t member_count = reader.ReadU64();
    const uint64_t dim = reader.ReadU64();
    DIAL_RETURN_IF_ERROR(reader.status());
    if (member_count == 0 || member_count > 256 || dim != config.transformer.dim) {
      return util::Status::Corruption("serving bundle: committee shape");
    }
    blocker.committee_size = member_count;
    bundle->committee_ =
        std::make_unique<core::BlockerCommittee>(dim, blocker);
    for (size_t k = 0; k < member_count; ++k) {
      DIAL_RETURN_IF_ERROR(bundle->committee_->member(k).LoadState(reader));
    }
  }

  bundle->matcher_ = std::make_unique<core::Matcher>(
      config, core::MatcherConfig{}, /*weight_seed=*/1);
  DIAL_RETURN_IF_ERROR(bundle->matcher_->LoadWeights(reader));
  if (reader.RemainingBytes() != 0) {
    return util::Status::Corruption("serving bundle: trailing bytes");
  }

  bundle->fingerprint_ = bundle->ComputeFingerprint();
  bundle->BuildIndexes();
  return bundle;
}

std::string ServingBundle::RTextLocked(uint32_t r) const {
  if (r < text_overlay_.size() && !text_overlay_[r].empty()) {
    return text_overlay_[r];
  }
  return bundle_.r_table.TextOf(r);
}

text::EncodedSequence ServingBundle::EncodePairByIdLocked(data::PairId pair) const {
  return vocab_.EncodePair(RTextLocked(pair.r), bundle_.s_table.TextOf(pair.s),
                           tplm_config_.max_pair_len);
}

text::EncodedSequence ServingBundle::EncodePairById(data::PairId pair) const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return EncodePairByIdLocked(pair);
}

util::StatusOr<std::vector<float>> ServingBundle::MatchPairs(
    autograd::InferenceContext& ctx, const std::vector<data::PairId>& pairs) const {
  std::vector<text::EncodedSequence> encoded;
  encoded.reserve(pairs.size());
  {
    // One shared acquisition for the whole batch (the overlay text must not
    // change mid-encode); the forward below runs lock-free on model state.
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    for (const data::PairId pair : pairs) {
      if (pair.r >= bundle_.r_table.size() || pair.s >= bundle_.s_table.size()) {
        return util::Status::InvalidArgument(
            "record id out of range: (" + std::to_string(pair.r) + ", " +
            std::to_string(pair.s) + ")");
      }
      encoded.push_back(EncodePairByIdLocked(pair));
    }
  }
  std::vector<const text::EncodedSequence*> ptrs;
  ptrs.reserve(encoded.size());
  for (const auto& seq : encoded) ptrs.push_back(&seq);
  return matcher_->PredictProbsWith(ctx, ptrs);
}

std::vector<float> ServingBundle::MatchTexts(
    autograd::InferenceContext& ctx,
    const std::vector<std::pair<std::string, std::string>>& texts) const {
  std::vector<text::EncodedSequence> encoded;
  encoded.reserve(texts.size());
  for (const auto& [r, s] : texts) {
    encoded.push_back(vocab_.EncodePair(r, s, tplm_config_.max_pair_len));
  }
  std::vector<const text::EncodedSequence*> ptrs;
  ptrs.reserve(encoded.size());
  for (const auto& seq : encoded) ptrs.push_back(&seq);
  return matcher_->PredictProbsWith(ctx, ptrs);
}

la::Matrix ServingBundle::EmbedTexts(autograd::InferenceContext& ctx,
                                     const std::vector<std::string>& texts) const {
  std::vector<text::EncodedSequence> encoded;
  encoded.reserve(texts.size());
  for (const auto& text : texts) {
    encoded.push_back(vocab_.EncodeSingle(text, tplm_config_.max_single_len));
  }
  std::vector<const text::EncodedSequence*> ptrs;
  ptrs.reserve(encoded.size());
  for (const auto& seq : encoded) ptrs.push_back(&seq);
  return matcher_->EmbedSingleModeWith(ctx, ptrs);
}

std::vector<TopKHit> ServingBundle::TopK(autograd::InferenceContext& ctx,
                                         const std::string& text, size_t k) const {
  const la::Matrix emb = EmbedTexts(ctx, {text});
  // Per-record minimum distance across members (the IBC merge). Keyed by
  // record id: index external ids grow with upserts, but each record has at
  // most one live entry, so the merge semantics match a fresh build.
  std::unordered_map<int, float> best;
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  for (size_t m = 0; m < member_indexes_.size(); ++m) {
    la::Matrix query;
    if (committee_ != nullptr) {
      query = committee_->member(m).TransformWith(ctx, emb);
    } else {
      query = emb;
    }
    const index::SearchBatch batch =
        member_indexes_[m]->Search(query, options_.k_neighbors);
    for (const index::Neighbor& nb : batch[0]) {
      const int record = static_cast<int>(
          index_id_record_[static_cast<size_t>(nb.id)]);
      auto [it, inserted] = best.try_emplace(record, nb.distance);
      if (!inserted && nb.distance < it->second) it->second = nb.distance;
    }
  }
  std::vector<TopKHit> hits;
  hits.reserve(best.size());
  for (const auto& [id, distance] : best) {
    hits.push_back(TopKHit{static_cast<uint32_t>(id), distance});
  }
  std::sort(hits.begin(), hits.end(), [](const TopKHit& a, const TopKHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.r_id < b.r_id;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

util::Status ServingBundle::Upsert(autograd::InferenceContext& ctx,
                                   uint32_t r_id, const std::string& text) {
  if (r_id >= bundle_.r_table.size()) {
    return util::Status::InvalidArgument("upsert: record id out of range: " +
                                         std::to_string(r_id));
  }
  if (text.empty()) {
    return util::Status::InvalidArgument("upsert: empty record text");
  }
  // Embed + member-transform outside the lock: model state is read-only, so
  // the expensive forward never blocks concurrent retrieval.
  const la::Matrix emb = EmbedTexts(ctx, {text});
  std::vector<la::Matrix> member_rows;
  member_rows.reserve(member_indexes_.size());
  for (size_t m = 0; m < member_indexes_.size(); ++m) {
    if (committee_ != nullptr) {
      member_rows.push_back(committee_->member(m).TransformWith(ctx, emb));
    } else {
      member_rows.push_back(emb);
    }
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  const int old_id = record_index_id_[r_id];
  // The fresh external id: every member has seen the identical Add sequence
  // (initial build + one row per upsert), so the next assigned id equals the
  // id-map length in all of them.
  const int fresh_id = static_cast<int>(index_id_record_.size());
  for (size_t m = 0; m < member_indexes_.size(); ++m) {
    if (old_id >= 0) member_indexes_[m]->Remove(old_id);
    member_indexes_[m]->Add(member_rows[m]);
    member_indexes_[m]->MaybeCompact(kMaxDeadFraction);
  }
  index_id_record_.push_back(r_id);
  record_index_id_[r_id] = fresh_id;
  text_overlay_[r_id] = text;
  return util::Status::OK();
}

util::Status ServingBundle::Retire(uint32_t r_id) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  if (r_id >= record_index_id_.size()) {
    return util::Status::InvalidArgument("retire: record id out of range: " +
                                         std::to_string(r_id));
  }
  const int cur = record_index_id_[r_id];
  if (cur < 0) {
    return util::Status::InvalidArgument("retire: record already retired: " +
                                         std::to_string(r_id));
  }
  for (auto& index : member_indexes_) {
    index->Remove(cur);
    index->MaybeCompact(kMaxDeadFraction);
  }
  record_index_id_[r_id] = -1;
  return util::Status::OK();
}

size_t ServingBundle::live_r_records() const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  size_t live = 0;
  for (const int id : record_index_id_) live += id >= 0 ? 1 : 0;
  return live;
}

}  // namespace dial::serve
