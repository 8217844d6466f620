#include "core/committee.h"

#include <algorithm>

#include "autograd/optim.h"
#include "autograd/ops.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace dial::core {

using autograd::Var;

util::StatusOr<BlockerObjective> ParseObjective(const std::string& text) {
  return util::ParseChoice<BlockerObjective>(
      "blocker objective", text,
      {{"contrastive", BlockerObjective::kContrastive},
       {"triplet", BlockerObjective::kTriplet},
       {"classification", BlockerObjective::kClassification}});
}

std::string ObjectiveName(BlockerObjective objective) {
  switch (objective) {
    case BlockerObjective::kContrastive:
      return "contrastive";
    case BlockerObjective::kTriplet:
      return "triplet";
    case BlockerObjective::kClassification:
      return "classification";
  }
  return "?";
}

util::StatusOr<NegativeSource> ParseNegativeSource(const std::string& text) {
  return util::ParseChoice<NegativeSource>(
      "negative source", text,
      {{"random", NegativeSource::kRandom}, {"labeled", NegativeSource::kLabeled}});
}

std::string NegativeSourceName(NegativeSource source) {
  return source == NegativeSource::kRandom ? "random" : "labeled";
}

CommitteeMember::CommitteeMember(std::string name, size_t dim, double mask_keep_prob,
                                 bool normalize_output, util::Rng& rng)
    : Module(name),
      mask_(1, dim),
      linear_(name + ".u", dim, dim, rng),
      normalize_output_(normalize_output) {
  // Skip one draw so the masks and weights of every committee seeded from
  // `rng` stay what checkpoints and goldens recorded.
  rng.Next();
  // Fixed random mask; guarantee at least one kept dimension.
  size_t kept = 0;
  for (size_t c = 0; c < dim; ++c) {
    const bool keep = rng.Bernoulli(mask_keep_prob);
    mask_(0, c) = keep ? 1.0f : 0.0f;
    kept += keep ? 1 : 0;
  }
  if (kept == 0) mask_(0, rng.UniformInt(dim)) = 1.0f;
  AddChild(&linear_);
  // Near-identity initialization: the member starts out approximately
  // preserving the (masked) frozen embedding space, so the untrained
  // committee already retrieves like the raw embeddings; contrastive
  // training then specializes each member. A random affine map would
  // destroy the lexical neighbourhood structure E(x) carries.
  auto params = linear_.Parameters();
  autograd::Parameter* weight = params[0];
  weight->value.Zero();
  for (size_t c = 0; c < dim; ++c) {
    weight->value(c, c) = 1.0f;
    for (size_t j = 0; j < dim; ++j) {
      weight->value(c, j) += static_cast<float>(rng.Normal()) * 0.02f;
    }
  }
}

Var CommitteeMember::Forward(nn::ForwardContext& ctx, Var embeddings) {
  Var mask = ctx.tape->Constant(mask_);
  Var masked = autograd::MulRowBroadcast(embeddings, mask);
  Var out = autograd::Tanh(linear_.Forward(ctx, masked));
  if (normalize_output_) out = autograd::NormalizeRows(out);
  return out;
}

la::Matrix CommitteeMember::TransformWith(autograd::InferenceContext& ctx,
                                          const la::Matrix& embeddings) const {
  namespace infer = autograd::infer;
  // Mirrors Forward's graph: mask broadcast, linear, tanh, optional row
  // normalization — tape-free through the supplied arena.
  autograd::Scratch masked(ctx, embeddings.rows(), embeddings.cols());
  const float* mask = mask_.row(0);
  for (size_t r = 0; r < embeddings.rows(); ++r) {
    const float* src = embeddings.row(r);
    float* dst = masked->row(r);
    for (size_t c = 0; c < embeddings.cols(); ++c) dst[c] = src[c] * mask[c];
  }
  autograd::Scratch out = linear_.InferForward(ctx, *masked);
  infer::TanhInPlace(*out);
  if (normalize_output_) infer::NormalizeRowsInPlace(*out);
  return *out;
}

la::Matrix CommitteeMember::Transform(const la::Matrix& embeddings) {
  return TransformWith(infer_ctx_, embeddings);
}

void CommitteeMember::SaveState(util::BinaryWriter& writer) {
  writer.WriteFloats(mask_.row(0), mask_.cols());
  Save(writer);
}

util::Status CommitteeMember::LoadState(util::BinaryReader& reader) {
  const std::vector<float> mask = reader.ReadFloatVector();
  DIAL_RETURN_IF_ERROR(reader.status());
  if (mask.size() != mask_.cols()) {
    return util::Status::Corruption("committee member mask has wrong dimension");
  }
  std::copy(mask.begin(), mask.end(), mask_.row(0));
  return Load(reader);
}

BlockerCommittee::BlockerCommittee(size_t dim, const BlockerConfig& config)
    : config_(config), dim_(dim) {
  util::Rng rng(config.seed);
  for (size_t k = 0; k < config.committee_size; ++k) {
    members_.push_back(std::make_unique<CommitteeMember>(
        util::StrFormat("committee.m%zu", k), dim, config.mask_keep_prob,
        config.normalize_output, rng));
    if (config.objective == BlockerObjective::kClassification) {
      heads_.push_back(std::make_unique<nn::SentencePairHead>(
          util::StrFormat("committee.head%zu", k), dim, rng));
    }
  }
}

void BlockerCommittee::SaveWeights(util::BinaryWriter& writer) {
  writer.WriteU64(members_.size());
  writer.WriteU64(dim_);
  for (auto& member : members_) member->SaveState(writer);
}

util::Status BlockerCommittee::LoadWeights(util::BinaryReader& reader) {
  const uint64_t count = reader.ReadU64();
  const uint64_t dim = reader.ReadU64();
  DIAL_RETURN_IF_ERROR(reader.status());
  if (count != members_.size() || dim != dim_) {
    return util::Status::Corruption("committee shape mismatch");
  }
  for (auto& member : members_) {
    DIAL_RETURN_IF_ERROR(member->LoadState(reader));
  }
  return util::Status::OK();
}

double BlockerCommittee::Train(const la::Matrix& emb_r, const la::Matrix& emb_s,
                               const std::vector<data::PairId>& dups,
                               const std::vector<data::PairId>& labeled_negatives) {
  DIAL_CHECK(!dups.empty()) << "committee training requires labeled duplicates";
  if (config_.negatives == NegativeSource::kLabeled) {
    DIAL_CHECK(!labeled_negatives.empty())
        << "NegativeSource::kLabeled requires labeled negatives";
  }
  util::Rng rng(config_.seed ^ 0x5151515151ULL);
  double total = 0.0;
  for (size_t k = 0; k < members_.size(); ++k) {
    util::Rng member_rng = rng.Fork();
    total += TrainMember(k, emb_r, emb_s, dups, labeled_negatives, member_rng);
  }
  return total / static_cast<double>(members_.size());
}

namespace {

/// Gathers rows of `source` into a dense matrix.
la::Matrix GatherRows(const la::Matrix& source, const std::vector<uint32_t>& rows) {
  la::Matrix out(rows.size(), source.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    DIAL_CHECK_LT(rows[i], source.rows());
    std::copy(source.row(rows[i]), source.row(rows[i]) + source.cols(), out.row(i));
  }
  return out;
}

}  // namespace

double BlockerCommittee::TrainMember(size_t k, const la::Matrix& emb_r,
                                     const la::Matrix& emb_s,
                                     const std::vector<data::PairId>& dups,
                                     const std::vector<data::PairId>& labeled_negatives,
                                     util::Rng& rng) {
  CommitteeMember& member = *members_[k];
  std::vector<autograd::Parameter*> params = member.Parameters();
  if (config_.objective == BlockerObjective::kClassification) {
    for (autograd::Parameter* p : heads_[k]->Parameters()) params.push_back(p);
  }
  autograd::AdamW optimizer({{params, config_.lr}});

  std::vector<size_t> order(dups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double last_epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t begin = 0; begin < order.size(); begin += config_.batch_size) {
      const size_t end = std::min(order.size(), begin + config_.batch_size);
      const size_t bp = end - begin;
      const size_t b = config_.batch_size;

      // Positive pair embeddings.
      std::vector<uint32_t> pos_r(bp), pos_s(bp);
      for (size_t i = 0; i < bp; ++i) {
        pos_r[i] = dups[order[begin + i]].r;
        pos_s[i] = dups[order[begin + i]].s;
      }

      // Negative records: random records (Sec. 3.2.2) or the r/s sides of
      // labeled hard negatives (Table 4 ablation). Each member shuffles its
      // own negative pairing (the "random shuffle per committee" of §3.2.2).
      std::vector<uint32_t> neg_r(b), neg_s(b);
      if (config_.negatives == NegativeSource::kRandom) {
        for (size_t i = 0; i < b; ++i) {
          neg_r[i] = static_cast<uint32_t>(rng.UniformInt(emb_r.rows()));
          neg_s[i] = static_cast<uint32_t>(rng.UniformInt(emb_s.rows()));
        }
      } else {
        for (size_t i = 0; i < b; ++i) {
          const auto& p1 = labeled_negatives[rng.UniformInt(labeled_negatives.size())];
          const auto& p2 = labeled_negatives[rng.UniformInt(labeled_negatives.size())];
          neg_r[i] = p1.r;
          neg_s[i] = p2.s;
        }
      }

      autograd::Tape tape;
      nn::ForwardContext ctx{&tape, &rng, /*training=*/true};
      Var p_r = member.Forward(ctx, tape.Constant(GatherRows(emb_r, pos_r)));
      Var p_s = member.Forward(ctx, tape.Constant(GatherRows(emb_s, pos_s)));
      Var n_r = member.Forward(ctx, tape.Constant(GatherRows(emb_r, neg_r)));
      Var n_s = member.Forward(ctx, tape.Constant(GatherRows(emb_s, neg_s)));

      Var loss;
      switch (config_.objective) {
        case BlockerObjective::kContrastive: {
          // Eq. 8 in log-space: loss_p = LSE over {-d(rp,sp), -d(ri,sp),
          // -d(rp,si), -d(ri,si)} minus (-d(rp,sp)); distances scaled by the
          // temperature (Sec. 3.2.3's "scaled" similarity).
          const float scale = config_.distance_scale;
          Var d_pos = autograd::RowwiseSquaredDistance(p_r, p_s);        // (bp,1)
          Var d_sr = autograd::PairwiseSquaredDistance(p_s, n_r);        // (bp,b)
          Var d_rs = autograd::PairwiseSquaredDistance(p_r, n_s);        // (bp,b)
          Var d_rr = autograd::RowwiseSquaredDistance(n_r, n_s);         // (b,1)
          Var shared = autograd::TileRows(
              autograd::Transpose(autograd::ScalarMul(d_rr, -scale)), bp);  // (bp,b)
          Var terms = autograd::ConcatCols({autograd::ScalarMul(d_pos, -scale),
                                            autograd::ScalarMul(d_sr, -scale),
                                            autograd::ScalarMul(d_rs, -scale), shared});
          Var lse = autograd::LogSumExpRows(terms);  // (bp,1)
          loss = autograd::MeanAll(
              autograd::Add(lse, autograd::ScalarMul(d_pos, scale)));
          break;
        }
        case BlockerObjective::kTriplet: {
          // Cyclic pairing of negatives with anchors; squared distances.
          std::vector<uint32_t> cyc(bp);
          for (size_t i = 0; i < bp; ++i) cyc[i] = static_cast<uint32_t>(i % b);
          Var n_s_sel = member.Forward(
              ctx, tape.Constant(GatherRows(GatherRows(emb_s, neg_s), cyc)));
          Var n_r_sel = member.Forward(
              ctx, tape.Constant(GatherRows(GatherRows(emb_r, neg_r), cyc)));
          Var d_ap = autograd::RowwiseSquaredDistance(p_r, p_s);
          Var d_an1 = autograd::RowwiseSquaredDistance(p_r, n_s_sel);
          Var d_an2 = autograd::RowwiseSquaredDistance(p_s, n_r_sel);
          Var t1 = autograd::Relu(
              autograd::AddScalar(autograd::Sub(d_ap, d_an1), config_.triplet_margin));
          Var t2 = autograd::Relu(
              autograd::AddScalar(autograd::Sub(d_ap, d_an2), config_.triplet_margin));
          loss = autograd::MeanAll(autograd::Add(t1, t2));
          break;
        }
        case BlockerObjective::kClassification: {
          Var pos_logits = heads_[k]->Forward(ctx, p_r, p_s);
          Var neg_logits = heads_[k]->Forward(ctx, n_r, n_s);
          Var logits = autograd::ConcatRows({pos_logits, neg_logits});
          std::vector<float> targets(bp + b, 0.0f);
          for (size_t i = 0; i < bp; ++i) targets[i] = 1.0f;
          loss = autograd::BceWithLogits(logits, targets);
          break;
        }
      }
      optimizer.ZeroGrad();
      tape.Backward(loss);
      optimizer.Step();
      epoch_loss += loss.scalar();
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

}  // namespace dial::core
