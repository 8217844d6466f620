#include "core/sbert.h"

#include <algorithm>

#include "autograd/optim.h"
#include "autograd/ops.h"

namespace dial::core {

using autograd::Var;

SentenceBertBlocker::SentenceBertBlocker(const tplm::TplmConfig& config,
                                         const SbertConfig& sbert_config,
                                         uint64_t weight_seed)
    : config_(sbert_config), rng_(sbert_config.seed) {
  model_ = std::make_unique<tplm::TplmModel>("sbert_tplm", config, weight_seed);
  util::Rng head_rng(weight_seed ^ 0x77777777ULL);
  head_ = std::make_unique<nn::SentencePairHead>("sbert_head",
                                                 config.transformer.dim, head_rng);
}

void SentenceBertBlocker::ResetFromPretrained(tplm::TplmModel& pretrained,
                                              uint64_t salt) {
  model_->CopyWeightsFrom(pretrained);
  util::Rng head_rng(config_.seed ^ salt);
  head_ = std::make_unique<nn::SentencePairHead>(
      "sbert_head", model_->config().transformer.dim, head_rng);
}

double SentenceBertBlocker::Train(const RecordEncodings& encodings,
                                  const std::vector<data::LabeledPair>& labeled) {
  DIAL_CHECK(!labeled.empty());
  std::vector<autograd::ParamGroup> groups;
  groups.push_back({head_->Parameters(), config_.lr_head});
  groups.push_back({model_->Parameters(), config_.lr_transformer});
  autograd::AdamW optimizer(std::move(groups));
  const size_t steps_per_epoch =
      (labeled.size() + config_.batch_size - 1) / config_.batch_size;
  autograd::LinearSchedule schedule(
      static_cast<int64_t>(steps_per_epoch * config_.epochs));

  std::vector<size_t> order(labeled.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  double last_epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t begin = 0; begin < order.size(); begin += config_.batch_size) {
      const size_t end = std::min(order.size(), begin + config_.batch_size);
      autograd::Tape tape;
      nn::ForwardContext ctx{&tape, &rng_, /*training=*/true};
      std::vector<Var> logits;
      std::vector<float> targets;
      for (size_t i = begin; i < end; ++i) {
        const auto& lp = labeled[order[i]];
        Var u = model_->EncodeSingle(ctx, encodings.R(lp.pair.r));
        Var v = model_->EncodeSingle(ctx, encodings.S(lp.pair.s));
        logits.push_back(head_->Forward(ctx, u, v));
        targets.push_back(lp.is_duplicate ? 1.0f : 0.0f);
      }
      Var loss = autograd::BceWithLogits(autograd::ConcatRows(logits), targets);
      optimizer.ZeroGrad();
      tape.Backward(loss);
      optimizer.Step(schedule.Multiplier(optimizer.steps_taken()));
      epoch_loss += loss.scalar();
      ++batches;
    }
    last_epoch_loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

la::Matrix SentenceBertBlocker::Embed(
    const std::vector<const text::EncodedSequence*>& seqs) {
  la::Matrix out = model_->EncodeSingleBatch(infer_ctx_, seqs);
  la::NormalizeRowsInPlace(out);
  return out;
}

la::Matrix SentenceBertBlocker::EmbedR(const RecordEncodings& encodings) {
  std::vector<const text::EncodedSequence*> seqs;
  seqs.reserve(encodings.r_size());
  for (size_t i = 0; i < encodings.r_size(); ++i) seqs.push_back(&encodings.R(i));
  return Embed(seqs);
}

la::Matrix SentenceBertBlocker::EmbedS(const RecordEncodings& encodings) {
  std::vector<const text::EncodedSequence*> seqs;
  seqs.reserve(encodings.s_size());
  for (size_t i = 0; i < encodings.s_size(); ++i) seqs.push_back(&encodings.S(i));
  return Embed(seqs);
}

}  // namespace dial::core
