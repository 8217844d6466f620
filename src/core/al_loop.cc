#include "core/al_loop.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "util/flags.h"
#include "util/timer.h"

namespace dial::core {

util::StatusOr<BlockingStrategy> ParseBlocking(const std::string& text) {
  return util::ParseChoice<BlockingStrategy>(
      "blocking strategy", text,
      {{"dial", BlockingStrategy::kDial},
       {"paired_fixed", BlockingStrategy::kPairedFixed},
       {"paired_adapt", BlockingStrategy::kPairedAdapt},
       {"sentence_bert", BlockingStrategy::kSentenceBert},
       {"rules", BlockingStrategy::kFixedExternal},
       {"fixed_external", BlockingStrategy::kFixedExternal}});
}

std::string BlockingName(BlockingStrategy strategy) {
  switch (strategy) {
    case BlockingStrategy::kDial:
      return "DIAL";
    case BlockingStrategy::kPairedFixed:
      return "PairedFixed";
    case BlockingStrategy::kPairedAdapt:
      return "PairedAdapt";
    case BlockingStrategy::kSentenceBert:
      return "SentenceBERT";
    case BlockingStrategy::kFixedExternal:
      return "Rules";
  }
  return "?";
}

ActiveLearningLoop::ActiveLearningLoop(const data::DatasetBundle* bundle,
                                       const text::SubwordVocab* vocab,
                                       tplm::TplmModel* pretrained, AlConfig config)
    : bundle_(bundle), vocab_(vocab), pretrained_(pretrained), config_(config) {
  DIAL_CHECK(bundle_ != nullptr);
  DIAL_CHECK(vocab_ != nullptr);
  DIAL_CHECK(pretrained_ != nullptr);
  if (config_.num_threads > 0) {
    pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
  }
}

ActiveLearningLoop::~ActiveLearningLoop() = default;

void ActiveLearningLoop::SetExternalCandidates(std::vector<Candidate> candidates) {
  external_candidates_ = std::move(candidates);
}

void ActiveLearningLoop::SetCheckpointPath(std::string path) {
  checkpoint_path_ = std::move(path);
}

util::Status ActiveLearningLoop::RestoreCheckpoint(const std::string& path) {
  auto checkpoint = std::make_unique<AlCheckpoint>();
  IbcIndexCache restored_cache;
  DIAL_RETURN_IF_ERROR(LoadAlCheckpoint(path, checkpoint.get(), &restored_cache));
  if (checkpoint->dataset_name != bundle_->name) {
    return util::Status::InvalidArgument(
        "checkpoint is for dataset '" + checkpoint->dataset_name +
        "', loop is on '" + bundle_->name + "'");
  }
  if (checkpoint->config_fingerprint !=
      AlConfigFingerprint(config_, bundle_->name)) {
    return util::Status::InvalidArgument(
        "checkpoint was written under a different AL configuration");
  }
  if (checkpoint->next_round >= config_.rounds) {
    return util::Status::InvalidArgument("checkpoint has no rounds left to run");
  }
  restore_ = std::move(checkpoint);
  // The saved warm structure makes the resumed round's Refresh start from
  // exactly what the uninterrupted run had. (Empty for refresh=off runs.)
  index_cache_ = std::move(restored_cache);
  return util::Status::OK();
}

la::Matrix ActiveLearningLoop::EmbedAllR(Matcher& matcher) {
  std::vector<const text::EncodedSequence*> seqs;
  seqs.reserve(encodings_->r_size());
  for (size_t i = 0; i < encodings_->r_size(); ++i) seqs.push_back(&encodings_->R(i));
  return matcher.EmbedSingleMode(seqs);
}

la::Matrix ActiveLearningLoop::EmbedAllS(Matcher& matcher) {
  std::vector<const text::EncodedSequence*> seqs;
  seqs.reserve(encodings_->s_size());
  for (size_t i = 0; i < encodings_->s_size(); ++i) seqs.push_back(&encodings_->S(i));
  return matcher.EmbedSingleMode(seqs);
}

std::vector<Candidate> ActiveLearningLoop::BuildCandidates(size_t round,
                                                           Matcher& matcher,
                                                           RoundMetrics& metrics) {
  IbcConfig ibc;
  ibc.k_neighbors = config_.k_neighbors;
  ibc.cand_size = config_.cand_size_override > 0
                      ? config_.cand_size_override
                      : static_cast<size_t>(config_.cand_multiplier *
                                            static_cast<double>(bundle_->s_table.size()));
  ibc.backend = config_.index_backend;
  ibc.refresh = config_.refresh;
  // Rounds >= 2 warm-refresh the previous round's indexes through the cache;
  // refresh=off reverts to the paper's reconstruct-every-round protocol.
  IbcIndexCache* cache = config_.index_refresh ? &index_cache_ : nullptr;
  IbcStats ibc_stats;

  util::WallTimer timer;
  switch (config_.blocking) {
    case BlockingStrategy::kDial: {
      timer.Restart();
      const la::Matrix emb_r = EmbedAllR(matcher);
      const la::Matrix emb_s = EmbedAllS(matcher);
      metrics.t_embed = timer.Seconds();
      BlockerConfig blocker = config_.blocker;
      blocker.seed = config_.blocker.seed ^ (0x1000 + round);
      committee_ = std::make_unique<BlockerCommittee>(emb_r.cols(), blocker);
      committee_->SetThreadPool(pool_.get());
      std::vector<data::PairId> dups;
      for (const auto& e : labeled_.positives()) dups.push_back(e.pair);
      std::vector<data::PairId> negs;
      for (const auto& e : labeled_.negatives()) negs.push_back(e.pair);
      committee_->Train(emb_r, emb_s, dups, negs);
      metrics.t_train_committee = timer.Seconds();
      timer.Restart();
      auto cand = IndexByCommittee(*committee_, emb_r, emb_s, ibc, pool_.get(),
                                   cache, &ibc_stats);
      metrics.t_index_retrieve = timer.Seconds();
      metrics.t_index_build = ibc_stats.index_build_seconds;
      metrics.index_warm_members = ibc_stats.warm_members;
      return cand;
    }
    case BlockingStrategy::kPairedFixed: {
      if (fixed_candidates_.empty()) {
        timer.Restart();
        Matcher probe(pretrained_->config(), config_.matcher, config_.seed ^ 0xfef1);
        probe.SetThreadPool(pool_.get());
        probe.ResetFromPretrained(*pretrained_);
        const la::Matrix emb_r = EmbedAllR(probe);
        const la::Matrix emb_s = EmbedAllS(probe);
        fixed_candidates_ = DirectKnnCandidates(emb_r, emb_s, ibc, pool_.get());
        metrics.t_index_retrieve = timer.Seconds();
      }
      return fixed_candidates_;
    }
    case BlockingStrategy::kPairedAdapt: {
      timer.Restart();
      const la::Matrix emb_r = EmbedAllR(matcher);
      const la::Matrix emb_s = EmbedAllS(matcher);
      metrics.t_embed = timer.Seconds();
      auto cand =
          DirectKnnCandidates(emb_r, emb_s, ibc, pool_.get(), cache, &ibc_stats);
      metrics.t_index_retrieve = timer.Seconds();
      metrics.t_index_build = ibc_stats.index_build_seconds;
      metrics.index_warm_members = ibc_stats.warm_members;
      return cand;
    }
    case BlockingStrategy::kSentenceBert: {
      timer.Restart();
      // Rebuilt per round with round-derived seeds so rounds stay
      // independent (checkpoint resume relies on this).
      sbert_ = std::make_unique<SentenceBertBlocker>(
          pretrained_->config(), config_.sbert, config_.seed ^ (0x5be7 + round));
      sbert_->SetThreadPool(pool_.get());
      sbert_->ResetFromPretrained(*pretrained_, 0xbeef + round);
      sbert_->Train(*encodings_, labeled_.AllPairs());
      metrics.t_train_committee = timer.Seconds();
      timer.Restart();
      const la::Matrix emb_r = sbert_->EmbedR(*encodings_);
      const la::Matrix emb_s = sbert_->EmbedS(*encodings_);
      metrics.t_embed = timer.Seconds();
      auto cand =
          DirectKnnCandidates(emb_r, emb_s, ibc, pool_.get(), cache, &ibc_stats);
      metrics.t_index_retrieve = timer.Seconds();
      metrics.t_index_build = ibc_stats.index_build_seconds;
      metrics.index_warm_members = ibc_stats.warm_members;
      return cand;
    }
    case BlockingStrategy::kFixedExternal: {
      DIAL_CHECK(!external_candidates_.empty())
          << "kFixedExternal requires SetExternalCandidates";
      return external_candidates_;
    }
  }
  return {};
}

AlResult ActiveLearningLoop::Run() {
  util::Rng rng(config_.seed);
  data::OracleLabeler oracle(bundle_);
  encodings_ = std::make_unique<RecordEncodings>(
      *bundle_, *vocab_, pretrained_->config().max_single_len);
  pair_cache_ = std::make_unique<PairEncodingCache>(
      bundle_, vocab_, pretrained_->config().max_pair_len);
  fixed_candidates_.clear();

  AlResult result;
  size_t start_round = 0;
  if (restore_ != nullptr) {
    // Resume: replay T, restore calibration pairs, RNG stream, budget
    // counter and completed-round metrics. Models are retrained per round
    // from the pretrained weights, so nothing else carries over.
    rng.SetState(restore_->rng_state);
    labeled_ = data::LabeledSet();
    for (const auto& e : restore_->positives) labeled_.AddPositive(e.pair, e.pseudo);
    for (const auto& e : restore_->negatives) labeled_.AddNegative(e.pair, e.pseudo);
    calibration_ = restore_->calibration;
    oracle.SetLabelsUsed(restore_->labels_used);
    result.rounds = restore_->rounds;
    start_round = restore_->next_round;
    restore_.reset();
  } else {
    labeled_ = data::SampleSeedSet(*bundle_, config_.seed_per_class, rng);
    calibration_.clear();
    index_cache_.Reset();  // a fresh run must not refresh a previous Run()'s
                           // indexes (RestoreCheckpoint repopulates instead)
  }
  DIAL_CHECK_LT(start_round, config_.rounds);

  MatcherConfig matcher_config = config_.matcher;
  std::unique_ptr<Matcher> matcher;
  std::vector<Candidate> cand;
  std::vector<float> cand_probs;
  util::WallTimer timer;

  for (size_t round = start_round; round < config_.rounds; ++round) {
    RoundMetrics metrics;
    metrics.round = round;
    metrics.labels_in_t = labeled_.size();
    metrics.positives_in_t = labeled_.positives().size();
    metrics.negatives_in_t = labeled_.negatives().size();

    // 1. Train the matcher on T (fresh from pretrained weights — Sec. 4.2:
    //    no warm start between rounds). Seeds are derived from the round
    //    index so rounds are independent of each other, which is what makes
    //    checkpoint resume bit-exact.
    timer.Restart();
    matcher_config.seed =
        config_.seed ^ 0xa1b2c3 ^ (round * 0x9e3779b97f4a7c15ULL);
    matcher = std::make_unique<Matcher>(pretrained_->config(), matcher_config,
                                        config_.seed ^ 0x1111 ^ round);
    matcher->SetThreadPool(pool_.get());
    matcher->ResetFromPretrained(*pretrained_);
    matcher->Train(*pair_cache_, labeled_.AllPairs(), calibration_);
    metrics.t_train_matcher = timer.Seconds();

    // 2-3. Train blocker (strategy-dependent) and retrieve candidates.
    cand = BuildCandidates(round, *matcher, metrics);
    metrics.cand_size = cand.size();

    std::unordered_set<uint64_t> cand_keys;
    cand_keys.reserve(cand.size() * 2);
    for (const Candidate& c : cand) cand_keys.insert(c.pair.Key());
    metrics.cand_recall = CandidateRecall(cand_keys, *bundle_);

    // 4. Matcher probabilities over cand (used by both selection and the
    //    all-pairs metric; counted as selection time, like the paper's
    //    uncertainty computation).
    timer.Restart();
    cand_probs = matcher->PredictProbs(*pair_cache_, CandidatePairs(cand));
    double t_probs = timer.Seconds();
    metrics.t_predict = t_probs;

    // Evaluation (not part of the algorithm; untimed).
    std::vector<data::PairId> test_query;
    test_query.reserve(bundle_->test_pairs.size());
    for (const auto& lp : bundle_->test_pairs) test_query.push_back(lp.pair);
    const std::vector<float> test_probs = matcher->PredictProbs(*pair_cache_, test_query);
    metrics.test_prf = EvaluateTestSet(*bundle_, test_probs, cand_keys);
    if (config_.allpairs_each_round || round + 1 == config_.rounds) {
      metrics.allpairs_prf = EvaluateAllPairs(*bundle_, CandidatePairs(cand), cand_probs);
    }

    // 5. Select pairs to label: exclude Dtest and already-labeled pairs.
    timer.Restart();
    std::vector<size_t> eligible;
    eligible.reserve(cand.size());
    for (size_t i = 0; i < cand.size(); ++i) {
      if (bundle_->InTest(cand[i].pair)) continue;
      if (labeled_.Contains(cand[i].pair)) continue;
      eligible.push_back(i);
    }

    std::vector<std::vector<float>> qbc_probs;
    const std::vector<std::vector<float>>* qbc_ptr = nullptr;
    if (SelectorNeedsCommitteeProbs(config_.selector)) {
      // Bootstrap committee of matchers (Sec. 2.3.1) — learner-agnostic QBC.
      const auto all_pairs = labeled_.AllPairs();
      for (size_t m = 0; m < config_.qbc_committee_size; ++m) {
        MatcherConfig boot_config = matcher_config;
        boot_config.seed = matcher_config.seed ^ (0xb00 + m);
        Matcher boot(pretrained_->config(), boot_config, config_.seed ^ (0xc00 + m));
        boot.SetThreadPool(pool_.get());
        boot.ResetFromPretrained(*pretrained_);
        std::vector<data::LabeledPair> sample;
        sample.reserve(all_pairs.size());
        for (const size_t idx :
             rng.SampleWithReplacement(all_pairs.size(), all_pairs.size())) {
          sample.push_back(all_pairs[idx]);
        }
        boot.Train(*pair_cache_, sample);
        qbc_probs.push_back(boot.PredictProbs(*pair_cache_, CandidatePairs(cand)));
      }
      qbc_ptr = &qbc_probs;
    }

    la::Matrix selector_embeddings;
    const la::Matrix* embeddings_ptr = nullptr;
    if (SelectorNeedsEmbeddings(config_.selector)) {
      std::vector<data::PairId> eligible_pairs;
      eligible_pairs.reserve(eligible.size());
      for (const size_t i : eligible) eligible_pairs.push_back(cand[i].pair);
      // BADGE scores with gradient embeddings; Core-Set and diverse
      // mini-batch cover the representation space.
      selector_embeddings =
          config_.selector == SelectorKind::kBadge
              ? matcher->BadgeEmbeddings(*pair_cache_, eligible_pairs)
              : matcher->PairRepresentations(*pair_cache_, eligible_pairs);
      embeddings_ptr = &selector_embeddings;
    }

    const SelectionResult selection =
        SelectPairs(config_.selector, cand, cand_probs, eligible,
                    config_.budget_per_round, rng, qbc_ptr, embeddings_ptr);
    metrics.t_select = timer.Seconds() + t_probs;

    // 6. Query the oracle and augment T.
    for (const size_t idx : selection.to_label) {
      const data::PairId pair = cand[idx].pair;
      if (oracle.Label(pair)) {
        labeled_.AddPositive(pair);
      } else {
        labeled_.AddNegative(pair);
      }
    }
    for (const auto& [idx, label] : selection.pseudo_labels) {
      if (label) {
        labeled_.AddPositive(cand[idx].pair, /*pseudo=*/true);
      } else {
        labeled_.AddNegative(cand[idx].pair, /*pseudo=*/true);
      }
    }

    // Refresh the presumed-negative calibration sample from the candidate
    // ranking's tail (duplicates concentrate near the head).
    calibration_.clear();
    if (config_.calibration_pairs > 0 && cand.size() > 4) {
      const size_t tail_begin = (3 * cand.size()) / 4;
      const size_t tail_size = cand.size() - tail_begin;
      for (const size_t offset :
           rng.SampleWithoutReplacement(tail_size,
                                        std::min(config_.calibration_pairs, tail_size))) {
        const data::PairId pair = cand[tail_begin + offset].pair;
        if (labeled_.Contains(pair) || bundle_->InTest(pair)) continue;
        calibration_.push_back(pair);
      }
    }

    result.rounds.push_back(metrics);

    if (!checkpoint_path_.empty()) {
      AlCheckpoint checkpoint;
      checkpoint.dataset_name = bundle_->name;
      checkpoint.config_fingerprint = AlConfigFingerprint(config_, bundle_->name);
      checkpoint.next_round = static_cast<uint32_t>(round + 1);
      checkpoint.labels_used = oracle.labels_used();
      checkpoint.rng_state = rng.GetState();
      checkpoint.positives = labeled_.positives();
      checkpoint.negatives = labeled_.negatives();
      checkpoint.calibration = calibration_;
      checkpoint.rounds = result.rounds;
      DIAL_CHECK_OK(SaveAlCheckpoint(checkpoint_path_, checkpoint,
                                     config_.index_refresh ? &index_cache_
                                                           : nullptr));
    }
  }

  DIAL_CHECK(!result.rounds.empty());
  const RoundMetrics& last = result.rounds.back();
  result.final_test = last.test_prf;
  result.final_allpairs = last.allpairs_prf;
  result.final_cand_recall = last.cand_recall;
  result.labels_used = oracle.labels_used();

  // Table 2 RT analogue: end-to-end inference time to emit all duplicate
  // pairs with the trained models (blocking + matching, no training).
  timer.Restart();
  {
    IbcConfig ibc;
    ibc.k_neighbors = config_.k_neighbors;
    ibc.cand_size = config_.cand_size_override > 0
                        ? config_.cand_size_override
                        : static_cast<size_t>(config_.cand_multiplier *
                                              static_cast<double>(bundle_->s_table.size()));
    ibc.backend = config_.index_backend;
    ibc.refresh = config_.refresh;
    // Deployment-shaped: the final blocking pass refreshes the live indexes
    // too (a no-op for the cold path when refresh is off).
    IbcIndexCache* cache = config_.index_refresh ? &index_cache_ : nullptr;
    std::vector<Candidate> final_cand;
    switch (config_.blocking) {
      case BlockingStrategy::kDial: {
        const la::Matrix emb_r = EmbedAllR(*matcher);
        const la::Matrix emb_s = EmbedAllS(*matcher);
        final_cand =
            IndexByCommittee(*committee_, emb_r, emb_s, ibc, pool_.get(), cache);
        break;
      }
      case BlockingStrategy::kPairedFixed:
        final_cand = fixed_candidates_;
        break;
      case BlockingStrategy::kPairedAdapt: {
        const la::Matrix emb_r = EmbedAllR(*matcher);
        const la::Matrix emb_s = EmbedAllS(*matcher);
        final_cand = DirectKnnCandidates(emb_r, emb_s, ibc, pool_.get(), cache);
        break;
      }
      case BlockingStrategy::kSentenceBert: {
        const la::Matrix emb_r = sbert_->EmbedR(*encodings_);
        const la::Matrix emb_s = sbert_->EmbedS(*encodings_);
        final_cand = DirectKnnCandidates(emb_r, emb_s, ibc, pool_.get(), cache);
        break;
      }
      case BlockingStrategy::kFixedExternal:
        final_cand = external_candidates_;
        break;
    }
    matcher->PredictProbs(*pair_cache_, CandidatePairs(final_cand));
  }
  result.block_match_seconds = timer.Seconds();
  final_matcher_ = std::move(matcher);
  return result;
}

TrainedModels ActiveLearningLoop::ReleaseTrainedModels() {
  DIAL_CHECK(final_matcher_ != nullptr)
      << "ReleaseTrainedModels requires a completed Run()";
  TrainedModels models;
  models.matcher = std::move(final_matcher_);
  models.committee = std::move(committee_);
  // Detach the loop-owned pool: the models may outlive this loop.
  models.matcher->SetThreadPool(nullptr);
  if (models.committee != nullptr) models.committee->SetThreadPool(nullptr);
  return models;
}

}  // namespace dial::core
