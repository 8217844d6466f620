#include <gtest/gtest.h>

#include "core/committee.h"
#include "core/encodings.h"
#include "core/ibc.h"
#include "core/matcher.h"
#include "core/metrics.h"
#include "data/registry.h"
#include "tplm/tplm.h"
#include "util/thread_pool.h"

namespace dial::core {
namespace {

// -------------------------------------------------------------------- metrics

TEST(Metrics, PrfFromCounts) {
  const Prf prf = PrfFromCounts(8, 10, 16);
  EXPECT_DOUBLE_EQ(prf.precision, 0.8);
  EXPECT_DOUBLE_EQ(prf.recall, 0.5);
  EXPECT_NEAR(prf.f1, 2 * 0.8 * 0.5 / 1.3, 1e-9);
}

TEST(Metrics, PrfDegenerateCases) {
  EXPECT_DOUBLE_EQ(PrfFromCounts(0, 0, 10).precision, 0.0);
  EXPECT_DOUBLE_EQ(PrfFromCounts(0, 5, 0).recall, 0.0);
  EXPECT_DOUBLE_EQ(PrfFromCounts(0, 0, 0).f1, 0.0);
}

data::DatasetBundle TinyBundle() {
  data::DatasetBundle bundle;
  bundle.name = "tiny";
  bundle.r_table = data::Table({"t"});
  bundle.s_table = data::Table({"t"});
  for (int i = 0; i < 4; ++i) {
    data::Record r;
    r.entity_id = i;
    r.values = {"r" + std::to_string(i)};
    bundle.r_table.Add(r);
    data::Record s;
    s.entity_id = i;
    s.values = {"s" + std::to_string(i)};
    bundle.s_table.Add(s);
  }
  bundle.dups = {{0, 0}, {1, 1}, {2, 2}};
  for (const auto& p : bundle.dups) bundle.dup_keys.insert(p.Key());
  bundle.test_pairs = {{{0, 0}, true}, {{1, 1}, true}, {{0, 1}, false},
                       {{2, 3}, false}};
  for (const auto& lp : bundle.test_pairs) bundle.test_keys.insert(lp.pair.Key());
  return bundle;
}

TEST(Metrics, CandidateRecall) {
  const auto bundle = TinyBundle();
  std::vector<data::PairId> cand = {{0, 0}, {1, 1}, {3, 3}};
  EXPECT_NEAR(CandidateRecall(cand, bundle), 2.0 / 3.0, 1e-9);
}

TEST(Metrics, EvaluateTestSetRequiresCandMembership) {
  const auto bundle = TinyBundle();
  std::unordered_set<uint64_t> cand_keys = {data::PairId{0, 0}.Key()};
  // Probs: would predict both positives, but only (0,0) is in cand.
  const std::vector<float> probs = {0.9f, 0.9f, 0.2f, 0.2f};
  const Prf prf = EvaluateTestSet(bundle, probs, cand_keys);
  EXPECT_EQ(prf.true_positives, 1u);
  EXPECT_EQ(prf.predicted_positives, 1u);
  EXPECT_EQ(prf.actual_positives, 2u);
}

TEST(Metrics, EvaluateAllPairs) {
  const auto bundle = TinyBundle();
  const std::vector<data::PairId> cand = {{0, 0}, {1, 1}, {0, 1}};
  const std::vector<float> probs = {0.9f, 0.4f, 0.8f};
  const Prf prf = EvaluateAllPairs(bundle, cand, probs);
  EXPECT_EQ(prf.true_positives, 1u);       // (0,0)
  EXPECT_EQ(prf.predicted_positives, 2u);  // (0,0) and (0,1)
  EXPECT_EQ(prf.actual_positives, 3u);
}

TEST(Metrics, EvaluatePredictedPairs) {
  const auto bundle = TinyBundle();
  const Prf prf = EvaluatePredictedPairs(bundle, {{0, 0}, {3, 3}});
  EXPECT_EQ(prf.true_positives, 1u);
  EXPECT_EQ(prf.predicted_positives, 2u);
}

// ------------------------------------------------------------------ encodings

TEST(Encodings, RecordEncodingsCoverTables) {
  const auto bundle = data::MakeDataset("dblp_acm", data::Scale::kSmoke, 1);
  text::SubwordVocab::Options vo;
  vo.max_vocab = 512;
  const auto vocab = text::SubwordVocab::Train(bundle.CorpusLines(), vo);
  const RecordEncodings enc(bundle, vocab, 16);
  EXPECT_EQ(enc.r_size(), bundle.r_table.size());
  EXPECT_EQ(enc.s_size(), bundle.s_table.size());
  EXPECT_EQ(enc.R(0).ids.front(), text::SpecialIds::kCls);
}

TEST(Encodings, PairCacheMemoizes) {
  const auto bundle = data::MakeDataset("dblp_acm", data::Scale::kSmoke, 1);
  text::SubwordVocab::Options vo;
  vo.max_vocab = 512;
  const auto vocab = text::SubwordVocab::Train(bundle.CorpusLines(), vo);
  PairEncodingCache cache(&bundle, &vocab, 32);
  const auto& a = cache.Get({0, 0});
  const auto& b = cache.Get({0, 0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(cache.size(), 1u);
  cache.Get({0, 1});
  EXPECT_EQ(cache.size(), 2u);
}

// ------------------------------------------------------------------ committee

TEST(Committee, MasksDifferAcrossMembers) {
  BlockerConfig config;
  config.committee_size = 3;
  config.mask_keep_prob = 0.5;
  BlockerCommittee committee(16, config);
  bool any_diff = false;
  for (size_t c = 0; c < 16; ++c) {
    if (committee.member(0).mask()(0, c) != committee.member(1).mask()(0, c)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Committee, MaskKeepsAtLeastOneDimension) {
  BlockerConfig config;
  config.committee_size = 4;
  config.mask_keep_prob = 0.01;
  BlockerCommittee committee(8, config);
  for (size_t k = 0; k < 4; ++k) {
    float sum = 0;
    for (size_t c = 0; c < 8; ++c) sum += committee.member(k).mask()(0, c);
    EXPECT_GE(sum, 1.0f);
  }
}

TEST(Committee, TransformShapeAndBounds) {
  BlockerConfig config;
  config.normalize_output = false;
  BlockerCommittee committee(8, config);
  util::Rng rng(1);
  la::Matrix emb(10, 8);
  emb.RandNormal(rng, 1.0f);
  const la::Matrix out = committee.Encode(0, emb);
  EXPECT_EQ(out.rows(), 10u);
  EXPECT_EQ(out.cols(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out.data()[i], -1.0f);  // tanh range
    EXPECT_LE(out.data()[i], 1.0f);
  }
}

TEST(Committee, NormalizedOutputHasUnitRows) {
  BlockerConfig config;
  BlockerCommittee committee(8, config);
  util::Rng rng(2);
  la::Matrix emb(5, 8);
  emb.RandNormal(rng, 1.0f);
  const la::Matrix out = committee.Encode(0, emb);
  for (size_t r = 0; r < out.rows(); ++r) {
    EXPECT_NEAR(la::Norm(out.row(r), out.cols()), 1.0f, 1e-4f);
  }
}

/// Synthetic blocking task: two embedding "types"; dups share a type-cluster
/// plus noise. Committee training must raise kNN recall over the untrained
/// committee.
struct SyntheticBlocking {
  la::Matrix emb_r;
  la::Matrix emb_s;
  std::vector<data::PairId> dups;
  std::vector<data::PairId> hard_negatives;
};

SyntheticBlocking MakeSyntheticBlocking(size_t n, size_t d, uint64_t seed) {
  util::Rng rng(seed);
  SyntheticBlocking out;
  out.emb_r = la::Matrix(n, d);
  out.emb_s = la::Matrix(n, d);
  // Half the dimensions are "signal" (shared by duplicates), half are
  // distractors that differ wildly.
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      const float base = static_cast<float>(rng.Normal());
      out.emb_r(i, c) = base;
      out.emb_s(i, c) = c < d / 2 ? base + 0.1f * static_cast<float>(rng.Normal())
                                  : static_cast<float>(rng.Normal());
    }
    out.dups.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(i)});
    out.hard_negatives.push_back(
        {static_cast<uint32_t>(i), static_cast<uint32_t>((i + 1) % n)});
  }
  return out;
}

double KnnRecall(BlockerCommittee& committee, const SyntheticBlocking& task,
                 size_t k) {
  IbcConfig config;
  config.k_neighbors = k;
  config.cand_size = 0;
  const auto cand = IndexByCommittee(committee, task.emb_r, task.emb_s, config);
  std::unordered_set<uint64_t> keys;
  for (const auto& c : cand) keys.insert(c.pair.Key());
  size_t hit = 0;
  for (const auto& d : task.dups) hit += keys.count(d.Key());
  return static_cast<double>(hit) / static_cast<double>(task.dups.size());
}

TEST(Committee, ContrastiveTrainingImprovesRecall) {
  const auto task = MakeSyntheticBlocking(60, 16, 3);
  BlockerConfig config;
  config.epochs = 0;
  BlockerCommittee untrained(16, config);
  const double before = KnnRecall(untrained, task, 2);

  config.epochs = 60;
  BlockerCommittee trained(16, config);
  // Train on half the duplicates; recall measured over all.
  std::vector<data::PairId> train_dups(task.dups.begin(), task.dups.begin() + 30);
  trained.Train(task.emb_r, task.emb_s, train_dups, task.hard_negatives);
  const double after = KnnRecall(trained, task, 2);
  EXPECT_GT(after, before + 0.05);
}

TEST(Committee, LossDecreasesAcrossObjectives) {
  const auto task = MakeSyntheticBlocking(40, 16, 4);
  std::vector<data::PairId> train_dups(task.dups.begin(), task.dups.begin() + 20);
  for (const BlockerObjective objective :
       {BlockerObjective::kContrastive, BlockerObjective::kTriplet,
        BlockerObjective::kClassification}) {
    BlockerConfig short_config;
    short_config.objective = objective;
    short_config.epochs = 2;
    BlockerConfig long_config = short_config;
    long_config.epochs = 40;
    BlockerCommittee a(16, short_config);
    BlockerCommittee b(16, long_config);
    const double early = a.Train(task.emb_r, task.emb_s, train_dups,
                                 task.hard_negatives);
    const double late = b.Train(task.emb_r, task.emb_s, train_dups,
                                task.hard_negatives);
    EXPECT_LT(late, early) << ObjectiveName(objective);
  }
}

TEST(Committee, LabeledNegativesSupported) {
  const auto task = MakeSyntheticBlocking(30, 16, 5);
  BlockerConfig config;
  config.negatives = NegativeSource::kLabeled;
  config.epochs = 5;
  BlockerCommittee committee(16, config);
  std::vector<data::PairId> train_dups(task.dups.begin(), task.dups.begin() + 15);
  const double loss =
      committee.Train(task.emb_r, task.emb_s, train_dups, task.hard_negatives);
  EXPECT_GT(loss, 0.0);
}

TEST(CommitteeDeathTest, LabeledNegativesRequireData) {
  const auto task = MakeSyntheticBlocking(10, 16, 6);
  BlockerConfig config;
  config.negatives = NegativeSource::kLabeled;
  BlockerCommittee committee(16, config);
  std::vector<data::PairId> train_dups(task.dups.begin(), task.dups.begin() + 5);
  EXPECT_DEATH(committee.Train(task.emb_r, task.emb_s, train_dups, {}),
               "requires labeled negatives");
}

TEST(Committee, ParseHelpers) {
  EXPECT_EQ(ParseObjective("contrastive").value(), BlockerObjective::kContrastive);
  EXPECT_EQ(ParseObjective("triplet").value(), BlockerObjective::kTriplet);
  EXPECT_EQ(ParseObjective("classification").value(),
            BlockerObjective::kClassification);
  EXPECT_EQ(ObjectiveName(BlockerObjective::kTriplet), "triplet");
  for (const NegativeSource source :
       {NegativeSource::kRandom, NegativeSource::kLabeled}) {
    EXPECT_EQ(ParseNegativeSource(NegativeSourceName(source)).value(), source);
  }
  // A typo is an error, not a silent fallback to random negatives.
  const auto typo = ParseNegativeSource("labelled");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().message(),
            "unknown negative source 'labelled' (expected random|labeled)");
  EXPECT_FALSE(ParseObjective("nope").ok());
}

// ------------------------------------------------------------------------ IBC

TEST(Ibc, MergeKeepsMinimumDistanceSortedTruncated) {
  // A committee of two identical members yields duplicate retrievals; the
  // merge must deduplicate pairs.
  BlockerConfig config;
  config.committee_size = 2;
  config.mask_keep_prob = 1.0;
  config.epochs = 0;
  BlockerCommittee committee(4, config);
  util::Rng rng(7);
  la::Matrix emb_r(20, 4), emb_s(10, 4);
  emb_r.RandNormal(rng, 1.0f);
  emb_s.RandNormal(rng, 1.0f);
  IbcConfig ibc;
  ibc.k_neighbors = 3;
  ibc.cand_size = 12;
  const auto cand = IndexByCommittee(committee, emb_r, emb_s, ibc);
  EXPECT_LE(cand.size(), 12u);
  std::unordered_set<uint64_t> seen;
  float prev = -1e9f;
  for (const auto& c : cand) {
    EXPECT_TRUE(seen.insert(c.pair.Key()).second) << "duplicate pair in cand";
    EXPECT_GE(c.distance, prev);
    prev = c.distance;
  }
}

TEST(Ibc, DirectKnnMatchesFlatSearch) {
  util::Rng rng(8);
  la::Matrix emb_r(15, 4), emb_s(6, 4);
  emb_r.RandNormal(rng, 1.0f);
  emb_s.RandNormal(rng, 1.0f);
  IbcConfig ibc;
  ibc.k_neighbors = 2;
  ibc.cand_size = 0;
  const auto cand = DirectKnnCandidates(emb_r, emb_s, ibc);
  EXPECT_EQ(cand.size(), 12u);  // 6 queries x 2 neighbours, all unique
}

TEST(Ibc, ParallelRetrievalMatchesSerial) {
  // IndexByCommittee with a pool must return exactly the serial result (the
  // merge applies per-member batches in member order either way).
  BlockerConfig config;
  config.committee_size = 4;
  config.epochs = 0;
  BlockerCommittee committee(8, config);
  util::Rng rng(21);
  la::Matrix emb_r(30, 8), emb_s(12, 8);
  emb_r.RandNormal(rng, 1.0f);
  emb_s.RandNormal(rng, 1.0f);
  IbcConfig ibc;
  ibc.k_neighbors = 3;
  ibc.cand_size = 25;
  // Serial first so per-member scratch RNG states match across the two runs.
  BlockerCommittee committee2(8, config);
  const auto serial = IndexByCommittee(committee, emb_r, emb_s, ibc, nullptr);
  util::ThreadPool pool(2);
  const auto parallel = IndexByCommittee(committee2, emb_r, emb_s, ibc, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].pair.Key(), parallel[i].pair.Key()) << i;
    EXPECT_FLOAT_EQ(serial[i].distance, parallel[i].distance) << i;
  }
}

TEST(Ibc, ParseBackendRoundTrips) {
  for (const IndexBackend backend : AllIndexBackends()) {
    EXPECT_EQ(ParseIndexBackend(IndexBackendName(backend)).value(), backend);
  }
  EXPECT_EQ(AllIndexBackends().size(), 8u);
  const auto unknown = ParseIndexBackend("nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.status().message(),
            "unknown index backend 'nope' "
            "(expected flat|ivf|lsh|pq|ivfpq|sq|hnsw|matmul)");
}

TEST(Ibc, BackendsProduceCandidates) {
  util::Rng rng(9);
  la::Matrix emb_r(40, 8), emb_s(10, 8);
  emb_r.RandNormal(rng, 1.0f);
  emb_s.RandNormal(rng, 1.0f);
  for (const IndexBackend backend : AllIndexBackends()) {
    IbcConfig ibc;
    ibc.backend = backend;
    ibc.k_neighbors = 2;
    const auto cand = DirectKnnCandidates(emb_r, emb_s, ibc);
    EXPECT_FALSE(cand.empty());
  }
  EXPECT_EQ(ParseIndexBackend("flat").value(), IndexBackend::kFlat);
  EXPECT_EQ(ParseIndexBackend("ivf").value(), IndexBackend::kIvf);
  EXPECT_EQ(ParseIndexBackend("lsh").value(), IndexBackend::kLsh);
}

// -------------------------------------------------------------------- matcher

class MatcherFixture : public testing::Test {
 protected:
  static tplm::TplmConfig Config() {
    tplm::TplmConfig config;
    config.transformer.dim = 16;
    config.transformer.num_layers = 1;
    config.transformer.num_heads = 2;
    config.transformer.ffn_dim = 32;
    config.transformer.vocab_size = 0;  // set after vocab training
    return config;
  }
};

TEST_F(MatcherFixture, OverfitsSeedSet) {
  const auto bundle = data::MakeDataset("dblp_acm", data::Scale::kSmoke, 2);
  text::SubwordVocab::Options vo;
  vo.max_vocab = 1024;
  const auto vocab = text::SubwordVocab::Train(bundle.CorpusLines(), vo);
  tplm::TplmConfig config = Config();
  config.transformer.vocab_size = vocab.size();
  tplm::TplmModel pretrained("p", config, 3);

  util::Rng rng(4);
  const auto seed = data::SampleSeedSet(bundle, 10, rng);
  PairEncodingCache cache(&bundle, &vocab, config.max_pair_len);
  MatcherConfig mc;
  mc.epochs = 30;
  mc.early_stop_loss = 0.0;  // run all epochs
  mc.random_negative_fraction = 0.0;
  mc.augment_prob = 0.0;
  Matcher matcher(config, mc, 5);
  matcher.ResetFromPretrained(pretrained);
  matcher.Train(cache, seed.AllPairs());
  const auto pairs = seed.AllPairs();
  std::vector<data::PairId> query;
  for (const auto& lp : pairs) query.push_back(lp.pair);
  const auto probs = matcher.PredictProbs(cache, query);
  size_t correct = 0;
  for (size_t i = 0; i < probs.size(); ++i) {
    correct += (probs[i] > 0.5f) == pairs[i].is_duplicate;
  }
  EXPECT_GT(static_cast<double>(correct) / probs.size(), 0.8);
}

TEST_F(MatcherFixture, ResetRestoresPretrainedWeights) {
  const auto bundle = data::MakeDataset("dblp_acm", data::Scale::kSmoke, 2);
  text::SubwordVocab::Options vo;
  vo.max_vocab = 1024;
  const auto vocab = text::SubwordVocab::Train(bundle.CorpusLines(), vo);
  tplm::TplmConfig config = Config();
  config.transformer.vocab_size = vocab.size();
  tplm::TplmModel pretrained("p", config, 3);

  util::Rng rng(4);
  const auto seed = data::SampleSeedSet(bundle, 6, rng);
  PairEncodingCache cache(&bundle, &vocab, config.max_pair_len);
  MatcherConfig mc;
  mc.epochs = 2;
  Matcher matcher(config, mc, 5);
  matcher.ResetFromPretrained(pretrained);
  matcher.Train(cache, seed.AllPairs());
  // After training, weights differ from pretrained; reset restores them.
  matcher.ResetFromPretrained(pretrained);
  const auto pm = matcher.model().Parameters();
  const auto pp = pretrained.Parameters();
  for (size_t i = 0; i < pm.size(); ++i) {
    EXPECT_EQ(pm[i]->value.storage(), pp[i]->value.storage());
  }
}

TEST_F(MatcherFixture, SingleModeEmbeddingsNormalized) {
  const auto bundle = data::MakeDataset("dblp_acm", data::Scale::kSmoke, 2);
  text::SubwordVocab::Options vo;
  vo.max_vocab = 1024;
  const auto vocab = text::SubwordVocab::Train(bundle.CorpusLines(), vo);
  tplm::TplmConfig config = Config();
  config.transformer.vocab_size = vocab.size();
  tplm::TplmModel pretrained("p", config, 3);
  MatcherConfig mc;
  Matcher matcher(config, mc, 5);
  matcher.ResetFromPretrained(pretrained);
  const RecordEncodings enc(bundle, vocab, config.max_single_len);
  std::vector<const text::EncodedSequence*> seqs;
  for (size_t i = 0; i < 5; ++i) seqs.push_back(&enc.R(i));
  const la::Matrix emb = matcher.EmbedSingleMode(seqs);
  EXPECT_EQ(emb.rows(), 5u);
  for (size_t r = 0; r < emb.rows(); ++r) {
    EXPECT_NEAR(la::Norm(emb.row(r), emb.cols()), 1.0f, 1e-4f);
  }
}

// Training tapes run inline, so training with a pool attached must hand the
// pool nothing. At smoke shapes (dim 32, at most 60 positions) every tape
// GEMM lies below util::kMinParallelWork anyway; the dim-128 model's
// 60x128x128 GEMMs lie above it, so only the inline tape keeps them off
// the pool. A count, not a time, so the pin holds on any host.
TEST(MatcherThreading, SmokeShapeTrainingSubmitsNoPoolTasks) {
  const auto bundle = data::MakeDataset("dblp_acm", data::Scale::kSmoke, 2);
  text::SubwordVocab::Options vo;
  vo.max_vocab = 1024;
  const auto vocab = text::SubwordVocab::Train(bundle.CorpusLines(), vo);
  util::Rng rng(4);
  const auto seed = data::SampleSeedSet(bundle, 10, rng);
  static_assert(60 * 128 * 128 >= util::kMinParallelWork);
  for (const size_t dim : {32u, 128u}) {
    tplm::TplmConfig config;  // the smoke-scale model, optionally widened
    ASSERT_EQ(config.transformer.dim, 32u);
    ASSERT_LE(config.transformer.max_positions, 64u);
    config.transformer.dim = dim;
    config.transformer.ffn_dim = 2 * dim;
    config.transformer.vocab_size = vocab.size();
    tplm::TplmModel pretrained("p", config, 3);

    PairEncodingCache cache(&bundle, &vocab, config.max_pair_len);
    MatcherConfig mc;
    mc.epochs = 1;
    Matcher matcher(config, mc, 5);
    matcher.ResetFromPretrained(pretrained);
    util::ThreadPool pool(2);
    matcher.SetThreadPool(&pool);
    matcher.Train(cache, seed.AllPairs());
    EXPECT_EQ(pool.tasks_submitted(), 0u) << "dim " << dim;
  }
}

TEST_F(MatcherFixture, BadgeEmbeddingsShape) {
  const auto bundle = data::MakeDataset("dblp_acm", data::Scale::kSmoke, 2);
  text::SubwordVocab::Options vo;
  vo.max_vocab = 1024;
  const auto vocab = text::SubwordVocab::Train(bundle.CorpusLines(), vo);
  tplm::TplmConfig config = Config();
  config.transformer.vocab_size = vocab.size();
  tplm::TplmModel pretrained("p", config, 3);
  MatcherConfig mc;
  Matcher matcher(config, mc, 5);
  matcher.ResetFromPretrained(pretrained);
  PairEncodingCache cache(&bundle, &vocab, config.max_pair_len);
  const la::Matrix badge = matcher.BadgeEmbeddings(cache, {{0, 0}, {0, 1}});
  EXPECT_EQ(badge.rows(), 2u);
  EXPECT_EQ(badge.cols(), config.transformer.dim + 1);
}

}  // namespace
}  // namespace dial::core
