#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "status_matchers.h"
#include "tplm/model_cache.h"
#include "tplm/tplm.h"

namespace dial::tplm {
namespace {

TplmConfig TinyConfig() {
  TplmConfig config;
  config.transformer.dim = 8;
  config.transformer.num_layers = 1;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 16;
  config.transformer.vocab_size = 64;
  config.transformer.max_positions = 24;
  config.max_single_len = 12;
  config.max_pair_len = 24;
  return config;
}

std::vector<std::string> ToyCorpus() {
  return {
      "wireless speaker black zenvia", "wireless speaker blue zenvia",
      "portable charger white kortek", "compact charger black kortek",
      "speaker cable bundle",          "wireless charger dock",
      "portable speaker gold",         "compact cable black",
  };
}

TEST(TplmModel, DeterministicConstruction) {
  TplmModel a("m", TinyConfig(), 42);
  TplmModel b("m", TinyConfig(), 42);
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.storage(), pb[i]->value.storage());
  }
}

TEST(TplmModel, DifferentSeedsDiffer) {
  TplmModel a("m", TinyConfig(), 42);
  TplmModel b("m", TinyConfig(), 43);
  EXPECT_NE(a.Parameters()[0]->value.storage(), b.Parameters()[0]->value.storage());
}

TEST(TplmModel, WeightSaveLoadRoundTrip) {
  constexpr uint32_t kMagic = 0xd1a17e57u;
  const std::string path = testing::TempDir() + "/dial_tplm_weights_" +
                           std::to_string(::getpid()) + ".bin";
  TplmModel saved("m", TinyConfig(), 5);
  {
    util::BinaryWriter writer(path, kMagic, 1);
    saved.Save(writer);
    DIAL_ASSERT_OK(writer.Finish());
  }
  TplmModel loaded("m", TinyConfig(), 6);
  {
    util::BinaryReader reader(path, kMagic, 1);
    DIAL_ASSERT_OK(reader.status());
    DIAL_EXPECT_OK(loaded.Load(reader));
  }
  const auto pa = saved.Parameters();
  const auto pb = loaded.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.storage(), pb[i]->value.storage());
  }
  std::filesystem::remove(path);
}

TEST(TplmModel, LoadRejectsMismatchedArchitecture) {
  constexpr uint32_t kMagic = 0xd1a17e57u;
  const std::string path = testing::TempDir() + "/dial_tplm_mismatch_" +
                           std::to_string(::getpid()) + ".bin";
  TplmModel saved("m", TinyConfig(), 5);
  {
    util::BinaryWriter writer(path, kMagic, 1);
    saved.Save(writer);
    DIAL_ASSERT_OK(writer.Finish());
  }
  TplmConfig wide = TinyConfig();
  wide.transformer.ffn_dim = 32;
  TplmModel other("m", wide, 5);
  util::BinaryReader reader(path, kMagic, 1);
  DIAL_ASSERT_OK(reader.status());
  const util::Status load = other.Load(reader);
  EXPECT_FALSE(load.ok()) << "shape mismatch must be rejected";
  std::filesystem::remove(path);
}

TEST(TplmModel, EncodeShapes) {
  TplmModel model("m", TinyConfig(), 1);
  util::Rng rng(2);
  autograd::Tape tape;
  nn::ForwardContext ctx{&tape, &rng, false};
  text::EncodedSequence single{{2, 10, 11, 3}, {0, 0, 0, 0}};
  autograd::Var emb = model.EncodeSingle(ctx, single);
  EXPECT_EQ(emb.rows(), 1u);
  EXPECT_EQ(emb.cols(), 8u);

  text::EncodedSequence pair{{2, 10, 3, 11, 3}, {0, 0, 0, 1, 1}};
  autograd::Var cls = model.EncodePair(ctx, pair);
  EXPECT_EQ(cls.rows(), 1u);
  EXPECT_EQ(cls.cols(), 8u);
  autograd::Var features = model.EncodePairFeatures(ctx, pair);
  EXPECT_EQ(features.cols(), model.pair_feature_dim());
  EXPECT_EQ(model.pair_feature_dim(), 4u * 8u + 4u);
}

TEST(TplmModel, PairFeaturesAlignmentDetectsIdentical) {
  TplmModel model("m", TinyConfig(), 1);
  util::Rng rng(2);
  autograd::Tape tape;
  nn::ForwardContext ctx{&tape, &rng, false};
  // Identical bodies => alignment features (last 4 columns) near 1.
  text::EncodedSequence same{{2, 10, 11, 3, 10, 11, 3}, {0, 0, 0, 0, 1, 1, 1}};
  autograd::Var f = model.EncodePairFeatures(ctx, same);
  const size_t base = 4 * 8;
  for (size_t c = base; c < base + 4; ++c) {
    EXPECT_GT(f.value()(0, c), 0.95f) << c;
  }
  // Disjoint bodies => min alignment clearly below 1.
  autograd::Tape tape2;
  nn::ForwardContext ctx2{&tape2, &rng, false};
  text::EncodedSequence diff{{2, 10, 11, 3, 20, 21, 3}, {0, 0, 0, 0, 1, 1, 1}};
  autograd::Var g = model.EncodePairFeatures(ctx2, diff);
  EXPECT_LT(g.value()(0, base + 1), 0.95f);
}

TEST(TplmModel, MlmLossValidAndDecreases) {
  text::SubwordVocab::Options vocab_options;
  vocab_options.max_vocab = 200;
  vocab_options.min_word_freq = 1;
  const auto vocab = text::SubwordVocab::Train(ToyCorpus(), vocab_options);
  TplmConfig config = TinyConfig();
  config.transformer.vocab_size = vocab.size();
  TplmModel model("m", config, 7);
  PretrainOptions options;
  options.epochs = 20;
  options.batch_size = 4;
  options.pair_epochs = 0;
  const PretrainStats stats = PretrainMlm(model, vocab, ToyCorpus(), options);
  EXPECT_GT(stats.steps, 0u);
  EXPECT_LT(stats.final_loss, stats.initial_loss);
}

TEST(TplmModel, PairDiscriminationLearns) {
  text::SubwordVocab::Options vocab_options;
  vocab_options.max_vocab = 200;
  vocab_options.min_word_freq = 1;
  const auto vocab = text::SubwordVocab::Train(ToyCorpus(), vocab_options);
  TplmConfig config = TinyConfig();
  config.transformer.vocab_size = vocab.size();
  TplmModel model("m", config, 7);
  PretrainOptions options;
  options.epochs = 3;
  options.pair_epochs = 30;
  options.batch_size = 4;
  const PretrainStats stats = Pretrain(model, vocab, ToyCorpus(), options);
  // The toy model/corpus is tiny; require learning progress plus at-least-
  // chance accuracy (full-strength learnability is covered by integration).
  EXPECT_LT(stats.pair_final_loss, stats.pair_initial_loss);
  EXPECT_GE(stats.pair_accuracy, 0.5);
}

TEST(ModelCache, StoresAndHits) {
  const std::string dir = testing::TempDir() + "/dial_model_cache_test_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  text::SubwordVocab::Options vocab_options;
  vocab_options.max_vocab = 200;
  vocab_options.min_word_freq = 1;
  const auto vocab = text::SubwordVocab::Train(ToyCorpus(), vocab_options);
  TplmConfig config = TinyConfig();
  config.transformer.vocab_size = vocab.size();
  PretrainOptions options;
  options.epochs = 2;
  options.pair_epochs = 0;
  const uint64_t tag = CorpusFingerprint(ToyCorpus());

  TplmModel first("m", config, 7);
  ModelCache cache(dir);
  cache.GetOrPretrain(first, vocab, ToyCorpus(), options, tag);
  EXPECT_FALSE(cache.last_was_hit());

  TplmModel second("m", config, 7);
  ModelCache cache2(dir);
  cache2.GetOrPretrain(second, vocab, ToyCorpus(), options, tag);
  EXPECT_TRUE(cache2.last_was_hit());

  // Identical weights after cache load.
  const auto pa = first.Parameters();
  const auto pb = second.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.storage(), pb[i]->value.storage());
  }

  // A v1 entry (the pre-CRC format: no trailer, header version 1) fails to
  // open, which the cache treats as a silent miss: it re-pretrains and
  // rewrites the entry, and the call after that hits.
  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries.push_back(e.path());
  }
  ASSERT_EQ(entries.size(), 1u);
  const auto read_entry = [&] {
    std::ifstream in(entries[0], std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string v2_bytes = read_entry();
  ASSERT_GT(v2_bytes.size(), 16u);
  std::string v1_bytes = v2_bytes.substr(0, v2_bytes.size() - 8);
  const uint32_t v1 = 1;
  std::memcpy(&v1_bytes[sizeof(uint32_t)], &v1, sizeof(v1));
  {
    std::ofstream out(entries[0], std::ios::binary | std::ios::trunc);
    out.write(v1_bytes.data(), static_cast<std::streamsize>(v1_bytes.size()));
  }
  TplmModel third("m", config, 7);
  ModelCache cache3(dir);
  cache3.GetOrPretrain(third, vocab, ToyCorpus(), options, tag);
  EXPECT_FALSE(cache3.last_was_hit());
  // Pretraining is deterministic, so the rewrite restores the v2 bytes.
  EXPECT_TRUE(read_entry() == v2_bytes) << "entry not rewritten";

  TplmModel fourth("m", config, 7);
  ModelCache cache4(dir);
  cache4.GetOrPretrain(fourth, vocab, ToyCorpus(), options, tag);
  EXPECT_TRUE(cache4.last_was_hit());
}

TEST(ModelCache, DistinctKeysForDistinctCorpora) {
  const std::string dir = testing::TempDir() + "/dial_model_cache_test2";
  text::SubwordVocab::Options vocab_options;
  vocab_options.max_vocab = 200;
  vocab_options.min_word_freq = 1;
  const auto corpus_a = ToyCorpus();
  auto corpus_b = ToyCorpus();
  corpus_b.push_back("extra line");
  EXPECT_NE(CorpusFingerprint(corpus_a), CorpusFingerprint(corpus_b));
}

TEST(PretrainOptions, FingerprintSensitivity) {
  PretrainOptions a;
  PretrainOptions b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.epochs += 1;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  PretrainOptions c = a;
  c.pair_epochs += 1;
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

}  // namespace
}  // namespace dial::tplm
