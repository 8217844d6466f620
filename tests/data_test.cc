#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/generators.h"
#include "data/perturb.h"
#include "data/registry.h"
#include "data/word_factory.h"
#include "util/string_util.h"

namespace dial::data {
namespace {

TEST(Table, AddAssignsIds) {
  Table table({"a", "b"});
  Record r;
  r.values = {"x", "y"};
  EXPECT_EQ(table.Add(r), 0);
  EXPECT_EQ(table.Add(r), 1);
  EXPECT_EQ(table[1].id, 1);
}

TEST(Table, TextOfJoinsNonEmpty) {
  Table table({"a", "b", "c"});
  Record r;
  r.values = {"x", "", "z"};
  table.Add(r);
  EXPECT_EQ(table.TextOf(0), "x z");
}

TEST(Table, ValueByAttribute) {
  Table table({"title", "price"});
  Record r;
  r.values = {"widget", "9.99"};
  table.Add(r);
  EXPECT_EQ(table.Value(0, "price"), "9.99");
  EXPECT_EQ(table.Value(0, "missing"), "");
}

TEST(PairIdTest, KeyRoundTrip) {
  PairId p{123, 456};
  EXPECT_EQ(p.Key() >> 32, 123u);
  EXPECT_EQ(p.Key() & 0xffffffffu, 456u);
}

TEST(LabeledSetTest, DeduplicatesAndPartitions) {
  LabeledSet set;
  set.AddPositive({1, 2});
  set.AddPositive({1, 2});  // duplicate ignored
  set.AddNegative({3, 4});
  set.AddNegative({1, 2});  // already positive: ignored
  EXPECT_EQ(set.positives().size(), 1u);
  EXPECT_EQ(set.negatives().size(), 1u);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains({1, 2}));
  EXPECT_FALSE(set.Contains({9, 9}));
}

TEST(LabeledSetTest, PseudoFlagPreserved) {
  LabeledSet set;
  set.AddPositive({1, 2}, /*pseudo=*/true);
  EXPECT_TRUE(set.positives()[0].pseudo);
  const auto pairs = set.AllPairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].is_duplicate);
}

TEST(OracleLabelerTest, CountsAndAnswers) {
  DatasetBundle bundle = MakeDataset("walmart_amazon", Scale::kSmoke, 5);
  OracleLabeler oracle(&bundle);
  ASSERT_FALSE(bundle.dups.empty());
  EXPECT_TRUE(oracle.Label(bundle.dups[0]));
  // A pair nobody generated: (0, s) where s is r0's non-partner — find one.
  PairId non_dup{0, 0};
  while (bundle.IsDuplicate(non_dup)) ++non_dup.s;
  EXPECT_FALSE(oracle.Label(non_dup));
  EXPECT_EQ(oracle.labels_used(), 2u);
}

class AllDatasets : public testing::TestWithParam<std::string> {};

TEST_P(AllDatasets, GeneratorInvariants) {
  const DatasetBundle bundle = MakeDataset(GetParam(), Scale::kSmoke, 3);
  bundle.Validate();  // aborts on any inconsistency
  EXPECT_GT(bundle.r_table.size(), 0u);
  EXPECT_GT(bundle.s_table.size(), 0u);
  EXPECT_GT(bundle.dups.size(), 0u);
  EXPECT_GT(bundle.test_pairs.size(), 0u);
  EXPECT_FALSE(bundle.seed_pos_pool.empty());
  EXPECT_FALSE(bundle.seed_neg_pool.empty());
  // Texts non-empty.
  for (size_t i = 0; i < bundle.r_table.size(); ++i) {
    EXPECT_FALSE(bundle.r_table.TextOf(i).empty());
  }
  // Duplicates share the generator's entity id (gold is consistent).
  for (const PairId& p : bundle.dups) {
    EXPECT_EQ(bundle.r_table[p.r].entity_id, bundle.s_table[p.s].entity_id);
  }
}

TEST_P(AllDatasets, DeterministicGeneration) {
  const DatasetBundle a = MakeDataset(GetParam(), Scale::kSmoke, 3);
  const DatasetBundle b = MakeDataset(GetParam(), Scale::kSmoke, 3);
  ASSERT_EQ(a.r_table.size(), b.r_table.size());
  ASSERT_EQ(a.dups.size(), b.dups.size());
  for (size_t i = 0; i < a.r_table.size(); ++i) {
    EXPECT_EQ(a.r_table.TextOf(i), b.r_table.TextOf(i));
  }
}

TEST_P(AllDatasets, SeedsChangeContent) {
  const DatasetBundle a = MakeDataset(GetParam(), Scale::kSmoke, 3);
  const DatasetBundle b = MakeDataset(GetParam(), Scale::kSmoke, 4);
  bool any_diff = a.r_table.size() != b.r_table.size();
  for (size_t i = 0; !any_diff && i < a.r_table.size() && i < b.r_table.size(); ++i) {
    any_diff = a.r_table.TextOf(i) != b.r_table.TextOf(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST_P(AllDatasets, ScaleGrowsSizes) {
  const DatasetBundle smoke = MakeDataset(GetParam(), Scale::kSmoke, 3);
  const DatasetBundle small = MakeDataset(GetParam(), Scale::kSmall, 3);
  EXPECT_GT(small.r_table.size(), smoke.r_table.size());
  EXPECT_GT(small.dups.size(), smoke.dups.size());
}

INSTANTIATE_TEST_SUITE_P(Registry, AllDatasets, testing::ValuesIn(AllDatasetNames()));

TEST(Registry, StatsMatchBundle) {
  const DatasetBundle bundle = MakeDataset("dblp_acm", Scale::kSmoke, 3);
  const DatasetStats stats = ComputeStats(bundle);
  EXPECT_EQ(stats.r_size, bundle.r_table.size());
  EXPECT_EQ(stats.s_size, bundle.s_table.size());
  EXPECT_EQ(stats.num_dups, bundle.dups.size());
  EXPECT_NEAR(stats.dup_rate, bundle.DupRate(), 1e-12);
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakeDataset("bogus", Scale::kSmoke, 1), "Unknown dataset");
}

TEST(Registry, ParseScale) {
  EXPECT_EQ(ParseScale("smoke").value(), Scale::kSmoke);
  EXPECT_EQ(ParseScale("small").value(), Scale::kSmall);
  EXPECT_EQ(ParseScale("medium").value(), Scale::kMedium);
  EXPECT_EQ(ScaleName(Scale::kSmall), "small");
  EXPECT_EQ(ParseScale("large").status().message(),
            "unknown scale 'large' (expected smoke|small|medium)");
}

TEST(Registry, CheckDatasetNameAcceptsWhatMakeDatasetKnows) {
  for (const std::string& name : AllDatasetNames()) {
    EXPECT_TRUE(CheckDatasetName(name).ok()) << name;
    EXPECT_TRUE(CheckDatasetName("dirty_" + name).ok()) << name;
  }
  for (const std::string bad : {"bogus", "dirty_bogus", "", "dirty_"}) {
    const util::Status status = CheckDatasetName(bad);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("walmart_amazon|"), std::string::npos)
        << status.message();
  }
}

TEST(Multilingual, AlignedOneToOne) {
  const DatasetBundle bundle = MakeDataset("multilingual", Scale::kSmoke, 3);
  EXPECT_EQ(bundle.r_table.size(), bundle.s_table.size());
  EXPECT_EQ(bundle.dups.size(), bundle.r_table.size());
  for (const PairId& p : bundle.dups) EXPECT_EQ(p.r, p.s);
}

TEST(Multilingual, LanguagesDifferButShareStructure) {
  const DatasetBundle bundle = MakeDataset("multilingual", Scale::kSmoke, 3);
  size_t shared_whole_tokens = 0;
  size_t total_tokens = 0;
  for (size_t i = 0; i < std::min<size_t>(bundle.dups.size(), 20); ++i) {
    const std::string en = bundle.r_table.TextOf(bundle.dups[i].r);
    const std::string de = bundle.s_table.TextOf(bundle.dups[i].s);
    EXPECT_NE(en, de);
    shared_whole_tokens += util::TokenOverlap(en, de);
    total_tokens += util::Split(en).size();
  }
  // Only tags/numbers survive as whole tokens (low overlap fraction).
  EXPECT_LT(static_cast<double>(shared_whole_tokens) / total_tokens, 0.6);
}

TEST(SampleSeedSetTest, RespectsPerClassAndPools) {
  const DatasetBundle bundle = MakeDataset("amazon_google", Scale::kSmoke, 3);
  util::Rng rng(1);
  const LabeledSet seed = SampleSeedSet(bundle, 8, rng);
  EXPECT_LE(seed.positives().size(), 8u);
  EXPECT_LE(seed.negatives().size(), 8u);
  for (const auto& e : seed.positives()) EXPECT_TRUE(bundle.IsDuplicate(e.pair));
  for (const auto& e : seed.negatives()) EXPECT_FALSE(bundle.IsDuplicate(e.pair));
}

// ------------------------------------------------------------ perturbations

TEST(Perturb, TypoChangesWord) {
  util::Rng rng(1);
  size_t changed = 0;
  for (int i = 0; i < 50; ++i) changed += (ApplyTypo("wireless", rng) != "wireless");
  EXPECT_GT(changed, 25u);
}

TEST(Perturb, TypoLeavesShortWordsAlone) {
  util::Rng rng(1);
  EXPECT_EQ(ApplyTypo("ab", rng), "ab");
}

TEST(Perturb, AbbreviateKeepsPrefix) {
  util::Rng rng(2);
  const std::string out = Abbreviate("electronics", rng);
  EXPECT_TRUE(util::StartsWith("electronics", out.substr(0, out.size() - 1)));
  EXPECT_EQ(out.back(), '.');
  EXPECT_EQ(Abbreviate("abc", rng), "abc");
}

TEST(Perturb, PerturbTokensNeverEmpty) {
  util::Rng rng(3);
  TokenNoise noise;
  noise.drop_prob = 0.99;
  const auto out = PerturbTokens({"a", "b", "c"}, noise, rng);
  EXPECT_FALSE(out.empty());
}

TEST(Perturb, JitterNumberWithinBounds) {
  util::Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const double v = std::strtod(JitterNumber("100.00", 0.05, rng).c_str(), nullptr);
    EXPECT_GE(v, 94.9);
    EXPECT_LE(v, 105.1);
  }
}

TEST(WordFactoryTest, SynonymIdentityFallback) {
  EXPECT_EQ(WordFactory::Synonym("nonexistentword"), "nonexistentword");
  EXPECT_EQ(WordFactory::Synonym("wireless"), "cordless");
}

TEST(WordFactoryTest, ModelCodesLookRight) {
  WordFactory words(5);
  for (int i = 0; i < 20; ++i) {
    const std::string code = words.MakeModelCode();
    EXPECT_GE(code.size(), 4u);
    bool has_digit = false;
    for (const char c : code) has_digit |= (c >= '0' && c <= '9');
    EXPECT_TRUE(has_digit) << code;
  }
}

TEST(WordFactoryTest, PriceInRange) {
  WordFactory words(6);
  for (int i = 0; i < 20; ++i) {
    const double p = std::strtod(words.MakePrice(10, 100).c_str(), nullptr);
    EXPECT_GE(p, 10.0);
    EXPECT_LE(p, 100.0);
  }
}

TEST(BuildEvalSplitTest, TestDisjointFromSeedPools) {
  const DatasetBundle bundle = MakeDataset("dblp_scholar", Scale::kSmoke, 7);
  for (const PairId& p : bundle.seed_pos_pool) EXPECT_FALSE(bundle.InTest(p));
  for (const PairId& p : bundle.seed_neg_pool) EXPECT_FALSE(bundle.InTest(p));
}

TEST(BuildEvalSplitTest, TestHasBothClasses) {
  const DatasetBundle bundle = MakeDataset("abt_buy", Scale::kSmoke, 7);
  size_t pos = 0;
  for (const auto& lp : bundle.test_pairs) pos += lp.is_duplicate;
  EXPECT_GT(pos, 0u);
  EXPECT_LT(pos, bundle.test_pairs.size());
}

}  // namespace
}  // namespace dial::data
