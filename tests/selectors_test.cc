#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/selectors.h"

namespace dial::core {
namespace {

std::vector<Candidate> MakeCandidates(size_t n) {
  std::vector<Candidate> cand(n);
  for (size_t i = 0; i < n; ++i) {
    cand[i].pair = {static_cast<uint32_t>(i), static_cast<uint32_t>(i)};
    cand[i].distance = static_cast<float>(i);  // ascending distance
  }
  return cand;
}

std::vector<size_t> AllEligible(size_t n) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(BinaryEntropyTest, Extremes) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_NEAR(BinaryEntropy(0.5), std::log(2.0), 1e-12);
  EXPECT_GT(BinaryEntropy(0.5), BinaryEntropy(0.9));
}

TEST(Selectors, ParseRoundTrip) {
  for (const SelectorKind kind :
       {SelectorKind::kRandom, SelectorKind::kGreedy, SelectorKind::kUncertainty,
        SelectorKind::kQbc, SelectorKind::kPartition2, SelectorKind::kPartition4,
        SelectorKind::kBadge}) {
    EXPECT_EQ(ParseSelector(SelectorName(kind)).value(), kind);
  }
}

TEST(Selectors, RandomRespectsBudgetAndEligibility) {
  const auto cand = MakeCandidates(20);
  const std::vector<size_t> eligible = {3, 5, 7, 9, 11};
  util::Rng rng(1);
  const auto result = SelectPairs(SelectorKind::kRandom, cand, {}, eligible, 3, rng,
                                  nullptr, nullptr);
  EXPECT_EQ(result.to_label.size(), 3u);
  for (const size_t idx : result.to_label) {
    EXPECT_TRUE(std::count(eligible.begin(), eligible.end(), idx));
  }
  // Distinct picks.
  const std::set<size_t> unique(result.to_label.begin(), result.to_label.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(Selectors, BudgetLargerThanEligible) {
  const auto cand = MakeCandidates(5);
  util::Rng rng(2);
  const auto result = SelectPairs(SelectorKind::kRandom, cand, {}, AllEligible(5),
                                  100, rng, nullptr, nullptr);
  EXPECT_EQ(result.to_label.size(), 5u);
}

TEST(Selectors, GreedyPicksClosest) {
  const auto cand = MakeCandidates(10);
  util::Rng rng(3);
  const auto result = SelectPairs(SelectorKind::kGreedy, cand, {}, AllEligible(10), 3,
                                  rng, nullptr, nullptr);
  const std::set<size_t> picked(result.to_label.begin(), result.to_label.end());
  EXPECT_EQ(picked, (std::set<size_t>{0, 1, 2}));
}

TEST(Selectors, UncertaintyPicksNearHalf) {
  const auto cand = MakeCandidates(5);
  const std::vector<float> probs = {0.99f, 0.51f, 0.02f, 0.48f, 0.95f};
  util::Rng rng(4);
  const auto result = SelectPairs(SelectorKind::kUncertainty, cand, probs,
                                  AllEligible(5), 2, rng, nullptr, nullptr);
  const std::set<size_t> picked(result.to_label.begin(), result.to_label.end());
  EXPECT_EQ(picked, (std::set<size_t>{1, 3}));
}

TEST(Selectors, UncertaintyTieBreakPrefersCloserPairs) {
  // Two pairs with identical entropy; the one with smaller distance wins.
  std::vector<Candidate> cand = MakeCandidates(3);
  const std::vector<float> probs = {0.5f, 0.5f, 0.9f};
  util::Rng rng(5);
  const auto result = SelectPairs(SelectorKind::kUncertainty, cand, probs,
                                  AllEligible(3), 1, rng, nullptr, nullptr);
  ASSERT_EQ(result.to_label.size(), 1u);
  EXPECT_EQ(result.to_label[0], 0u);  // distance 0 < distance 1
}

TEST(Selectors, QbcUsesSoftDisagreement) {
  const auto cand = MakeCandidates(3);
  const std::vector<float> probs = {0.5f, 0.5f, 0.5f};  // ignored by QBC
  // Member probabilities: pair 0 consistent, pair 1 maximally split, pair 2
  // consistent.
  std::vector<std::vector<float>> committee = {
      {0.9f, 0.1f, 0.05f},
      {0.9f, 0.9f, 0.05f},
  };
  util::Rng rng(6);
  const auto result = SelectPairs(SelectorKind::kQbc, cand, probs, AllEligible(3), 1,
                                  rng, &committee, nullptr);
  ASSERT_EQ(result.to_label.size(), 1u);
  EXPECT_EQ(result.to_label[0], 1u);  // mean 0.5 => max entropy
}

TEST(Selectors, Partition2SplitsBudget) {
  const auto cand = MakeCandidates(8);
  // 4 predicted positive (2 confident, 2 uncertain), 4 predicted negative.
  const std::vector<float> probs = {0.99f, 0.55f, 0.60f, 0.97f,
                                    0.01f, 0.45f, 0.40f, 0.03f};
  util::Rng rng(7);
  const auto result = SelectPairs(SelectorKind::kPartition2, cand, probs,
                                  AllEligible(8), 4, rng, nullptr, nullptr);
  const std::set<size_t> picked(result.to_label.begin(), result.to_label.end());
  // Least confident positives {1, 2} and least confident negatives {5, 6}.
  EXPECT_EQ(picked, (std::set<size_t>{1, 2, 5, 6}));
  EXPECT_TRUE(result.pseudo_labels.empty());
}

TEST(Selectors, Partition4AddsPseudoLabels) {
  const auto cand = MakeCandidates(8);
  const std::vector<float> probs = {0.99f, 0.55f, 0.60f, 0.97f,
                                    0.01f, 0.45f, 0.40f, 0.03f};
  util::Rng rng(8);
  const auto result = SelectPairs(SelectorKind::kPartition4, cand, probs,
                                  AllEligible(8), 4, rng, nullptr, nullptr);
  EXPECT_FALSE(result.pseudo_labels.empty());
  for (const auto& [idx, label] : result.pseudo_labels) {
    // Pseudo-labels carry the model's confident prediction.
    EXPECT_EQ(label, probs[idx] > 0.5f);
    // Must be the confident ones.
    EXPECT_LT(BinaryEntropy(probs[idx]), BinaryEntropy(0.4));
    // No overlap with the labeled picks.
    EXPECT_FALSE(std::count(result.to_label.begin(), result.to_label.end(), idx));
  }
}

TEST(Selectors, Partition2FillsFromOtherSideWhenShort) {
  const auto cand = MakeCandidates(4);
  // All predicted negative.
  const std::vector<float> probs = {0.1f, 0.2f, 0.3f, 0.4f};
  util::Rng rng(9);
  const auto result = SelectPairs(SelectorKind::kPartition2, cand, probs,
                                  AllEligible(4), 4, rng, nullptr, nullptr);
  EXPECT_EQ(result.to_label.size(), 4u);
}

TEST(Selectors, BadgePicksDiverseGradients) {
  const auto cand = MakeCandidates(6);
  const std::vector<float> probs(6, 0.5f);
  // Two tight clusters of gradient embeddings; k=2 must take one from each.
  la::Matrix badge(6, 2);
  for (size_t i = 0; i < 3; ++i) {
    badge(i, 0) = 0.0f + 0.01f * static_cast<float>(i);
    badge(i, 1) = 0.0f;
    badge(i + 3, 0) = 10.0f + 0.01f * static_cast<float>(i);
    badge(i + 3, 1) = 10.0f;
  }
  util::Rng rng(10);
  const auto result = SelectPairs(SelectorKind::kBadge, cand, probs, AllEligible(6),
                                  2, rng, nullptr, &badge);
  ASSERT_EQ(result.to_label.size(), 2u);
  EXPECT_NE(result.to_label[0] < 3, result.to_label[1] < 3);
}

TEST(Selectors, EmptyEligibleReturnsNothing) {
  const auto cand = MakeCandidates(5);
  util::Rng rng(11);
  const auto result = SelectPairs(SelectorKind::kUncertainty, cand, {}, {}, 3, rng,
                                  nullptr, nullptr);
  EXPECT_TRUE(result.to_label.empty());
}

TEST(SelectorsDeathTest, QbcRequiresCommittee) {
  const auto cand = MakeCandidates(3);
  const std::vector<float> probs = {0.5f, 0.5f, 0.5f};
  util::Rng rng(12);
  EXPECT_DEATH(SelectPairs(SelectorKind::kQbc, cand, probs, AllEligible(3), 1, rng,
                           nullptr, nullptr),
               "Check failed");
}

TEST(SelectorsDeathTest, BadgeRequiresEmbeddings) {
  const auto cand = MakeCandidates(3);
  const std::vector<float> probs = {0.5f, 0.5f, 0.5f};
  util::Rng rng(13);
  EXPECT_DEATH(SelectPairs(SelectorKind::kBadge, cand, probs, AllEligible(3), 1, rng,
                           nullptr, nullptr),
               "Check failed");
}

}  // namespace
}  // namespace dial::core
