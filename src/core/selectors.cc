#include "core/selectors.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/kmeans.h"
#include "la/kernels.h"
#include "util/flags.h"

namespace dial::core {

util::StatusOr<SelectorKind> ParseSelector(const std::string& text) {
  return util::ParseChoice<SelectorKind>(
      "selector", text,
      {{"random", SelectorKind::kRandom},
       {"greedy", SelectorKind::kGreedy},
       {"uncertainty", SelectorKind::kUncertainty},
       {"qbc", SelectorKind::kQbc},
       {"partition2", SelectorKind::kPartition2},
       {"partition4", SelectorKind::kPartition4},
       {"badge", SelectorKind::kBadge},
       {"coreset", SelectorKind::kCoreset},
       {"bald", SelectorKind::kBald},
       {"diverse", SelectorKind::kDiverseBatch}});
}

std::string SelectorName(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kRandom:
      return "random";
    case SelectorKind::kGreedy:
      return "greedy";
    case SelectorKind::kUncertainty:
      return "uncertainty";
    case SelectorKind::kQbc:
      return "qbc";
    case SelectorKind::kPartition2:
      return "partition2";
    case SelectorKind::kPartition4:
      return "partition4";
    case SelectorKind::kBadge:
      return "badge";
    case SelectorKind::kCoreset:
      return "coreset";
    case SelectorKind::kBald:
      return "bald";
    case SelectorKind::kDiverseBatch:
      return "diverse";
  }
  return "?";
}

std::vector<SelectorKind> AllSelectors() {
  return {SelectorKind::kRandom,     SelectorKind::kGreedy,
          SelectorKind::kUncertainty, SelectorKind::kQbc,
          SelectorKind::kPartition2, SelectorKind::kPartition4,
          SelectorKind::kBadge,      SelectorKind::kCoreset,
          SelectorKind::kBald,       SelectorKind::kDiverseBatch};
}

bool SelectorNeedsCommitteeProbs(SelectorKind kind) {
  return kind == SelectorKind::kQbc || kind == SelectorKind::kBald;
}

bool SelectorNeedsEmbeddings(SelectorKind kind) {
  return kind == SelectorKind::kBadge || kind == SelectorKind::kCoreset ||
         kind == SelectorKind::kDiverseBatch;
}

double BinaryEntropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
}

namespace {

/// Top `budget` eligible indices by descending score.
std::vector<size_t> TopByScore(const std::vector<size_t>& eligible,
                               const std::vector<double>& scores, size_t budget) {
  std::vector<size_t> order(eligible.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return eligible[a] < eligible[b];
  });
  std::vector<size_t> out;
  for (size_t i = 0; i < order.size() && out.size() < budget; ++i) {
    out.push_back(eligible[order[i]]);
  }
  return out;
}

/// k-center greedy (Sener & Savarese): repeatedly picks the point farthest
/// from the already-selected set, so the batch covers the pool. Rows of
/// `embeddings` align with `eligible`. Deterministic: the first center is the
/// point farthest from the pool centroid.
std::vector<size_t> KCenterGreedy(const la::Matrix& embeddings,
                                  const std::vector<size_t>& eligible,
                                  size_t budget) {
  const size_t n = embeddings.rows();
  const size_t dim = embeddings.cols();
  std::vector<float> centroid(dim, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    const float* row = embeddings.row(i);
    for (size_t d = 0; d < dim; ++d) centroid[d] += row[d];
  }
  for (size_t d = 0; d < dim; ++d) centroid[d] /= static_cast<float>(n);

  // All pool-vs-point scans below run through the batched distance kernel;
  // the argmax reductions stay serial in row order, so results match the
  // scalar loop exactly.
  std::vector<float> dist(n);
  la::kernels::SquaredDistanceBatch(centroid.data(), embeddings.data(), n, dim,
                                    dist.data());
  const size_t first = la::kernels::ArgMax(dist.data(), n);
  std::vector<size_t> picked_rows = {first};
  std::vector<float> min_dist(n, std::numeric_limits<float>::infinity());
  while (picked_rows.size() < budget) {
    const float* last = embeddings.row(picked_rows.back());
    la::kernels::SquaredDistanceBatch(last, embeddings.data(), n, dim,
                                      dist.data());
    size_t farthest = 0;
    float far_d = -1.0f;
    for (size_t i = 0; i < n; ++i) {
      if (dist[i] < min_dist[i]) min_dist[i] = dist[i];
      if (min_dist[i] > far_d) {
        far_d = min_dist[i];
        farthest = i;
      }
    }
    if (far_d <= 0.0f) break;  // pool exhausted (all points are duplicates)
    picked_rows.push_back(farthest);
  }
  std::vector<size_t> out;
  out.reserve(picked_rows.size());
  for (const size_t row : picked_rows) out.push_back(eligible[row]);
  return out;
}

/// Diverse mini-batch selection (Zhdanov): keep the beta*budget most
/// uncertain points, cluster them into `budget` k-means clusters, and label
/// the member nearest each centroid. Balances informativeness and diversity
/// without BADGE's gradient machinery.
std::vector<size_t> DiverseMiniBatch(const la::Matrix& embeddings,
                                     const std::vector<size_t>& eligible,
                                     const std::vector<float>& probs,
                                     size_t budget, util::Rng& rng) {
  constexpr size_t kBeta = 10;  // pre-filter factor from the paper
  const size_t pool = std::min(eligible.size(), kBeta * budget);
  // Rows of the uncertain pool, by descending entropy.
  std::vector<size_t> order(eligible.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double ha = BinaryEntropy(probs[eligible[a]]);
    const double hb = BinaryEntropy(probs[eligible[b]]);
    if (ha != hb) return ha > hb;
    return eligible[a] < eligible[b];
  });
  order.resize(pool);
  la::Matrix subset(pool, embeddings.cols());
  for (size_t i = 0; i < pool; ++i) {
    std::copy(embeddings.row(order[i]),
              embeddings.row(order[i]) + embeddings.cols(), subset.row(i));
  }
  const size_t k = std::min(budget, pool);
  const index::KMeansResult km = index::KMeans(subset, k, /*max_iterations=*/15, rng);
  // Nearest pool member to each centroid.
  std::vector<int> rep(k, -1);
  std::vector<float> rep_d(k, std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < pool; ++i) {
    const int c = km.assignment[i];
    const float d = la::SquaredDistance(subset.row(i), km.centroids.row(c),
                                        subset.cols());
    if (d < rep_d[c]) {
      rep_d[c] = d;
      rep[c] = static_cast<int>(i);
    }
  }
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    if (rep[c] >= 0) out.push_back(eligible[order[rep[c]]]);
  }
  // Backfill from the entropy ranking if empty clusters lost slots.
  for (size_t i = 0; i < pool && out.size() < k; ++i) {
    const size_t cand_index = eligible[order[i]];
    if (std::find(out.begin(), out.end(), cand_index) == out.end()) {
      out.push_back(cand_index);
    }
  }
  return out;
}

SelectionResult SelectPartition(const std::vector<float>& probs,
                                const std::vector<size_t>& eligible, size_t budget,
                                bool with_pseudo) {
  // Split by prediction; rank by entropy.
  struct Item {
    size_t cand_index;
    double entropy;
  };
  std::vector<Item> positives, negatives;
  for (const size_t idx : eligible) {
    const double h = BinaryEntropy(probs[idx]);
    if (probs[idx] > 0.5f) {
      positives.push_back({idx, h});
    } else {
      negatives.push_back({idx, h});
    }
  }
  auto by_entropy_desc = [](const Item& a, const Item& b) {
    if (a.entropy != b.entropy) return a.entropy > b.entropy;
    return a.cand_index < b.cand_index;
  };
  std::sort(positives.begin(), positives.end(), by_entropy_desc);
  std::sort(negatives.begin(), negatives.end(), by_entropy_desc);

  SelectionResult result;
  const size_t half = budget / 2;
  // Least-confident positives and negatives; if one side runs short, fill
  // from the other.
  size_t take_pos = std::min(half, positives.size());
  size_t take_neg = std::min(budget - take_pos, negatives.size());
  take_pos = std::min(positives.size(), budget - take_neg);
  for (size_t i = 0; i < take_pos; ++i) result.to_label.push_back(positives[i].cand_index);
  for (size_t i = 0; i < take_neg; ++i) result.to_label.push_back(negatives[i].cand_index);

  if (with_pseudo) {
    // Most confident (lowest entropy) from each side, disjoint from to_label.
    const size_t pseudo_each = std::max<size_t>(1, budget / 4);
    for (size_t i = 0; i < pseudo_each && i < positives.size(); ++i) {
      const Item& item = positives[positives.size() - 1 - i];
      if (positives.size() - 1 - i < take_pos) break;  // overlaps labeled prefix
      result.pseudo_labels.push_back({item.cand_index, true});
    }
    for (size_t i = 0; i < pseudo_each && i < negatives.size(); ++i) {
      const Item& item = negatives[negatives.size() - 1 - i];
      if (negatives.size() - 1 - i < take_neg) break;
      result.pseudo_labels.push_back({item.cand_index, false});
    }
  }
  return result;
}

}  // namespace

SelectionResult SelectPairs(SelectorKind kind, const std::vector<Candidate>& cand,
                            const std::vector<float>& probs,
                            const std::vector<size_t>& eligible, size_t budget,
                            util::Rng& rng,
                            const std::vector<std::vector<float>>* committee_probs,
                            const la::Matrix* embeddings) {
  SelectionResult result;
  if (eligible.empty() || budget == 0) return result;
  budget = std::min(budget, eligible.size());

  switch (kind) {
    case SelectorKind::kRandom: {
      for (const size_t i : rng.SampleWithoutReplacement(eligible.size(), budget)) {
        result.to_label.push_back(eligible[i]);
      }
      return result;
    }
    case SelectorKind::kGreedy: {
      std::vector<double> scores(eligible.size());
      for (size_t i = 0; i < eligible.size(); ++i) {
        scores[i] = -static_cast<double>(cand[eligible[i]].distance);
      }
      result.to_label = TopByScore(eligible, scores, budget);
      return result;
    }
    case SelectorKind::kUncertainty: {
      DIAL_CHECK_EQ(probs.size(), cand.size());
      // Entropy buckets with blocker-similarity tie-breaking: among equally
      // uncertain pairs, prefer the ones the blocker ranks closest (these
      // carry more duplicates, keeping T from starving of positives).
      std::vector<double> scores(eligible.size());
      for (size_t i = 0; i < eligible.size(); ++i) {
        const double bucket =
            std::floor(BinaryEntropy(probs[eligible[i]]) * 20.0) / 20.0;
        scores[i] = bucket - 1e-6 * static_cast<double>(cand[eligible[i]].distance);
      }
      result.to_label = TopByScore(eligible, scores, budget);
      return result;
    }
    case SelectorKind::kQbc: {
      DIAL_CHECK(committee_probs != nullptr && !committee_probs->empty());
      std::vector<double> scores(eligible.size());
      for (size_t i = 0; i < eligible.size(); ++i) {
        double mean = 0.0;
        for (const auto& member : *committee_probs) {
          DIAL_CHECK_EQ(member.size(), cand.size());
          mean += member[eligible[i]];
        }
        mean /= static_cast<double>(committee_probs->size());
        scores[i] = BinaryEntropy(mean);
      }
      result.to_label = TopByScore(eligible, scores, budget);
      return result;
    }
    case SelectorKind::kPartition2:
      return SelectPartition(probs, eligible, budget, /*with_pseudo=*/false);
    case SelectorKind::kPartition4:
      return SelectPartition(probs, eligible, budget, /*with_pseudo=*/true);
    case SelectorKind::kBadge: {
      DIAL_CHECK(embeddings != nullptr);
      DIAL_CHECK_EQ(embeddings->rows(), eligible.size());
      const size_t k = std::min(budget, embeddings->rows());
      const auto seeds = index::KMeansPlusPlusSeed(*embeddings, k, rng);
      for (const size_t row : seeds) result.to_label.push_back(eligible[row]);
      return result;
    }
    case SelectorKind::kCoreset: {
      DIAL_CHECK(embeddings != nullptr);
      DIAL_CHECK_EQ(embeddings->rows(), eligible.size());
      result.to_label = KCenterGreedy(*embeddings, eligible, budget);
      return result;
    }
    case SelectorKind::kBald: {
      DIAL_CHECK(committee_probs != nullptr && !committee_probs->empty());
      // BALD mutual information: H(E[p]) - E[H(p)] over posterior samples.
      // Zero when every member agrees regardless of confidence; maximal when
      // members are individually confident but contradictory.
      std::vector<double> scores(eligible.size());
      for (size_t i = 0; i < eligible.size(); ++i) {
        double mean = 0.0;
        double mean_entropy = 0.0;
        for (const auto& member : *committee_probs) {
          DIAL_CHECK_EQ(member.size(), cand.size());
          mean += member[eligible[i]];
          mean_entropy += BinaryEntropy(member[eligible[i]]);
        }
        const double m = static_cast<double>(committee_probs->size());
        scores[i] = BinaryEntropy(mean / m) - mean_entropy / m;
      }
      result.to_label = TopByScore(eligible, scores, budget);
      return result;
    }
    case SelectorKind::kDiverseBatch: {
      DIAL_CHECK(embeddings != nullptr);
      DIAL_CHECK_EQ(embeddings->rows(), eligible.size());
      DIAL_CHECK_EQ(probs.size(), cand.size());
      result.to_label = DiverseMiniBatch(*embeddings, eligible, probs, budget, rng);
      return result;
    }
  }
  return result;
}

}  // namespace dial::core
