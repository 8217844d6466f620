#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/jedai.h"
#include "baselines/meta_blocking.h"
#include "data/registry.h"

namespace dial::baselines {
namespace {

/// Hand-built collection:
///   block "a": r{0,1} x s{0}
///   block "b": r{0}   x s{0,1}
///   block "c": r{1}   x s{1}
/// Blocking graph: (0,0) in a,b; (1,0) in a; (0,1) in b; (1,1) in c.
BlockCollection TinyCollection() {
  BlockCollection collection;
  collection.r_size = 2;
  collection.s_size = 2;
  Block a;
  a.key = "a";
  a.r_ids = {0, 1};
  a.s_ids = {0};
  Block b;
  b.key = "b";
  b.r_ids = {0};
  b.s_ids = {0, 1};
  Block c;
  c.key = "c";
  c.r_ids = {1};
  c.s_ids = {1};
  collection.blocks = {a, b, c};
  return collection;
}

double WeightOf(const MetaBlockingResult& result, uint32_t r, uint32_t s) {
  for (const WeightedEdge& e : result.edges) {
    if (e.pair.r == r && e.pair.s == s) return e.weight;
  }
  return -1.0;  // pruned
}

TEST(BlockCollection, CountsComparisonsAndAssignments) {
  const BlockCollection c = TinyCollection();
  EXPECT_EQ(c.TotalComparisons(), 2u + 2u + 1u);
  EXPECT_EQ(c.TotalRecordAssignments(), 3u + 3u + 2u);
}

TEST(TokenBlockingTest, BuildsCoOccurrenceBlocks) {
  const data::DatasetBundle bundle =
      data::MakeDataset("walmart_amazon", data::Scale::kSmoke, 3);
  const BlockCollection collection = TokenBlocking(bundle);
  ASSERT_FALSE(collection.blocks.empty());
  EXPECT_EQ(collection.r_size, bundle.r_table.size());
  EXPECT_EQ(collection.s_size, bundle.s_table.size());
  for (const Block& block : collection.blocks) {
    EXPECT_FALSE(block.r_ids.empty());  // single-sided blocks dropped
    EXPECT_FALSE(block.s_ids.empty());
    EXPECT_GE(block.key.size(), 2u);
    for (const uint32_t r : block.r_ids) EXPECT_LT(r, collection.r_size);
    for (const uint32_t s : block.s_ids) EXPECT_LT(s, collection.s_size);
  }
  // Deterministic block order (sorted by key).
  for (size_t i = 1; i < collection.blocks.size(); ++i) {
    EXPECT_LT(collection.blocks[i - 1].key, collection.blocks[i].key);
  }
}

TEST(TokenBlockingTest, HighRecallBeforePruning) {
  // Token blocking is the recall ceiling of the classical stack: records
  // sharing any token co-occur, so nearly every gold duplicate is covered.
  const data::DatasetBundle bundle =
      data::MakeDataset("dblp_acm", data::Scale::kSmoke, 4);
  const BlockCollection collection = TokenBlocking(bundle);
  std::set<uint64_t> covered;
  for (const Block& block : collection.blocks) {
    for (const uint32_t r : block.r_ids) {
      for (const uint32_t s : block.s_ids) {
        covered.insert(data::PairId{r, s}.Key());
      }
    }
  }
  size_t hit = 0;
  for (const data::PairId& dup : bundle.dups) hit += covered.count(dup.Key());
  EXPECT_GT(static_cast<double>(hit) / static_cast<double>(bundle.dups.size()),
            0.95);
}

TEST(PurgeBlocksTest, RemovesOversized) {
  BlockCollection collection = TinyCollection();
  PurgeBlocks(collection, 1);  // only 1x1 blocks survive
  ASSERT_EQ(collection.blocks.size(), 1u);
  EXPECT_EQ(collection.blocks[0].key, "c");
}

TEST(FilterBlocksTest, RatioOneKeepsEverything) {
  BlockCollection collection = TinyCollection();
  const size_t before = collection.TotalRecordAssignments();
  FilterBlocks(collection, 1.0);
  EXPECT_EQ(collection.TotalRecordAssignments(), before);
}

TEST(FilterBlocksTest, SmallRatioKeepsSmallestBlocks) {
  BlockCollection collection = TinyCollection();
  // Ratio 0.5: r0 participates in a(3),b(3) -> keeps ceil(0.5*2)=1 block;
  // ties broken by size then index, so r0 keeps "a". r1: a(3),c(2) -> keeps c.
  FilterBlocks(collection, 0.5);
  for (const Block& block : collection.blocks) {
    EXPECT_FALSE(block.r_ids.empty());
    EXPECT_FALSE(block.s_ids.empty());
  }
  // The filtered collection must shrink.
  EXPECT_LT(collection.TotalRecordAssignments(), 8u);
}

TEST(FilterBlocksTest, DiesOnBadRatio) {
  BlockCollection collection = TinyCollection();
  EXPECT_DEATH(FilterBlocks(collection, 0.0), "ratio");
  EXPECT_DEATH(FilterBlocks(collection, 1.5), "ratio");
}

TEST(MetaBlockWeights, CbsCountsCommonBlocks) {
  MetaBlockingConfig config;
  config.weighting = EdgeWeighting::kCbs;
  config.pruning = PruningScheme::kCep;  // CEP budget 8/2=4 keeps all 4 edges
  const MetaBlockingResult result = MetaBlock(TinyCollection(), config);
  EXPECT_EQ(result.input_edges, 4u);
  EXPECT_DOUBLE_EQ(WeightOf(result, 0, 0), 2.0);  // blocks a and b
  EXPECT_DOUBLE_EQ(WeightOf(result, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(WeightOf(result, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(WeightOf(result, 1, 1), 1.0);
}

TEST(MetaBlockWeights, JaccardUsesBlockLists) {
  MetaBlockingConfig config;
  config.weighting = EdgeWeighting::kJs;
  config.pruning = PruningScheme::kCep;
  const MetaBlockingResult result = MetaBlock(TinyCollection(), config);
  // r0 in {a,b} (2), s0 in {a,b} (2), common 2 -> 2/(2+2-2) = 1.
  EXPECT_DOUBLE_EQ(WeightOf(result, 0, 0), 1.0);
  // r1 in {a,c} (2), s0 in {a,b} (2), common 1 -> 1/3.
  EXPECT_NEAR(WeightOf(result, 1, 0), 1.0 / 3.0, 1e-12);
}

TEST(MetaBlockWeights, ArcsFavorsSmallBlocks) {
  MetaBlockingConfig config;
  config.weighting = EdgeWeighting::kArcs;
  config.pruning = PruningScheme::kCep;
  const MetaBlockingResult result = MetaBlock(TinyCollection(), config);
  // (1,1) shares only block c (1 comparison) -> weight 1.
  EXPECT_DOUBLE_EQ(WeightOf(result, 1, 1), 1.0);
  // (1,0) shares only block a (2 comparisons) -> weight 1/2.
  EXPECT_DOUBLE_EQ(WeightOf(result, 1, 0), 0.5);
  // (0,0) shares a and b -> 1/2 + 1/2 = 1.
  EXPECT_DOUBLE_EQ(WeightOf(result, 0, 0), 1.0);
}

TEST(MetaBlockWeights, ChiSquareNonNegativeAndDiscriminative) {
  MetaBlockingConfig config;
  config.weighting = EdgeWeighting::kChiSquare;
  config.pruning = PruningScheme::kCep;
  const MetaBlockingResult result = MetaBlock(TinyCollection(), config);
  for (const WeightedEdge& e : result.edges) {
    EXPECT_GE(e.weight, 0.0);
  }
  // (0,0): perfectly correlated block lists -> the strongest association.
  EXPECT_GE(WeightOf(result, 0, 0), WeightOf(result, 1, 0));
}

TEST(MetaBlockWeights, EcbsBoostsRareBlockLists) {
  MetaBlockingConfig config;
  config.weighting = EdgeWeighting::kEcbs;
  config.pruning = PruningScheme::kCep;
  const MetaBlockingResult result = MetaBlock(TinyCollection(), config);
  // ECBS = CBS * log10(3/|Br|) * log10(3/|Bs|); (1,1) has |Br|=|Bs|=... all
  // records sit in 2 blocks here, so the factor is log10(1.5)^2 > 0.
  EXPECT_GT(WeightOf(result, 1, 1), 0.0);
}

TEST(MetaBlockPruning, WepKeepsAboveMeanOnly) {
  MetaBlockingConfig config;
  config.weighting = EdgeWeighting::kCbs;
  config.pruning = PruningScheme::kWep;
  const MetaBlockingResult result = MetaBlock(TinyCollection(), config);
  // Weights {2,1,1,1}, mean 1.25 -> only (0,0) survives.
  ASSERT_EQ(result.edges.size(), 1u);
  EXPECT_EQ(result.edges[0].pair.r, 0u);
  EXPECT_EQ(result.edges[0].pair.s, 0u);
}

TEST(MetaBlockPruning, CepKeepsExactBudget) {
  MetaBlockingConfig config;
  config.weighting = EdgeWeighting::kCbs;
  config.pruning = PruningScheme::kCep;
  BlockCollection collection = TinyCollection();
  const MetaBlockingResult result = MetaBlock(collection, config);
  // Budget = TotalRecordAssignments / 2 = 4, and there are exactly 4 edges.
  EXPECT_EQ(result.edges.size(), 4u);
}

TEST(MetaBlockPruning, NodeCentricKeepsEveryNodesBestEdge) {
  // WNP/CNP guarantee: each record's strongest edge survives (its weight is
  // >= the node's mean / within the node's top-k).
  const data::DatasetBundle bundle =
      data::MakeDataset("walmart_amazon", data::Scale::kSmoke, 5);
  BlockCollection collection = TokenBlocking(bundle);
  PurgeBlocks(collection, 500);
  for (const PruningScheme scheme : {PruningScheme::kWnp, PruningScheme::kCnp}) {
    MetaBlockingConfig config;
    config.weighting = EdgeWeighting::kJs;
    config.pruning = scheme;
    const MetaBlockingResult unpruned = [&] {
      MetaBlockingConfig cep = config;
      cep.pruning = PruningScheme::kCep;
      return MetaBlock(collection, cep);
    }();
    const MetaBlockingResult pruned = MetaBlock(collection, config);
    ASSERT_FALSE(pruned.edges.empty());
    EXPECT_LE(pruned.edges.size(), unpruned.input_edges);
    // Best edge per r-node in the full graph:
    std::unordered_map<uint32_t, WeightedEdge> best;
    for (const WeightedEdge& e : unpruned.edges) {
      auto it = best.find(e.pair.r);
      if (it == best.end() || e.weight > it->second.weight) best[e.pair.r] = e;
    }
    std::set<uint64_t> kept;
    for (const WeightedEdge& e : pruned.edges) kept.insert(e.pair.Key());
    for (const auto& [r, e] : best) {
      EXPECT_TRUE(kept.count(e.pair.Key()) > 0)
          << PruningSchemeName(scheme) << " dropped r" << r << "'s best edge";
    }
  }
}

TEST(MetaBlockPruning, OutputSortedDescending) {
  for (const PruningScheme scheme :
       {PruningScheme::kWep, PruningScheme::kCep, PruningScheme::kWnp,
        PruningScheme::kCnp}) {
    MetaBlockingConfig config;
    config.pruning = scheme;
    const MetaBlockingResult result = MetaBlock(TinyCollection(), config);
    for (size_t i = 1; i < result.edges.size(); ++i) {
      EXPECT_GE(result.edges[i - 1].weight, result.edges[i].weight);
    }
  }
}

TEST(MetaBlockPruning, EmptyCollection) {
  BlockCollection empty;
  const MetaBlockingResult result = MetaBlock(empty, {});
  EXPECT_TRUE(result.edges.empty());
  EXPECT_EQ(result.input_edges, 0u);
}

TEST(MetaBlockParse, RoundTrips) {
  for (const EdgeWeighting w :
       {EdgeWeighting::kCbs, EdgeWeighting::kJs, EdgeWeighting::kEcbs,
        EdgeWeighting::kArcs, EdgeWeighting::kChiSquare}) {
    EXPECT_EQ(ParseEdgeWeighting(EdgeWeightingName(w)).value(), w);
  }
  for (const PruningScheme p : {PruningScheme::kWep, PruningScheme::kCep,
                                PruningScheme::kWnp, PruningScheme::kCnp}) {
    EXPECT_EQ(ParsePruningScheme(PruningSchemeName(p)).value(), p);
  }
  EXPECT_FALSE(ParseEdgeWeighting("nope").ok());
  EXPECT_FALSE(ParsePruningScheme("nope").ok());
}

TEST(JedaiWithSchemes, EverySchemeCombinationCompletes) {
  const data::DatasetBundle bundle =
      data::MakeDataset("dblp_acm", data::Scale::kSmoke, 6);
  for (const EdgeWeighting w : {EdgeWeighting::kJs, EdgeWeighting::kChiSquare}) {
    for (const PruningScheme p : {PruningScheme::kWep, PruningScheme::kWnp}) {
      JedaiAgnosticConfig config;
      config.weighting = w;
      config.pruning = p;
      const JedaiResult result = RunJedaiSchemaAgnostic(bundle, config);
      EXPECT_GT(result.num_blocks, 0u)
          << EdgeWeightingName(w) << "+" << PruningSchemeName(p);
      EXPECT_FALSE(result.predicted.empty());
    }
  }
}

TEST(MetaBlockParallel, PooledMatchesInlineExactly) {
  // The graph-building pass fans fixed 256-block chunks over the pool; the
  // chunk-order merge must make pooled and inline runs bit-identical —
  // including the double-precision ARCS sums and the WEP mean — on a real
  // token-blocking collection spanning many chunks.
  const data::DatasetBundle bundle =
      data::MakeDataset("walmart_amazon", data::Scale::kSmoke, 9);
  BlockCollection collection = TokenBlocking(bundle);
  // Smoke scale alone yields < 256 blocks (one chunk); pad with synthetic
  // overlapping blocks so the pooled run really fans multiple chunks.
  const uint32_t r_n = static_cast<uint32_t>(collection.r_size);
  const uint32_t s_n = static_cast<uint32_t>(collection.s_size);
  for (uint32_t b = 0; collection.blocks.size() < 700; ++b) {
    Block block;
    block.key = "pad" + std::to_string(b);
    for (uint32_t j = 0; j < 2 + b % 3; ++j) {
      block.r_ids.push_back((b * 7 + j * 13) % r_n);
      block.s_ids.push_back((b * 11 + j * 17) % s_n);
    }
    collection.blocks.push_back(std::move(block));
  }
  ASSERT_GT(collection.blocks.size(), 256u);  // multiple chunks, else vacuous
  util::ThreadPool pool(4);
  for (const EdgeWeighting w :
       {EdgeWeighting::kCbs, EdgeWeighting::kJs, EdgeWeighting::kArcs,
        EdgeWeighting::kEcbs, EdgeWeighting::kChiSquare}) {
    for (const PruningScheme p : {PruningScheme::kWep, PruningScheme::kCnp}) {
      SCOPED_TRACE(EdgeWeightingName(w) + "+" + PruningSchemeName(p));
      MetaBlockingConfig config;
      config.weighting = w;
      config.pruning = p;
      const MetaBlockingResult inline_result =
          MetaBlock(collection, config, nullptr);
      const MetaBlockingResult pooled_result =
          MetaBlock(collection, config, &pool);
      EXPECT_EQ(inline_result.input_edges, pooled_result.input_edges);
      ASSERT_EQ(inline_result.edges.size(), pooled_result.edges.size());
      for (size_t i = 0; i < inline_result.edges.size(); ++i) {
        EXPECT_EQ(inline_result.edges[i].pair, pooled_result.edges[i].pair);
        EXPECT_EQ(inline_result.edges[i].weight, pooled_result.edges[i].weight)
            << "edge " << i;
      }
    }
  }
}

TEST(JedaiWithSchemes, BlockFilteringReducesComparisons) {
  const data::DatasetBundle bundle =
      data::MakeDataset("walmart_amazon", data::Scale::kSmoke, 7);
  JedaiAgnosticConfig plain;
  JedaiAgnosticConfig filtered;
  filtered.block_filter_ratio = 0.5;
  const JedaiResult a = RunJedaiSchemaAgnostic(bundle, plain);
  const JedaiResult b = RunJedaiSchemaAgnostic(bundle, filtered);
  EXPECT_LE(b.comparisons, a.comparisons);
}

}  // namespace
}  // namespace dial::baselines
