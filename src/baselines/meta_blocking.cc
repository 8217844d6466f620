#include "baselines/meta_blocking.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "text/tokenizer.h"
#include "util/flags.h"

namespace dial::baselines {

size_t BlockCollection::TotalComparisons() const {
  size_t total = 0;
  for (const Block& block : blocks) total += block.Comparisons();
  return total;
}

size_t BlockCollection::TotalRecordAssignments() const {
  size_t total = 0;
  for (const Block& block : blocks) total += block.TotalRecords();
  return total;
}

BlockCollection TokenBlocking(const data::DatasetBundle& bundle,
                              size_t min_token_len) {
  struct Sides {
    std::vector<uint32_t> r_ids;
    std::vector<uint32_t> s_ids;
  };
  std::unordered_map<std::string, Sides> by_token;
  auto add_tokens = [&](const std::string& record_text, uint32_t id, bool is_r) {
    std::unordered_set<std::string> seen;
    for (const std::string& tok : text::BasicTokenize(record_text)) {
      if (tok.size() < min_token_len) continue;
      if (!seen.insert(tok).second) continue;
      Sides& sides = by_token[tok];
      (is_r ? sides.r_ids : sides.s_ids).push_back(id);
    }
  };
  for (size_t i = 0; i < bundle.r_table.size(); ++i) {
    add_tokens(bundle.r_table.TextOf(i), static_cast<uint32_t>(i), true);
  }
  for (size_t i = 0; i < bundle.s_table.size(); ++i) {
    add_tokens(bundle.s_table.TextOf(i), static_cast<uint32_t>(i), false);
  }

  BlockCollection collection;
  collection.r_size = bundle.r_table.size();
  collection.s_size = bundle.s_table.size();
  collection.blocks.reserve(by_token.size());
  for (auto& [token, sides] : by_token) {
    if (sides.r_ids.empty() || sides.s_ids.empty()) continue;  // single-sided
    Block block;
    block.key = token;
    block.r_ids = std::move(sides.r_ids);
    block.s_ids = std::move(sides.s_ids);
    collection.blocks.push_back(std::move(block));
  }
  // Deterministic order independent of hash-map iteration.
  std::sort(collection.blocks.begin(), collection.blocks.end(),
            [](const Block& a, const Block& b) { return a.key < b.key; });
  return collection;
}

void PurgeBlocks(BlockCollection& collection, size_t max_comparisons) {
  auto out = std::remove_if(
      collection.blocks.begin(), collection.blocks.end(),
      [&](const Block& b) { return b.Comparisons() > max_comparisons; });
  collection.blocks.erase(out, collection.blocks.end());
}

void FilterBlocks(BlockCollection& collection, double ratio) {
  DIAL_CHECK_GT(ratio, 0.0);
  DIAL_CHECK_LE(ratio, 1.0);
  // Per-record block lists, sorted by ascending block size (smaller blocks
  // are more discriminative and kept first).
  struct Membership {
    std::vector<std::pair<size_t, size_t>> blocks;  // (block size, block idx)
  };
  std::vector<Membership> r_member(collection.r_size);
  std::vector<Membership> s_member(collection.s_size);
  for (size_t b = 0; b < collection.blocks.size(); ++b) {
    const size_t size = collection.blocks[b].TotalRecords();
    for (const uint32_t r : collection.blocks[b].r_ids) {
      r_member[r].blocks.push_back({size, b});
    }
    for (const uint32_t s : collection.blocks[b].s_ids) {
      s_member[s].blocks.push_back({size, b});
    }
  }
  auto retained = [&](std::vector<Membership>& members) {
    std::vector<std::unordered_set<size_t>> keep(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      auto& list = members[i].blocks;
      std::sort(list.begin(), list.end());
      const size_t limit = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(ratio * static_cast<double>(list.size()))));
      for (size_t j = 0; j < list.size() && j < limit; ++j) {
        keep[i].insert(list[j].second);
      }
    }
    return keep;
  };
  const auto r_keep = retained(r_member);
  const auto s_keep = retained(s_member);

  std::vector<Block> filtered;
  filtered.reserve(collection.blocks.size());
  for (size_t b = 0; b < collection.blocks.size(); ++b) {
    Block& block = collection.blocks[b];
    std::vector<uint32_t> r_ids, s_ids;
    for (const uint32_t r : block.r_ids) {
      if (r_keep[r].count(b) > 0) r_ids.push_back(r);
    }
    for (const uint32_t s : block.s_ids) {
      if (s_keep[s].count(b) > 0) s_ids.push_back(s);
    }
    if (r_ids.empty() || s_ids.empty()) continue;
    block.r_ids = std::move(r_ids);
    block.s_ids = std::move(s_ids);
    filtered.push_back(std::move(block));
  }
  collection.blocks = std::move(filtered);
}

util::StatusOr<EdgeWeighting> ParseEdgeWeighting(const std::string& text) {
  return util::ParseChoice<EdgeWeighting>(
      "edge weighting", text,
      {{"cbs", EdgeWeighting::kCbs},
       {"js", EdgeWeighting::kJs},
       {"ecbs", EdgeWeighting::kEcbs},
       {"arcs", EdgeWeighting::kArcs},
       {"chisquare", EdgeWeighting::kChiSquare}});
}

std::string EdgeWeightingName(EdgeWeighting weighting) {
  switch (weighting) {
    case EdgeWeighting::kCbs: return "cbs";
    case EdgeWeighting::kJs: return "js";
    case EdgeWeighting::kEcbs: return "ecbs";
    case EdgeWeighting::kArcs: return "arcs";
    case EdgeWeighting::kChiSquare: return "chisquare";
  }
  return "?";
}

util::StatusOr<PruningScheme> ParsePruningScheme(const std::string& text) {
  return util::ParseChoice<PruningScheme>(
      "pruning scheme", text,
      {{"wep", PruningScheme::kWep},
       {"cep", PruningScheme::kCep},
       {"wnp", PruningScheme::kWnp},
       {"cnp", PruningScheme::kCnp}});
}

std::string PruningSchemeName(PruningScheme scheme) {
  switch (scheme) {
    case PruningScheme::kWep: return "wep";
    case PruningScheme::kCep: return "cep";
    case PruningScheme::kWnp: return "wnp";
    case PruningScheme::kCnp: return "cnp";
  }
  return "?";
}

namespace {

struct EdgeStats {
  uint32_t common_blocks = 0;
  double arcs = 0.0;  // Σ 1/comparisons(b) over common blocks
};

void SortEdges(std::vector<WeightedEdge>& edges) {
  std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.pair.Key() < b.pair.Key();
  });
}

}  // namespace

MetaBlockingResult MetaBlock(const BlockCollection& collection,
                             const MetaBlockingConfig& config,
                             util::ThreadPool* pool) {
  MetaBlockingResult result;
  const size_t num_blocks = collection.blocks.size();
  if (num_blocks == 0) return result;

  // Per-record block participation counts |B_r|, |B_s|.
  std::vector<uint32_t> r_blocks(collection.r_size, 0);
  std::vector<uint32_t> s_blocks(collection.s_size, 0);
  for (const Block& block : collection.blocks) {
    for (const uint32_t r : block.r_ids) ++r_blocks[r];
    for (const uint32_t s : block.s_ids) ++s_blocks[s];
  }

  // Blocking-graph edges with co-occurrence statistics — the O(Σ|b_r|·|b_s|)
  // pass that dominates at scale. Blocks are processed in fixed 256-block
  // chunks (grain independent of worker count) into per-chunk partial maps;
  // the serial chunk-order merge below accumulates each edge's statistics in
  // chunk order, so the double-precision ARCS sums come out bit-identical no
  // matter how the chunks were scheduled — or whether a pool ran them at all
  // (the inline path is this same code with every chunk on one thread).
  constexpr size_t kBlockChunk = 256;
  const size_t num_chunks = (num_blocks + kBlockChunk - 1) / kBlockChunk;
  std::vector<std::unordered_map<uint64_t, EdgeStats>> partial(num_chunks);
  util::ParallelFor(pool, num_chunks, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      std::unordered_map<uint64_t, EdgeStats>& local = partial[c];
      const size_t block_end = std::min(num_blocks, (c + 1) * kBlockChunk);
      for (size_t b = c * kBlockChunk; b < block_end; ++b) {
        const Block& block = collection.blocks[b];
        const double inv = 1.0 / static_cast<double>(block.Comparisons());
        for (const uint32_t r : block.r_ids) {
          for (const uint32_t s : block.s_ids) {
            EdgeStats& edge = local[data::PairId{r, s}.Key()];
            ++edge.common_blocks;
            edge.arcs += inv;
          }
        }
      }
    }
  });
  // Merge into chunk 0's map (single-chunk collections — every unit test —
  // thus reproduce the pre-chunking sequential map exactly). Each key occurs
  // at most once per chunk map, so within-chunk hash iteration order cannot
  // reorder any key's accumulation sequence.
  std::unordered_map<uint64_t, EdgeStats> stats = std::move(partial[0]);
  for (size_t c = 1; c < num_chunks; ++c) {
    for (const auto& [key, edge] : partial[c]) {
      EdgeStats& merged = stats[key];
      merged.common_blocks += edge.common_blocks;
      merged.arcs += edge.arcs;
    }
    partial[c].clear();
  }
  result.input_edges = stats.size();

  std::vector<WeightedEdge> edges;
  edges.reserve(stats.size());
  const double nb = static_cast<double>(num_blocks);
  for (const auto& [key, edge] : stats) {
    const data::PairId pair{static_cast<uint32_t>(key >> 32),
                            static_cast<uint32_t>(key & 0xffffffffu)};
    const double cbs = edge.common_blocks;
    const double br = r_blocks[pair.r];
    const double bs = s_blocks[pair.s];
    double weight = 0.0;
    switch (config.weighting) {
      case EdgeWeighting::kCbs:
        weight = cbs;
        break;
      case EdgeWeighting::kJs: {
        const double denom = br + bs - cbs;
        weight = denom <= 0.0 ? 1.0 : cbs / denom;
        break;
      }
      case EdgeWeighting::kEcbs:
        weight = cbs * std::log10(nb / br) * std::log10(nb / bs);
        break;
      case EdgeWeighting::kArcs:
        weight = edge.arcs;
        break;
      case EdgeWeighting::kChiSquare: {
        // 2x2 contingency of block membership (BLAST): does r's block list
        // co-occur with s's block list more often than independence predicts?
        const double o11 = cbs;
        const double o12 = br - cbs;
        const double o21 = bs - cbs;
        const double o22 = std::max(0.0, nb - br - bs + cbs);
        const double row1 = o11 + o12, row2 = o21 + o22;
        const double col1 = o11 + o21, col2 = o12 + o22;
        const double denom = row1 * row2 * col1 * col2;
        const double det = o11 * o22 - o12 * o21;
        weight = denom <= 0.0 ? 0.0 : nb * det * det / denom;
        break;
      }
    }
    edges.push_back({pair, weight});
  }

  switch (config.pruning) {
    case PruningScheme::kWep: {
      double total = 0.0;
      for (const WeightedEdge& e : edges) total += e.weight;
      const double mean = total / static_cast<double>(edges.size());
      std::vector<WeightedEdge> kept;
      for (const WeightedEdge& e : edges) {
        if (e.weight >= mean) kept.push_back(e);
      }
      result.edges = std::move(kept);
      break;
    }
    case PruningScheme::kCep: {
      // Budget: half the total block cardinalities (JedAI's K).
      const size_t k = std::max<size_t>(
          1, collection.TotalRecordAssignments() / 2);
      SortEdges(edges);
      if (edges.size() > k) edges.resize(k);
      result.edges = std::move(edges);
      break;
    }
    case PruningScheme::kWnp:
    case PruningScheme::kCnp: {
      // Node-centric: each record judges its incident edges; an edge
      // survives if either endpoint keeps it (redundancy-positive union).
      std::vector<std::vector<size_t>> r_incident(collection.r_size);
      std::vector<std::vector<size_t>> s_incident(collection.s_size);
      for (size_t i = 0; i < edges.size(); ++i) {
        r_incident[edges[i].pair.r].push_back(i);
        s_incident[edges[i].pair.s].push_back(i);
      }
      std::vector<char> keep(edges.size(), 0);
      auto process = [&](const std::vector<std::vector<size_t>>& incident) {
        for (const auto& list : incident) {
          if (list.empty()) continue;
          if (config.pruning == PruningScheme::kWnp) {
            double mean = 0.0;
            for (const size_t i : list) mean += edges[i].weight;
            mean /= static_cast<double>(list.size());
            for (const size_t i : list) {
              if (edges[i].weight >= mean) keep[i] = 1;
            }
          } else {
            // CNP: per-node top-k, k = average block participation.
            const size_t k = std::max<size_t>(
                1, collection.TotalRecordAssignments() /
                       std::max<size_t>(1, collection.r_size + collection.s_size));
            std::vector<size_t> order(list);
            std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
              if (edges[a].weight != edges[b].weight) {
                return edges[a].weight > edges[b].weight;
              }
              return edges[a].pair.Key() < edges[b].pair.Key();
            });
            for (size_t j = 0; j < order.size() && j < k; ++j) keep[order[j]] = 1;
          }
        }
      };
      process(r_incident);
      process(s_incident);
      std::vector<WeightedEdge> kept;
      for (size_t i = 0; i < edges.size(); ++i) {
        if (keep[i]) kept.push_back(edges[i]);
      }
      result.edges = std::move(kept);
      break;
    }
  }
  SortEdges(result.edges);
  return result;
}

}  // namespace dial::baselines
