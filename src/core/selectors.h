#ifndef DIAL_CORE_SELECTORS_H_
#define DIAL_CORE_SELECTORS_H_

#include <string>
#include <vector>

#include "core/ibc.h"
#include "la/matrix.h"
#include "util/rng.h"
#include "util/status.h"

/// \file
/// Example selection strategies (Sec. 2.3 and 4.7). All operate on the
/// candidate set produced by the blocker; the AL loop passes in the matcher
/// probabilities (and, for QBC/BADGE, the extra per-pair artifacts).

namespace dial::core {

enum class SelectorKind {
  kRandom,
  kGreedy,       // most similar pairs by candidate distance
  kUncertainty,  // entropy of matcher probability (Eq. 4) — DIAL's default
  kQbc,          // soft disagreement of a bootstrap matcher committee
  kPartition2,   // label p_lc ∪ n_lc (Sec. 2.3.3)
  kPartition4,   // additionally pseudo-label p_hc ∪ n_hc
  kBadge,        // gradient embeddings + k-means++ (Sec. 2.3.4)
  // Extension selectors from the deep-AL literature the paper cites as
  // compatible (Sec. 5.3): "most of these are compatible for use as example
  // selectors in DIAL".
  kCoreset,       // k-center greedy over pair representations ([59])
  kBald,          // mutual information over a committee's probabilities ([22])
  kDiverseBatch,  // uncertainty pre-filter + k-means diversity ([73])
};

/// The selector's SelectorName spelling; InvalidArgument naming every
/// selector otherwise.
util::StatusOr<SelectorKind> ParseSelector(const std::string& text);
std::string SelectorName(SelectorKind kind);

/// All selectors, in enum order (used by the selector benches).
std::vector<SelectorKind> AllSelectors();

/// True if SelectPairs requires `committee_probs` for this kind.
bool SelectorNeedsCommitteeProbs(SelectorKind kind);
/// True if SelectPairs requires `embeddings` for this kind. kBadge expects
/// gradient embeddings; kCoreset/kDiverseBatch expect pair representations.
bool SelectorNeedsEmbeddings(SelectorKind kind);

/// Binary entropy of p (Eq. 4), in nats; 0 at p∈{0,1}.
double BinaryEntropy(double p);

struct SelectionResult {
  /// Indices into the candidate vector to send to the labeler.
  std::vector<size_t> to_label;
  /// Pairs Partition-4 adds to T without consuming budget: (index, label).
  std::vector<std::pair<size_t, bool>> pseudo_labels;
};

/// Selects up to `budget` of `eligible` (indices into `cand`).
/// - `probs` are matcher probabilities aligned with `cand` (required for all
///   kinds except kRandom / kGreedy / kCoreset).
/// - `committee_probs` (per member, aligned with cand) is required for
///   kQbc and kBald (for kBald the members act as posterior samples, as in
///   MC-dropout BALD).
/// - `embeddings` (rows aligned with `eligible`) is required for kBadge
///   (gradient embeddings), kCoreset and kDiverseBatch (representations).
SelectionResult SelectPairs(SelectorKind kind, const std::vector<Candidate>& cand,
                            const std::vector<float>& probs,
                            const std::vector<size_t>& eligible, size_t budget,
                            util::Rng& rng,
                            const std::vector<std::vector<float>>* committee_probs,
                            const la::Matrix* embeddings);

}  // namespace dial::core

#endif  // DIAL_CORE_SELECTORS_H_
