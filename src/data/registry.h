#ifndef DIAL_DATA_REGISTRY_H_
#define DIAL_DATA_REGISTRY_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

/// \file
/// Named dataset configurations mirroring Table 1 of the paper, at CPU
/// scales. Names: "walmart_amazon", "amazon_google", "dblp_acm",
/// "dblp_scholar", "abt_buy" (the five benchmarks) and "multilingual".
/// Each preserves its original's *shape*: list-size ratio, duplicate
/// sparsity, dirtiness profile and hard-negative structure (DESIGN.md §2).

namespace dial::data {

enum class Scale {
  kSmoke,   // minimal sizes for unit/integration tests
  kSmall,   // default bench scale
  kMedium,  // closer to paper ratios; slower
};

/// "smoke" | "small" | "medium"; InvalidArgument naming them otherwise.
util::StatusOr<Scale> ParseScale(const std::string& text);
std::string ScaleName(Scale scale);

/// The five benchmark dataset names (Table 1 order).
const std::vector<std::string>& BenchmarkDatasetNames();

/// All names including "multilingual".
const std::vector<std::string>& AllDatasetNames();

/// OK when MakeDataset knows `name`: one of AllDatasetNames(), or
/// "dirty_<name>" for its dirty variant. InvalidArgument naming the
/// accepted names otherwise — how the tools reject a bad --dataset before
/// generating anything.
util::Status CheckDatasetName(const std::string& name);

/// Generates the named dataset. Aborts on unknown name.
DatasetBundle MakeDataset(const std::string& name, Scale scale, uint64_t seed);

/// Table 1 row for a generated bundle.
struct DatasetStats {
  std::string name;
  size_t r_size = 0;
  size_t s_size = 0;
  size_t num_dups = 0;
  double dup_rate = 0.0;
  size_t test_size = 0;
};

DatasetStats ComputeStats(const DatasetBundle& bundle);

}  // namespace dial::data

#endif  // DIAL_DATA_REGISTRY_H_
