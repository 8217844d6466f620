#include "data/registry.h"

#include <string_view>

#include "data/dirty.h"
#include "data/generators.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dial::data {

namespace {

/// Name prefix of the DeepMatcher-style dirty variant of any dataset.
constexpr std::string_view kDirtyPrefix = "dirty_";

/// Multiplies group counts by the scale factor (at least 8 groups).
size_t Scaled(size_t base, Scale scale) {
  double factor = 1.0;
  switch (scale) {
    case Scale::kSmoke:
      factor = 0.22;
      break;
    case Scale::kSmall:
      factor = 1.0;
      break;
    case Scale::kMedium:
      factor = 2.5;
      break;
  }
  const auto scaled = static_cast<size_t>(static_cast<double>(base) * factor);
  return std::max<size_t>(scaled, 8);
}

}  // namespace

util::StatusOr<Scale> ParseScale(const std::string& text) {
  return util::ParseChoice<Scale>("scale", text,
                                  {{"smoke", Scale::kSmoke},
                                   {"small", Scale::kSmall},
                                   {"medium", Scale::kMedium}});
}

std::string ScaleName(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kSmall:
      return "small";
    case Scale::kMedium:
      return "medium";
  }
  return "?";
}

const std::vector<std::string>& BenchmarkDatasetNames() {
  static const auto* names = new std::vector<std::string>{
      "walmart_amazon", "amazon_google", "dblp_acm", "dblp_scholar", "abt_buy"};
  return *names;
}

const std::vector<std::string>& AllDatasetNames() {
  static const auto* names = new std::vector<std::string>{
      "walmart_amazon", "amazon_google", "dblp_acm",
      "dblp_scholar",   "abt_buy",       "multilingual"};
  return *names;
}

util::Status CheckDatasetName(const std::string& name) {
  std::string_view base = name;
  while (base.rfind(kDirtyPrefix, 0) == 0) base.remove_prefix(kDirtyPrefix.size());
  for (const std::string& known : AllDatasetNames()) {
    if (base == known) return util::Status::OK();
  }
  return util::Status::InvalidArgument(
      "unknown dataset '" + name + "' (expected " +
      util::Join(AllDatasetNames(), "|") + ", or dirty_<name>)");
}

DatasetBundle MakeDataset(const std::string& name, Scale scale, uint64_t seed) {
  // "dirty_<base>": the DeepMatcher-style dirty variant of any structured
  // dataset (attribute values displaced into wrong columns; data/dirty.h).
  if (name.rfind(kDirtyPrefix, 0) == 0) {
    DatasetBundle bundle =
        MakeDataset(name.substr(kDirtyPrefix.size()), scale, seed);
    bundle.name = name;
    DirtyConfig dirty;
    dirty.seed = seed * 104729 + 7;
    MakeDirty(bundle, dirty);
    return bundle;
  }
  if (name == "walmart_amazon") {
    // Shape: |R| << |S|, sparse dups, moderate product dirtiness.
    ProductsConfig config;
    config.families = Scaled(320, scale);
    config.p_matched = 0.16;
    config.p_r_only = 0.10;
    config.p_s_only = 0.70;
    config.extra_s_listing_prob = 0.10;
    config.seed = seed * 7919 + 11;
    return GenerateProducts(name, config);
  }
  if (name == "amazon_google") {
    // Shape: dups ≈ |R|, S ~2.3x R, noisier software/product strings.
    ProductsConfig config;
    config.families = Scaled(200, scale);
    config.p_matched = 0.42;
    config.p_r_only = 0.05;
    config.p_s_only = 0.45;
    config.extra_s_listing_prob = 0.08;
    config.noise.typo_prob = 0.12;
    config.noise.drop_prob = 0.12;
    config.seed = seed * 7919 + 22;
    return GenerateProducts(name, config);
  }
  if (name == "dblp_acm") {
    // Shape: near-1:1 lists, very clean, nearly all matched (F1 ~99 regime).
    CitationsConfig config;
    config.topics = Scaled(110, scale);
    config.p_matched = 0.80;
    config.p_r_only = 0.08;
    config.p_s_only = 0.10;
    config.extra_s_listing_prob = 0.03;
    config.noise.typo_prob = 0.02;
    config.noise.drop_prob = 0.02;
    config.noise.swap_prob = 0.02;
    config.venue_abbrev_prob = 0.5;
    config.author_initials_prob = 0.25;
    config.year_off_by_one_prob = 0.01;
    config.seed = seed * 7919 + 33;
    return GenerateCitations(name, config);
  }
  if (name == "dblp_scholar") {
    // Shape: |S| >> |R|, dirty Scholar entries, many-to-many duplicates.
    CitationsConfig config;
    config.topics = Scaled(260, scale);
    config.p_matched = 0.25;
    config.p_r_only = 0.10;
    config.p_s_only = 0.60;
    config.extra_s_listing_prob = 0.45;
    config.noise.typo_prob = 0.10;
    config.noise.drop_prob = 0.12;
    config.noise.swap_prob = 0.08;
    config.venue_abbrev_prob = 0.7;
    config.author_initials_prob = 0.55;
    config.year_off_by_one_prob = 0.08;
    config.seed = seed * 7919 + 44;
    return GenerateCitations(name, config);
  }
  if (name == "abt_buy") {
    // Shape: ~1:1 textual lists, dups ≈ |R|, long descriptions, model
    // numbers often missing on one side.
    ProductsConfig config;
    config.families = Scaled(110, scale);
    config.p_matched = 0.62;
    config.p_r_only = 0.05;
    config.p_s_only = 0.28;
    config.extra_s_listing_prob = 0.05;
    config.textual = true;
    config.synonym_prob = 0.3;
    config.noise.typo_prob = 0.10;
    config.noise.drop_prob = 0.15;
    config.noise.swap_prob = 0.10;
    config.seed = seed * 7919 + 55;
    return GenerateProducts(name, config);
  }
  if (name == "multilingual") {
    MultilingualConfig config;
    config.num_elements = Scaled(400, scale);
    config.seed = seed * 7919 + 66;
    return GenerateMultilingual(name, config);
  }
  DIAL_LOG_FATAL << "Unknown dataset '" << name << "'";
  return DatasetBundle{};
}

DatasetStats ComputeStats(const DatasetBundle& bundle) {
  DatasetStats stats;
  stats.name = bundle.name;
  stats.r_size = bundle.r_table.size();
  stats.s_size = bundle.s_table.size();
  stats.num_dups = bundle.dups.size();
  stats.dup_rate = bundle.DupRate();
  stats.test_size = bundle.test_pairs.size();
  return stats;
}

}  // namespace dial::data
