#ifndef DIAL_BENCH_BENCH_COMMON_H_
#define DIAL_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/rules.h"
#include "core/experiment.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

/// \file
/// Shared plumbing for the paper-table bench harnesses: common flags,
/// experiment caching (one vocab+pretrained model per dataset per process,
/// disk-cached across processes), an AL runner that maps a blocking strategy
/// name to a configured loop, and a machine-readable result sink
/// (`--json_out`) that CI uses to build the BENCH_*.json perf trajectory.

namespace dial::bench {

struct BenchFlags {
  util::FlagSet flags;
  std::string* scale;
  std::string* datasets;  // comma-separated filter; "" = benchmark five
  int64_t* rounds;        // 0 = scale default
  int64_t* seed;
  std::string* json_out;  // "" = human tables only

  explicit BenchFlags(const std::string& default_datasets = "") {
    scale = flags.AddString("scale", "smoke", "smoke|small|medium");
    datasets = flags.AddString("datasets", default_datasets,
                               "comma-separated dataset filter");
    rounds = flags.AddInt("rounds", 0, "AL rounds (0 = scale default)");
    seed = flags.AddInt("seed", 7, "experiment seed");
    json_out = flags.AddString(
        "json_out", "",
        "also write machine-readable records (JSON array) to this path");
  }

  void Parse(int argc, char** argv) { flags.Parse(argc, argv); }

  data::Scale ParsedScale() const {
    return util::CheckFlag(data::ParseScale(*scale));
  }

  std::vector<std::string> DatasetList() const {
    if (datasets->empty()) return data::BenchmarkDatasetNames();
    return util::Split(*datasets, ",");
  }
};

/// Collects one JSON record per measured configuration and writes them as a
/// JSON array of {"bench", "config", "metrics", "wall_ms"} objects — the
/// stable schema CI's bench-smoke job archives (BENCH_index.json), so perf
/// moves across PRs are diffable by machine rather than read off tables.
class BenchJsonWriter {
 public:
  /// Ordered key/value pairs; config values are strings, metrics numeric.
  using Config = std::vector<std::pair<std::string, std::string>>;
  using Metrics = std::vector<std::pair<std::string, double>>;

  void Add(const std::string& bench, const Config& config,
           const Metrics& metrics, double wall_ms) {
    std::string r = "  {\n    \"bench\": " + Quote(bench) + ",\n    \"config\": {";
    for (size_t i = 0; i < config.size(); ++i) {
      r += (i ? ", " : "") + Quote(config[i].first) + ": " + Quote(config[i].second);
    }
    r += "},\n    \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      r += (i ? ", " : "") + Quote(metrics[i].first) + ": " + Num(metrics[i].second);
    }
    r += "},\n    \"wall_ms\": " + Num(wall_ms) + "\n  }";
    records_.push_back(std::move(r));
  }

  size_t size() const { return records_.size(); }

  /// Writes the array to `path`; no-op on an empty path. Returns false (with
  /// a message on stderr) when the file cannot be written.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "json_out: cannot open '%s'\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fputs(records_[i].c_str(), f);
      std::fputs(i + 1 < records_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::printf("wrote %zu bench records to %s\n", records_.size(), path.c_str());
    return true;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += util::StrFormat("\\u%04x", c);
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  /// JSON has no NaN/Inf literals; clamp to null.
  static std::string Num(double v) {
    if (!(v == v) || v > 1e308 || v < -1e308) return "null";
    return util::StrFormat("%.6g", v);
  }

  std::vector<std::string> records_;
};

/// Per-process experiment cache (pretraining also hits the on-disk model
/// cache, so repeated bench binaries stay fast).
inline core::Experiment& GetExperiment(const std::string& dataset, data::Scale scale,
                                       uint64_t data_seed = 1) {
  static std::map<std::string, std::unique_ptr<core::Experiment>>* cache =
      new std::map<std::string, std::unique_ptr<core::Experiment>>();
  const std::string key =
      dataset + "/" + data::ScaleName(scale) + "/" + std::to_string(data_seed);
  auto it = cache->find(key);
  if (it == cache->end()) {
    core::ExperimentConfig config = core::DefaultExperimentConfig(scale);
    config.data_seed = data_seed;
    it = cache
             ->emplace(key, std::make_unique<core::Experiment>(
                                core::PrepareExperiment(dataset, config)))
             .first;
  }
  return *it->second;
}

/// Runs one AL loop with the given blocking strategy over a prepared
/// experiment. `tweak` (optional) adjusts the AlConfig before the run.
template <typename Tweak>
core::AlResult RunStrategy(core::Experiment& exp, data::Scale scale,
                           core::BlockingStrategy blocking, uint64_t seed,
                           int64_t rounds_override, Tweak tweak) {
  core::AlConfig config = core::DefaultAlConfig(scale, seed);
  config.blocking = blocking;
  if (rounds_override > 0) config.rounds = static_cast<size_t>(rounds_override);
  tweak(config);
  core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  if (blocking == core::BlockingStrategy::kFixedExternal) {
    loop.SetExternalCandidates(baselines::RulesCandidates(exp.bundle));
  }
  return loop.Run();
}

inline core::AlResult RunStrategy(core::Experiment& exp, data::Scale scale,
                                  core::BlockingStrategy blocking, uint64_t seed,
                                  int64_t rounds_override) {
  return RunStrategy(exp, scale, blocking, seed, rounds_override,
                     [](core::AlConfig&) {});
}

/// Peak resident set size (VmHWM from /proc/self/status) in bytes; 0 when
/// unavailable (non-Linux). Process-wide high-water mark — monotone over the
/// process lifetime, so benches that compare configurations should either
/// run the memory-light configurations first or record a baseline reading
/// before each phase (bench_scale does both).
inline double PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024.0;
}

inline double PeakRssMb() { return PeakRssBytes() / (1024.0 * 1024.0); }

/// Best-of-`reps` wall microseconds per call. Each rep repeats `fn` until
/// it has run for at least 2 ms, so microsecond calls are timed well above
/// the clock's resolution.
template <typename Fn>
double BestUsPerCall(size_t reps, Fn fn) {
  size_t calls = 1;
  for (;;) {
    util::WallTimer timer;
    for (size_t c = 0; c < calls; ++c) fn();
    if (timer.Seconds() >= 2e-3) break;
    calls *= 2;
  }
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    util::WallTimer timer;
    for (size_t c = 0; c < calls; ++c) fn();
    best = std::min(best, timer.Seconds() * 1e6 / static_cast<double>(calls));
  }
  return best;
}

inline std::string Pct(double fraction, int precision = 1) {
  return util::TablePrinter::Num(100.0 * fraction, precision);
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n(reproduces %s; shapes comparable, absolute values "
              "are CPU-scale — see EXPERIMENTS.md)\n\n",
              title.c_str(), paper_ref.c_str());
}

}  // namespace dial::bench

#endif  // DIAL_BENCH_BENCH_COMMON_H_
