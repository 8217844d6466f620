// dialbench — the workload program behind bench/dialbench/run.py (see the
// README there). One process runs one workload end to end and prints one
// JSON result object as its last stdout line.
//
//   dialbench --prepare --prepared=DIR
//   dialbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --prepared=DIR --serve_bin=PATH --trace_out=FILE
//
// Workloads: al_smoke, serve_match, serve_topk_churn, ibc_flat, ibc_ivfpq.
// An untraced run reports the end-to-end metrics. --trace=1 runs the same
// workload with spans recorded around calls into each layer's public
// functions, reports the per-layer metrics plus its own end-to-end numbers
// (prefixed "traced.", so tracing overhead is visible), and writes the
// spans as Chrome trace-event JSON to --trace_out.
//
// Only src/ headers are included (not bench/bench_common.h), so edits to the
// other benches cannot change this benchmark.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/al_loop.h"
#include "core/experiment.h"
#include "core/ibc.h"
#include "data/perturb.h"
#include "data/registry.h"
#include "index/ivfpq_index.h"
#include "la/arch.h"
#include "serve/json.h"
#include "serve/scheduler.h"
#include "serve/serving_bundle.h"
#include "tplm/model_cache.h"
#include "trace.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "wire.h"

#ifndef DIALBENCH_BUILD_TYPE
#define DIALBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using dial::serve::JsonValue;
using dialbench::NowUs;
using dialbench::Timed;
using dialbench::Tracer;

constexpr char kDataset[] = "walmart_amazon";
/// The serving bundle `prepare` trains with dial_serve's default options.
constexpr char kBundleFile[] = "walmart_amazon_smoke.bundle";
/// Set-up is timed this many times before each AL Run() and for each
/// dial_serve process, and once before each IBC call; setup_s is the median.
/// A set-up takes milliseconds, and on a shared host such a short span can
/// read up to 50% slow, so the samples are spread over the whole run.
constexpr size_t kSetupsPerOp = 5;
/// Load generator: one thread, this many connections (sized for 4 cores).
constexpr size_t kConns = 4;
/// A serve run is split over this many fresh dial_serve processes in turn.
/// On a shared 4-vCPU host, servers started seconds apart in one run
/// differed by up to 30% in closed-loop rate, so one process per run would
/// set the run's number.
constexpr size_t kServers = 3;
constexpr double kOpenRateQps = 2000.0;
/// Request ids of the in-process serve pipeline start here, apart from the
/// wire phases' sequence numbers.
constexpr int64_t kInProcessReqBase = 1'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string prepared;
  std::string serve_bin;
  std::string socket_dir;
};

struct Result {
  std::map<std::string, double> metrics;
  /// ops / failed per phase: counts, not metrics.
  std::map<std::string, double> counts;
  /// Raw per-operation / per-window values behind the metrics.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> problems;
  size_t attempted = 0;
  size_t failed = 0;

  void Ops(const std::string& phase, size_t attempted_n, size_t failed_n) {
    attempted += attempted_n;
    failed += failed_n;
    counts[phase + ".ops"] += static_cast<double>(attempted_n);
    counts[phase + ".failed"] += static_cast<double>(failed_n);
    if (failed_n > 0) {
      problems.push_back(phase + ": " + std::to_string(failed_n) + " of " +
                         std::to_string(attempted_n) + " operations failed");
    }
  }

  void Ops(const std::string& phase, const dialbench::PhaseResult& p) {
    Ops(phase, p.sent, p.failed);
  }

  /// An output check: counts as one attempted operation, failed if !ok.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back("check failed: " + what);
    }
  }
};

/// Nearest-rank quantile (0 for an empty sample).
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double SecondsSince(int64_t start_us) {
  return static_cast<double>(NowUs() - start_us) / 1e6;
}

/// The end-to-end metrics every workload reports; a traced run prefixes
/// them with "traced.".
void ReportEndToEnd(const Tracer& tracer, Result& res, const std::vector<double>& setups,
                    double p50_ms, double ops_per_s, double rss_mb) {
  const std::string prefix = tracer.enabled() ? "traced." : "";
  res.samples["setup_s"] = setups;
  res.metrics[prefix + "setup_s"] = Median(setups);
  res.metrics[prefix + "op_p50_ms"] = p50_ms;
  res.metrics[prefix + "ops_per_s"] = ops_per_s;
  res.metrics[prefix + "peak_rss_mb"] = rss_mb;
}

double OwnPeakRssMb() { return dialbench::PeakRssMbOf("self"); }

// ---------------------------------------------------------------------------
// prepare: the inputs every workload reads, built once per binary.
// ---------------------------------------------------------------------------

int Prepare(const std::string& dir) {
  // Train pretrains the smoke-scale TPLM into the model cache
  // (DIAL_CACHE_DIR), where al_smoke's set-up finds it.
  const dial::serve::ServingOptions options;  // dial_serve's defaults
  auto bundle = dial::serve::ServingBundle::Train(options);
  const dial::util::Status saved = bundle->Save(dir + "/" + kBundleFile);
  if (!saved.ok()) {
    std::fprintf(stderr, "saving the serving bundle failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// al_smoke: ActiveLearningLoop::Run at smoke scale, 2 threads.
// ---------------------------------------------------------------------------

void RunAlSmoke(const Args& args, Tracer& tracer, Result& res) {
  const dial::data::Scale scale = dial::data::Scale::kSmoke;
  const dial::core::ExperimentConfig exp_config = dial::core::DefaultExperimentConfig(scale);
  dial::core::AlConfig al = dial::core::DefaultAlConfig(scale, args.seed);
  al.num_threads = 2;

  // Set-up: dataset, vocabulary and pretrained-model cache load, until the
  // loop is constructed.
  std::vector<double> setups;
  dial::core::Experiment exp;
  const auto set_up = [&] {
    for (size_t i = 0; i < kSetupsPerOp; ++i) {
      const int64_t t0 = NowUs();
      exp = dial::core::PrepareExperiment(kDataset, exp_config);
      dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), al);
      tracer.Record("core.al.setup", t0, NowUs());
      setups.push_back(SecondsSince(t0));
      res.Check(exp.pretrain_cache_hit, "pretrained TPLM loads from the prepared cache");
    }
  };

  if (tracer.enabled()) {
    // The set-up's parts, each timed around its own public call.
    dial::data::DatasetBundle bundle;
    res.metrics["data.make_dataset_s"] = Timed(tracer, "data.make_dataset", [&] {
      bundle = dial::data::MakeDataset(kDataset, scale, exp_config.data_seed);
    });
    const std::vector<std::string> corpus = bundle.CorpusLines();
    dial::text::SubwordVocab::Options vocab_options;
    vocab_options.max_vocab = exp_config.tplm.transformer.vocab_size;
    dial::text::SubwordVocab vocab;
    res.metrics["text.vocab_train_s"] = Timed(tracer, "text.vocab_train", [&] {
      vocab = dial::text::SubwordVocab::Train(corpus, vocab_options);
    });
    dial::tplm::TplmConfig tplm_config = exp_config.tplm;
    tplm_config.transformer.vocab_size = vocab.size();
    dial::tplm::TplmModel model("pretrained_tplm", tplm_config,
                                exp_config.data_seed ^ 0x7a7a7a);
    dial::tplm::ModelCache cache = dial::tplm::ModelCache::Default();
    res.metrics["tplm.cache_load_s"] = Timed(tracer, "tplm.cache_load", [&] {
      cache.GetOrPretrain(model, vocab, corpus, exp_config.pretrain,
                          dial::tplm::CorpusFingerprint(corpus));
    });
    res.Check(cache.last_was_hit(), "traced cache load is a hit");
  }

  // The operation: one full Run() of a freshly constructed loop, repeated
  // until the run's time is spent.
  std::vector<double> run_ms, run_rss;
  std::vector<dial::core::AlResult> results;
  const int64_t start = NowUs();
  do {
    set_up();
    dialbench::ResetPeakRss("self");
    dial::core::ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), al);
    const int64_t t0 = NowUs();
    results.push_back(loop.Run());
    tracer.Record("core.al.run", t0, NowUs());
    run_ms.push_back(SecondsSince(t0) * 1e3);
    run_rss.push_back(OwnPeakRssMb());
  } while (SecondsSince(start) < args.seconds - 0.5 * Median(run_ms) / 1e3);
  res.samples["op_ms"] = run_ms;
  res.samples["op_rss_mb"] = run_rss;
  res.Ops("al.run", results.size(), 0);

  const dial::core::AlResult& first = results.front();
  for (const dial::core::AlResult& r : results) {
    res.Check(r.rounds.size() == al.rounds, "AL round count matches the config");
    res.Check(r.labels_used == al.rounds * al.budget_per_round,
              "labels_used = rounds x budget_per_round");
    res.Check(r.final_allpairs.f1 == first.final_allpairs.f1 &&
                  r.final_cand_recall == first.final_cand_recall &&
                  r.final_test.f1 == first.final_test.f1,
              "repeated runs with one seed give identical results");
  }

  ReportEndToEnd(tracer, res, setups, Median(run_ms),
                 static_cast<double>(run_ms.size()) / (Sum(run_ms) / 1e3), Median(run_rss));

  if (tracer.enabled()) {
    // Table 9 phases as Run() reports them, summed over rounds; median over runs.
    auto phase = [&](double dial::core::RoundMetrics::*field) {
      std::vector<double> per_run;
      for (const auto& r : results) {
        double s = 0.0;
        for (const auto& m : r.rounds) s += m.*field;
        per_run.push_back(s);
      }
      return Median(per_run);
    };
    res.metrics["core.al.train_matcher_s"] = phase(&dial::core::RoundMetrics::t_train_matcher);
    res.metrics["core.al.train_committee_s"] =
        phase(&dial::core::RoundMetrics::t_train_committee);
    res.metrics["core.al.embed_s"] = phase(&dial::core::RoundMetrics::t_embed);
    res.metrics["core.al.predict_s"] = phase(&dial::core::RoundMetrics::t_predict);
    res.metrics["core.al.select_s"] = phase(&dial::core::RoundMetrics::t_select);
    res.metrics["core.al.index_build_s"] = phase(&dial::core::RoundMetrics::t_index_build);
    res.metrics["core.al.index_retrieve_s"] =
        phase(&dial::core::RoundMetrics::t_index_retrieve);
    std::vector<double> block_match;
    for (const auto& r : results) block_match.push_back(r.block_match_seconds);
    res.metrics["core.al.block_match_s"] = Median(block_match);
    res.metrics["core.al.cand_recall"] = first.final_cand_recall;
    res.metrics["core.al.allpairs_f1"] = first.final_allpairs.f1;
  }
}

// ---------------------------------------------------------------------------
// ibc_flat / ibc_ivfpq: core::IndexByCommittee on synthetic E(x).
// ---------------------------------------------------------------------------

constexpr size_t kIbcDim = 32;

struct IbcData {
  dial::la::Matrix r;
  dial::la::Matrix s;
  /// (r, s) of every S row that is a noisy copy of an R row.
  std::vector<dial::data::PairId> planted;
};

void NormalizeRow(float* row) {
  double sq = 0.0;
  for (size_t j = 0; j < kIbcDim; ++j) sq += static_cast<double>(row[j]) * row[j];
  const float inv = static_cast<float>(1.0 / std::sqrt(std::max(sq, 1e-12)));
  for (size_t j = 0; j < kIbcDim; ++j) row[j] *= inv;
}

/// Clustered, L2-normalized single-mode embeddings for |R| = |S| = n. Half
/// of S are noisy copies of distinct R rows (the planted duplicates); the
/// rest are fresh draws from the same clusters.
IbcData MakeIbcData(size_t n, uint64_t seed) {
  constexpr size_t kClusters = 64;
  dial::util::Rng rng(seed);
  dial::la::Matrix centers(kClusters, kIbcDim);
  centers.RandNormal(rng, 1.0f);
  auto draw = [&](float* out) {
    const size_t c = rng.UniformInt(kClusters);
    for (size_t j = 0; j < kIbcDim; ++j) {
      out[j] = centers(c, j) + 0.35f * static_cast<float>(rng.Normal());
    }
    NormalizeRow(out);
  };
  IbcData d;
  d.r = dial::la::Matrix(n, kIbcDim);
  d.s = dial::la::Matrix(n, kIbcDim);
  for (size_t i = 0; i < n; ++i) draw(d.r.row(i));
  const std::vector<size_t> sources = rng.SampleWithoutReplacement(n, n / 2);
  for (size_t i = 0; i < n; ++i) {
    float* out = d.s.row(i);
    if (i < sources.size()) {
      const float* src = d.r.row(sources[i]);
      for (size_t j = 0; j < kIbcDim; ++j) {
        out[j] = src[j] + 0.02f * static_cast<float>(rng.Normal());
      }
      NormalizeRow(out);
      d.planted.push_back(dial::data::PairId{static_cast<uint32_t>(sources[i]),
                                             static_cast<uint32_t>(i)});
    } else {
      draw(out);
    }
  }
  return d;
}

dial::la::Matrix FirstRows(const dial::la::Matrix& m, size_t rows) {
  dial::la::Matrix out(rows, m.cols());
  std::copy(m.row(0), m.row(0) + rows * m.cols(), out.row(0));
  return out;
}

bool SameCandidates(const std::vector<dial::core::Candidate>& a,
                    const std::vector<dial::core::Candidate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pair == b[i].pair) ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double PlantedRecall(const IbcData& data, const std::vector<dial::core::Candidate>& cand) {
  std::unordered_map<uint64_t, bool> found;
  for (const auto& p : data.planted) found[p.Key()] = false;
  size_t hits = 0;
  for (const auto& c : cand) {
    auto it = found.find(c.pair.Key());
    if (it != found.end() && !it->second) {
      it->second = true;
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(data.planted.size());
}

void RunIbc(const Args& args, dial::core::IndexBackend backend, size_t n,
            double recall_floor, Tracer& tracer, Result& res) {
  const std::string backend_name = dial::core::IndexBackendName(backend);
  std::vector<double> setups;
  IbcData data;
  std::unique_ptr<dial::core::BlockerCommittee> committee;
  std::unique_ptr<dial::util::ThreadPool> pool;
  const auto set_up = [&] {
    const int64_t t0 = NowUs();
    pool.reset();
    data = MakeIbcData(n, args.seed);
    dial::core::BlockerConfig blocker;
    blocker.seed = args.seed;
    committee = std::make_unique<dial::core::BlockerCommittee>(kIbcDim, blocker);
    pool = std::make_unique<dial::util::ThreadPool>(2);
    tracer.Record("core.ibc.setup", t0, NowUs());
    setups.push_back(SecondsSince(t0));
  };
  set_up();

  dial::core::IbcConfig config;
  config.k_neighbors = 3;
  config.backend = backend;

  {  // Output check: pooled and inline blocking agree on a 2 000-row slice.
    constexpr size_t kSlice = 2000;
    const dial::la::Matrix r = FirstRows(data.r, kSlice);
    const dial::la::Matrix s = FirstRows(data.s, kSlice);
    dial::core::IbcConfig slice_config = config;
    slice_config.cand_size = 3 * kSlice;
    const auto pooled =
        dial::core::IndexByCommittee(*committee, r, s, slice_config, pool.get());
    const auto inline_cand =
        dial::core::IndexByCommittee(*committee, r, s, slice_config, nullptr);
    res.Check(SameCandidates(pooled, inline_cand),
              backend_name + " candidates with the pool equal inline candidates");
  }

  // The operation: one pooled IndexByCommittee call over all of R and S,
  // each after its own set-up (the first uses the slice check's).
  config.cand_size = 3 * n;
  std::vector<double> call_ms, call_rss;
  std::vector<dial::core::Candidate> first;
  const int64_t start = NowUs();
  while (call_ms.size() < 3 ||
         SecondsSince(start) < args.seconds - 0.5 * Median(call_ms) / 1e3) {
    if (!call_ms.empty()) set_up();
    dialbench::ResetPeakRss("self");
    const int64_t t0 = NowUs();
    auto cand = dial::core::IndexByCommittee(*committee, data.r, data.s, config, pool.get());
    tracer.Record("core.ibc.index_by_committee", t0, NowUs());
    call_ms.push_back(SecondsSince(t0) * 1e3);
    call_rss.push_back(OwnPeakRssMb());
    if (first.empty()) {
      first = std::move(cand);
    } else {
      res.Check(SameCandidates(cand, first),
                "repeated set-ups and IBC calls give identical candidates");
    }
  }
  res.Ops("ibc.call", call_ms.size(), 0);
  res.samples["op_ms"] = call_ms;
  res.samples["op_rss_mb"] = call_rss;
  const double recall = PlantedRecall(data, first);
  res.Check(recall >= recall_floor,
            backend_name + " planted recall " + std::to_string(recall) + " >= " +
                std::to_string(recall_floor));

  res.samples["planted_recall"] = {recall};
  ReportEndToEnd(tracer, res, setups, Median(call_ms),
                 static_cast<double>(n * call_ms.size()) / (Sum(call_ms) / 1e3),
                 Median(call_rss));

  if (!tracer.enabled()) return;
  res.metrics["core.ibc.planted_recall"] = recall;
  // IBC's parts, timed inline around their public calls, then an inline IBC
  // call: what the parts do not cover is the cross-member merge.
  const uint64_t parts = tracer.NewId();
  const int64_t parts_start = NowUs();
  double transform_s = 0.0, build_s = 0.0, search_s = 0.0;
  for (size_t k = 0; k < committee->size(); ++k) {
    dial::la::Matrix enc_r, enc_s;
    transform_s += Timed(tracer, "core.committee.transform", [&] {
      enc_r = committee->member(k).Transform(data.r);
      enc_s = committee->member(k).Transform(data.s);
    }, parts);
    std::unique_ptr<dial::index::VectorIndex> idx;
    build_s += Timed(tracer, "index.build", [&] {
      idx = dial::core::MakeIbcIndex(backend, kIbcDim, dial::index::Metric::kL2, nullptr);
      idx->Add(enc_r);
    }, parts);
    search_s += Timed(tracer, "index.search", [&] {
      const auto batch = idx->Search(enc_s, config.k_neighbors);
      (void)batch;
    }, parts);
  }
  tracer.Record("core.ibc.parts_inline", parts_start, NowUs(), 0, -1, parts);
  const double inline_s = Timed(tracer, "core.ibc.index_by_committee_inline", [&] {
    const auto cand = dial::core::IndexByCommittee(*committee, data.r, data.s, config, nullptr);
    (void)cand;
  });
  res.metrics["core.committee.transform_s"] = transform_s;
  res.metrics["index.build_s"] = build_s;
  res.metrics["index.search_s"] = search_s;
  // Reads negative when the host's speed drifts between the two timings by
  // more than the merge costs.
  res.metrics["core.ibc.merge_s"] = inline_s - transform_s - build_s - search_s;
  const double nd = static_cast<double>(n);
  const double members = static_cast<double>(committee->size());
  if (backend == dial::core::IndexBackend::kFlat) {
    // Computed from sizes: 2 flops per dimension per (query, row) pair.
    const double gflop = 2.0 * nd * nd * kIbcDim * members / 1e9;
    res.metrics["index.flat.scan_gflop"] = gflop;
    res.metrics["index.flat.gflops"] = gflop / search_s;
  } else if (backend == dial::core::IndexBackend::kIvfPq) {
    // Computed from sizes: each query probes nprobe of nlist lists.
    const dial::index::IvfPqIndex::Options ivfpq;
    res.metrics["index.ivfpq.codes_scanned"] =
        members * nd * nd * static_cast<double>(ivfpq.nprobe) /
        static_cast<double>(ivfpq.nlist);
  }
}

// ---------------------------------------------------------------------------
// Serve workloads: a dial_serve child over its unix socket.
// ---------------------------------------------------------------------------

std::string BundlePath(const Args& args) { return args.prepared + "/" + kBundleFile; }

/// Spawns dial_serve and waits for its first ok health reply; the spawn is
/// one set-up sample. Null, with a failed check, when it does not come up.
std::unique_ptr<dialbench::ServeChild> SpawnServer(const Args& args, Tracer& tracer,
                                                   Result& res, std::vector<double>* setups) {
  auto child = std::make_unique<dialbench::ServeChild>();
  const std::string socket = args.socket_dir + "/dialbench_" + std::to_string(::getpid()) +
                             "_" + std::to_string(setups->size()) + ".sock";
  std::string error;
  const int64_t t0 = NowUs();
  if (!child->Start(args.serve_bin, BundlePath(args), socket, &error)) {
    res.Check(false, "dial_serve start: " + error);
    return nullptr;
  }
  tracer.Record("serve.setup", t0, NowUs());
  setups->push_back(child->setup_s());
  return child;
}

/// Load-generator connections to the live server.
bool ConnectAll(const std::string& socket, std::vector<dialbench::Conn>* conns) {
  conns->clear();
  for (size_t c = 0; c < kConns; ++c) {
    conns->emplace_back();
    if (!conns->back().Connect(socket)) return false;
  }
  return true;
}

/// What a serve workload measured over all its servers.
struct ServeRun {
  std::vector<double> setups;
  /// Closed-loop completions per second, per one-second window.
  std::vector<double> rates;
  /// Open-loop p50 / p99 of the workload's request kind, per one-second window.
  std::vector<double> p50, p99;
  /// Per server: peak RSS over its closed loop.
  std::vector<double> rss_mb;
  /// Open-loop latency per request kind, and how late each send left.
  std::vector<double> open_ms[dialbench::kKinds];
  std::vector<double> late_ms;
  /// Scheduler counters summed over the servers' closed and open phases.
  dialbench::WireStats closed, open;
};

/// Called once per server, after connecting and before any other request:
/// a fresh server's client state and the workload's output checks.
using ServerHook = std::function<void(size_t server, dialbench::Conn& conn, uint64_t* seq)>;

/// Runs a serve workload on kServers fresh servers in turn, each started
/// after kSetupsPerOp - 1 spawns that only time set-up. Each server gets an
/// equal share of the run: warm-up (10%), closed loop with kConns
/// connections x 1 outstanding (40%)
/// and open loop at kOpenRateQps over kConns connections (50%), with wire
/// `stats` read around the measured phases. False when a server failed.
bool RunServers(const Args& args, const std::string& phase, const dialbench::MakeFn& make,
                const dialbench::ReplyFn& on_reply, const ServerHook& on_server, int kind,
                Tracer& tracer, Result& res, ServeRun* out) {
  const double share = args.seconds / static_cast<double>(kServers);
  const auto windows = [](double phase_s) {
    return std::max<size_t>(1, static_cast<size_t>(std::lround(phase_s)));
  };
  uint64_t seq = 0;
  for (size_t k = 0; k < kServers; ++k) {
    for (size_t i = 0; i + 1 < kSetupsPerOp; ++i) {
      auto timed_only = SpawnServer(args, tracer, res, &out->setups);
      if (timed_only == nullptr) return false;
      res.Check(timed_only->Stop(), "dial_serve exits 0 after shutdown");
    }
    auto server = SpawnServer(args, tracer, res, &out->setups);
    if (server == nullptr) return false;
    std::vector<dialbench::Conn> conns;
    if (!ConnectAll(server->socket(), &conns)) {
      res.Check(false, "connect to dial_serve");
      return false;
    }
    on_server(k, conns[0], &seq);
    res.Ops(phase + ".warmup",
            dialbench::RunPhase(conns, 0.1 * share, 0, &seq, make, on_reply, tracer, ""));
    dialbench::WireStats s0, s1, s2;
    bool stats_ok = dialbench::ReadWireStats(conns[0], &s0);
    server->ResetPeakRss();
    const auto closed =
        dialbench::RunPhase(conns, 0.4 * share, 0, &seq, make, on_reply, tracer, "");
    out->rss_mb.push_back(server->PeakRssMb());
    stats_ok = dialbench::ReadWireStats(conns[0], &s1) && stats_ok;
    const auto open = dialbench::RunPhase(conns, 0.5 * share, kOpenRateQps, &seq, make,
                                          on_reply, tracer, "client.open");
    stats_ok = dialbench::ReadWireStats(conns[0], &s2) && stats_ok;
    res.Check(stats_ok, "wire stats op");
    res.Ops(phase + ".closed", closed);
    res.Ops(phase + ".open", open);
    conns.clear();
    res.Check(server->Stop(), "dial_serve exits 0 after shutdown");

    const auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    const std::vector<double> rates = dialbench::WindowRates(closed, windows(0.4 * share));
    const std::vector<double> p50 =
        dialbench::WindowQuantiles(open, kind, 0.5, windows(0.5 * share));
    res.samples["server_ops_per_s"].push_back(Median(rates));
    res.samples["server_p50_ms"].push_back(Median(p50));
    append(&out->rates, rates);
    append(&out->p50, p50);
    append(&out->p99, dialbench::WindowQuantiles(open, kind, 0.99, windows(0.5 * share)));
    for (int kd = 0; kd < dialbench::kKinds; ++kd) append(&out->open_ms[kd], open.latency_ms[kd]);
    append(&out->late_ms, open.late_ms);
    out->closed.Add(s0, s1);
    out->open.Add(s1, s2);
  }
  return true;
}

/// A serve workload's end-to-end numbers: the median one-second window's
/// closed-loop completion rate and open-loop p50, so that a stall moves one
/// window rather than the run, and the median server's peak RSS. The p99
/// (median window) is a per-layer metric of the traced run.
void ReportServe(const Tracer& tracer, const ServeRun& run, Result& res) {
  res.samples["window_ops_per_s"] = run.rates;
  res.samples["window_p50_ms"] = run.p50;
  res.samples["window_p99_ms"] = run.p99;
  ReportEndToEnd(tracer, res, run.setups, Median(run.p50), Median(run.rates),
                 Median(run.rss_mb));
  if (!tracer.enabled()) return;
  res.metrics["client.op_p99_ms"] = Median(run.p99);
  res.metrics["client.gen_late_ms_p99"] = Quantile(run.late_ms, 0.99);
  res.metrics["serve.scheduler.mean_batch_closed"] = run.closed.MeanBatch();
  res.metrics["serve.scheduler.mean_batch_open"] = run.open.MeanBatch();
  res.metrics["serve.scheduler.deadline_flushes"] =
      run.closed.deadline_flushes + run.open.deadline_flushes;
}

std::string MatchLine(uint64_t seq, size_t r, size_t s) {
  return "{\"op\":\"match\",\"id\":\"q" + std::to_string(seq) + "\",\"r\":" +
         std::to_string(r) + ",\"s\":" + std::to_string(s) + "}\n";
}

/// Output check: fixed pairs scored over the socket equal in-process
/// ServingBundle::MatchPairs bit for bit after the %.9g round trip.
void CheckMatchExact(const dial::serve::ServingBundle& bundle, dialbench::Conn& conn,
                     dial::util::Rng& rng, uint64_t* seq, Result& res) {
  constexpr size_t kPairs = 256;
  std::vector<dial::data::PairId> pairs;
  for (size_t i = 0; i < kPairs; ++i) {
    pairs.push_back(dial::data::PairId{
        static_cast<uint32_t>(rng.UniformInt(bundle.num_r_records())),
        static_cast<uint32_t>(rng.UniformInt(bundle.num_s_records()))});
  }
  dial::autograd::InferenceContext ctx;
  const auto expected = bundle.MatchPairs(ctx, pairs);
  res.Check(expected.ok(), "in-process MatchPairs");
  if (!expected.ok()) return;
  size_t failed = 0, mismatched = 0;
  for (size_t i = 0; i < kPairs; ++i) {
    std::string line = MatchLine((*seq)++, pairs[i].r, pairs[i].s);
    line.pop_back();
    std::string reply;
    const bool answered = conn.Call(line, &reply) && dialbench::ReplyOk(reply);
    const size_t prob = reply.find("\"prob\":");
    if (!answered || prob == std::string::npos) {
      ++failed;
      continue;
    }
    const float wire = std::strtof(reply.c_str() + prob + 7, nullptr);
    const float want = expected.value()[i];
    if (std::memcmp(&wire, &want, sizeof(float)) != 0) ++mismatched;
  }
  res.Ops("serve.exact", kPairs, failed);
  res.Check(mismatched == 0, std::to_string(mismatched) +
                                 " wire match scores differ from in-process MatchPairs");
}

void InProcessMatch(const Args& args, const dial::serve::ServingBundle& bundle,
                    double wire_p50_ms, Tracer& tracer, Result& res);

void RunServeMatch(const Args& args, Tracer& tracer, Result& res) {
  auto loaded = dial::serve::ServingBundle::Load(BundlePath(args));
  res.Check(loaded.ok(), "in-process bundle load");
  if (!loaded.ok()) return;
  const dial::serve::ServingBundle& bundle = *loaded.value();

  dial::util::Rng rng(args.seed);
  const size_t nr = bundle.num_r_records(), ns = bundle.num_s_records();
  const dialbench::MakeFn make = [&](uint64_t seq) {
    const size_t r = rng.UniformInt(nr);
    return dialbench::Outgoing{MatchLine(seq, r, rng.UniformInt(ns)), 0};
  };
  const dialbench::ReplyFn ok = [](uint64_t, const std::string& reply) {
    return dialbench::ReplyOk(reply);
  };
  const ServerHook check_first = [&](size_t server, dialbench::Conn& conn, uint64_t* seq) {
    if (server == 0) CheckMatchExact(bundle, conn, rng, seq, res);
  };
  ServeRun run;
  if (!RunServers(args, "serve", make, ok, check_first, 0, tracer, res, &run)) return;
  ReportServe(tracer, run, res);
  if (tracer.enabled()) {
    InProcessMatch(args, bundle, res.metrics["traced.op_p50_ms"], tracer, res);
  }
}

/// Per-request timestamps (steady-clock ns) of the in-process pipeline.
struct PipelineTimes {
  int64_t in = 0, parsed = 0, enqueue = 0, exec = 0, callback = 0, done = 0;
  uint64_t root = 0, batch = 0;
  bool ok = false;
};

/// The serving path without the socket: dial_serve's default Scheduler fed
/// the same kind of request stream at the open-loop rate, each request
/// parsed with ParseJson, scored through ServingBundle::MatchPairs in its
/// batch and rendered with JsonValue::Dump. Plus encode and forward probes.
void InProcessMatch(const Args& args, const dial::serve::ServingBundle& bundle,
                    double wire_p50_ms, Tracer& tracer, Result& res) {
  dial::util::Rng rng(args.seed ^ 0x5eedull);
  const size_t nr = bundle.num_r_records(), ns = bundle.num_s_records();
  auto random_pair = [&] {
    return dial::data::PairId{static_cast<uint32_t>(rng.UniformInt(nr)),
                              static_cast<uint32_t>(rng.UniformInt(ns))};
  };

  std::vector<double> encode_us;
  for (size_t i = 0; i < 1000; ++i) {
    const dial::data::PairId pair = random_pair();
    encode_us.push_back(1e6 * Timed(tracer, "text.encode_pair", [&] {
      const auto seq = bundle.EncodePairById(pair);
      (void)seq;
    }));
  }
  res.metrics["text.encode_pair_us_p50"] = Median(encode_us);

  dial::autograd::InferenceContext ctx;
  for (const size_t batch : {size_t{1}, size_t{8}, size_t{32}}) {
    std::vector<dial::text::EncodedSequence> encoded;
    for (size_t i = 0; i < batch; ++i) encoded.push_back(bundle.EncodePairById(random_pair()));
    std::vector<const dial::text::EncodedSequence*> ptrs;
    for (const auto& e : encoded) ptrs.push_back(&e);
    std::vector<double> us;
    const std::string name = "core.matcher.forward_b" + std::to_string(batch);
    for (size_t rep = 0; rep < 640 / batch + 20; ++rep) {
      us.push_back(1e6 * Timed(tracer, name, [&] {
        const auto probs = bundle.matcher().PredictProbsWith(ctx, ptrs);
        (void)probs;
      }));
    }
    res.metrics["core.matcher.forward_us_b" + std::to_string(batch)] = Median(us);
  }

  const dial::serve::SchedulerOptions options;  // dial_serve's defaults
  const size_t n = static_cast<size_t>(kOpenRateQps * 0.2 * args.seconds);
  std::vector<PipelineTimes> times(n);
  std::vector<std::unique_ptr<dial::autograd::InferenceContext>> contexts;
  for (size_t w = 0; w < options.num_workers; ++w) {
    contexts.push_back(std::make_unique<dial::autograd::InferenceContext>());
  }
  size_t rejected = 0;
  dial::serve::SchedulerStats stats;
  {
    dial::serve::Scheduler scheduler(
        options, [&](size_t worker, std::vector<dial::serve::Scheduler::Pending>&& batch) {
          const int64_t start = dialbench::NowNs();
          const uint64_t batch_id = tracer.NewId();
          std::vector<dial::data::PairId> pairs;
          for (const auto& p : batch) {
            PipelineTimes& t = times[std::stoull(p.request.id)];
            t.enqueue = p.enqueue_us * 1000;
            t.exec = start;
            t.batch = batch_id;
            pairs.push_back(dial::data::PairId{static_cast<uint32_t>(p.request.r_id),
                                               static_cast<uint32_t>(p.request.s_id)});
          }
          const int64_t m0 = NowUs();
          const auto probs = bundle.MatchPairs(*contexts[worker], pairs);
          tracer.Record("serve.bundle.match_pairs", m0, NowUs(), batch_id);
          for (size_t j = 0; j < batch.size(); ++j) {
            dial::serve::ServeResponse response;
            response.id = batch[j].request.id;
            response.batch_size = batch.size();
            if (probs.ok()) {
              response.prob = probs.value()[j];
            } else {
              response.status = probs.status();
            }
            batch[j].callback(std::move(response));
          }
          tracer.Record("serve.scheduler.batch", start / 1000, NowUs(), 0, -1, batch_id);
        });
    const int64_t start = dialbench::NowNs();
    for (size_t i = 0; i < n; ++i) {
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / kOpenRateQps);
      const int64_t wait = due - dialbench::NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const dial::data::PairId pair = random_pair();
      const std::string line =
          "{\"op\":\"match\",\"id\":\"" + std::to_string(i) + "\",\"r\":" +
          std::to_string(pair.r) + ",\"s\":" + std::to_string(pair.s) + "}";
      PipelineTimes& t = times[i];
      t.root = tracer.NewId();
      t.in = dialbench::NowNs();
      const auto parsed = dial::serve::ParseJson(line);
      dial::serve::ServeRequest request;
      request.id = parsed.value().GetString("id", "");
      request.r_id = static_cast<int64_t>(parsed.value().GetNumber("r", -1));
      request.s_id = static_cast<int64_t>(parsed.value().GetNumber("s", -1));
      t.parsed = dialbench::NowNs();
      const int64_t req = kInProcessReqBase + static_cast<int64_t>(i);
      tracer.Record("serve.json.parse", t.in / 1000, t.parsed / 1000, t.root, req);
      const bool accepted = scheduler.Submit(
          std::move(request), [&times, &tracer, i, req](dial::serve::ServeResponse response) {
            PipelineTimes& pt = times[i];
            pt.callback = dialbench::NowNs();
            JsonValue out = JsonValue::Object();
            out.Set("id", JsonValue::Str(response.id));
            out.Set("status", JsonValue::Str(response.status.ok() ? "ok" : "error"));
            out.Set("batch_size",
                    JsonValue::Number(static_cast<double>(response.batch_size)));
            out.Set("prob", JsonValue::Number(response.prob));
            const std::string rendered = out.Dump();
            pt.done = dialbench::NowNs();
            pt.ok = response.status.ok() && !rendered.empty();
            tracer.Record("serve.scheduler.queue_wait", pt.enqueue / 1000, pt.exec / 1000,
                          pt.root, req);
            tracer.Record("serve.scheduler.exec", pt.exec / 1000, pt.callback / 1000,
                          pt.batch, req);
            tracer.Record("serve.json.dump", pt.callback / 1000, pt.done / 1000, pt.root, req);
            tracer.Record("serve.request", pt.in / 1000, pt.done / 1000, 0, req, pt.root);
          });
      if (!accepted) ++rejected;
    }
    scheduler.Drain();
    stats = scheduler.stats();
  }

  size_t failed = rejected;
  std::vector<double> parse, dump, queue_wait, exec, latency;
  for (const PipelineTimes& t : times) {
    if (!t.ok) {
      ++failed;
      continue;
    }
    parse.push_back(static_cast<double>(t.parsed - t.in) / 1e3);
    dump.push_back(static_cast<double>(t.done - t.callback) / 1e3);
    queue_wait.push_back(static_cast<double>(t.exec - t.enqueue) / 1e3);
    exec.push_back(static_cast<double>(t.callback - t.exec) / 1e3);
    latency.push_back(static_cast<double>(t.done - t.in) / 1e3);
  }
  res.Ops("serve.inprocess", n, std::min(failed, n));
  res.metrics["serve.json.parse_us_p50"] = Median(parse);
  res.metrics["serve.json.dump_us_p50"] = Median(dump);
  res.metrics["serve.scheduler.queue_wait_us_p50"] = Median(queue_wait);
  res.metrics["serve.scheduler.queue_wait_us_p99"] = Quantile(queue_wait, 0.99);
  res.metrics["serve.scheduler.exec_us_p50"] = Median(exec);
  res.metrics["serve.scheduler.exec_us_p99"] = Quantile(exec, 0.99);
  res.metrics["serve.scheduler.batch_size_mean"] = stats.mean_batch_size();
  res.metrics["serve.server.wire_us_p50"] = wire_p50_ms * 1e3 - Median(latency);

  // Accounting: a request's stage self times (every span carrying its
  // request id except the request span itself) against its latency.
  const std::vector<dialbench::Span> spans = tracer.spans();
  std::unordered_map<uint64_t, std::vector<const dialbench::Span*>> children;
  for (const auto& sp : spans) {
    if (sp.parent != 0) children[sp.parent].push_back(&sp);
  }
  std::unordered_map<int64_t, std::pair<double, double>> per_request;  // stages, latency
  for (const auto& sp : spans) {
    if (sp.req < kInProcessReqBase) continue;
    auto& acc = per_request[sp.req];
    if (sp.name == "serve.request") {
      acc.second = static_cast<double>(sp.dur());
    } else {
      acc.first += static_cast<double>(Tracer::SelfUs(sp, children));
    }
  }
  std::vector<double> shares;
  for (const auto& [req, acc] : per_request) {
    if (acc.second > 0) shares.push_back(acc.first / acc.second);
  }
  const double share = Median(shares);
  res.metrics["serve.request.accounted_share"] = share;
  res.Check(share >= 0.95, "stage self times cover >= 95% of in-process latency at p50 (" +
                               std::to_string(share) + ")");
}

/// serve_topk_churn's request mix and the client-side record state that
/// keeps every mutation valid and checks topk replies against retires.
class ChurnMix {
 public:
  enum Kind { kTopK = 0, kUpsert = 1, kRetire = 2 };

  ChurnMix(const dial::data::DatasetBundle& data, uint64_t seed)
      : data_(data), rng_(seed), live_(data.r_table.size(), 1),
        inflight_(data.r_table.size(), 0), upserts_sent_(data.r_table.size(), 0) {
    for (size_t s = 0; s < data.s_table.size(); ++s) {
      s_json_.push_back(JsonValue::Str(data.s_table.TextOf(s)).Dump());
    }
  }

  /// 85% topk (k=10, text = a seeded S record), 10% upsert (a seeded
  /// PerturbTokens of an S text), 5% retire. A record never has two
  /// mutations in flight: the scheduler may reorder them across ops.
  dialbench::Outgoing Make(uint64_t seq) {
    const std::string id = "\"id\":\"q" + std::to_string(seq) + "\"";
    const double u = rng_.Uniform();
    if (u >= 0.85) {
      const bool retire = u >= 0.95;
      for (int tries = 0; tries < 16; ++tries) {
        const auto r = static_cast<uint32_t>(rng_.UniformInt(live_.size()));
        if (inflight_[r] || (retire && !live_[r])) continue;
        inflight_[r] = 1;
        sent_[seq] = Sent{retire ? kRetire : kUpsert, r, {}};
        const std::string head = "{\"op\":\"" + std::string(retire ? "retire" : "upsert") +
                                 "\"," + id + ",\"r\":" + std::to_string(r);
        if (retire) return {head + "}\n", kRetire};
        ++upserts_sent_[r];
        return {head + ",\"text\":" + JsonValue::Str(PerturbedSText()).Dump() + "}\n",
                kUpsert};
      }
    }
    // Records whose retire was acknowledged with nothing in flight since:
    // no topk sent now may return them unless an upsert revives them first.
    Sent topk{kTopK, 0, {}};
    for (uint32_t r = 0; r < live_.size(); ++r) {
      if (!live_[r] && !inflight_[r]) topk.dead.emplace_back(r, upserts_sent_[r]);
    }
    sent_[seq] = std::move(topk);
    return {"{\"op\":\"topk\"," + id + ",\"text\":" +
                s_json_[rng_.UniformInt(s_json_.size())] + ",\"k\":10}\n",
            kTopK};
  }

  bool OnReply(uint64_t seq, const std::string& reply) {
    auto it = sent_.find(seq);
    if (it == sent_.end()) return false;
    const Sent sent = std::move(it->second);
    sent_.erase(it);
    const bool ok = dialbench::ReplyOk(reply);
    if (sent.kind != kTopK) {
      inflight_[sent.r] = 0;
      if (ok) live_[sent.r] = sent.kind == kUpsert ? 1 : 0;
      return ok;
    }
    if (!ok) return false;
    auto parsed = dial::serve::ParseJson(reply);
    const JsonValue* hits = parsed.ok() ? parsed.value().Get("neighbors") : nullptr;
    if (hits == nullptr || !hits->is_array()) return false;
    for (const JsonValue& hit : hits->items()) {
      const auto r = static_cast<uint32_t>(hit.GetNumber("r", -1));
      for (const auto& [dead, epoch] : sent.dead) {
        if (dead == r && upserts_sent_[r] == epoch) {
          ++retired_served_;
          return false;
        }
      }
    }
    return true;
  }

  size_t retired_served() const { return retired_served_; }

  /// Forgets the record state for a fresh server; the request stream goes on.
  void ResetRecords() {
    std::fill(live_.begin(), live_.end(), 1);
    std::fill(inflight_.begin(), inflight_.end(), 0);
    std::fill(upserts_sent_.begin(), upserts_sent_.end(), 0);
    sent_.clear();
  }

  std::string PerturbedSText() {
    const std::string& text = data_.s_table.TextOf(rng_.UniformInt(data_.s_table.size()));
    return dial::util::Join(
        dial::data::PerturbTokens(dial::util::Split(text), dial::data::TokenNoise{}, rng_),
        " ");
  }

 private:
  struct Sent {
    Kind kind = kTopK;
    uint32_t r = 0;
    std::vector<std::pair<uint32_t, uint32_t>> dead;  // (record, upserts sent)
  };

  const dial::data::DatasetBundle& data_;
  dial::util::Rng rng_;
  std::vector<std::string> s_json_;
  std::vector<uint8_t> live_;      // as of the last acknowledged mutation
  std::vector<uint8_t> inflight_;  // a mutation is unanswered
  std::vector<uint32_t> upserts_sent_;
  std::unordered_map<uint64_t, Sent> sent_;
  size_t retired_served_ = 0;
};

void InProcessChurn(const Args& args, Tracer& tracer, Result& res);

void RunServeTopkChurn(const Args& args, Tracer& tracer, Result& res) {
  const dial::data::DatasetBundle data =
      dial::data::MakeDataset(kDataset, dial::data::Scale::kSmoke, 1);
  ChurnMix mix(data, args.seed);
  const dialbench::MakeFn make = [&](uint64_t seq) { return mix.Make(seq); };
  const dialbench::ReplyFn check = [&](uint64_t seq, const std::string& reply) {
    return mix.OnReply(seq, reply);
  };
  // A fresh server starts from the bundle as saved: every record live.
  const ServerHook fresh = [&](size_t, dialbench::Conn&, uint64_t*) { mix.ResetRecords(); };
  ServeRun run;
  const bool ran = RunServers(args, "churn", make, check, fresh, ChurnMix::kTopK, tracer, res,
                              &run);
  res.Check(mix.retired_served() == 0,
            std::to_string(mix.retired_served()) +
                " topk replies returned a record retired before they were sent");
  if (!ran) return;
  ReportServe(tracer, run, res);
  if (!tracer.enabled()) return;
  res.metrics["client.upsert_p99_ms"] = Quantile(run.open_ms[ChurnMix::kUpsert], 0.99);
  InProcessChurn(args, tracer, res);
}

/// The topk/upsert/retire layers called directly on an in-process bundle.
void InProcessChurn(const Args& args, Tracer& tracer, Result& res) {
  auto loaded = dial::serve::ServingBundle::Load(BundlePath(args));
  res.Check(loaded.ok(), "in-process bundle load");
  if (!loaded.ok()) return;
  dial::serve::ServingBundle& bundle = *loaded.value();
  const dial::data::DatasetBundle& data = bundle.bundle();
  dial::util::Rng rng(args.seed ^ 0xc4u);
  dial::autograd::InferenceContext ctx;
  auto s_text = [&] {
    return data.s_table.TextOf(rng.UniformInt(data.s_table.size()));
  };
  constexpr size_t kProbes = 500;
  auto time_us = [&](const std::string& name, auto&& fn) {
    return 1e6 * Timed(tracer, name, fn);
  };

  std::vector<double> embed, topk, search;
  for (size_t i = 0; i < kProbes; ++i) {
    const std::string text = s_text();
    embed.push_back(time_us("serve.bundle.embed_texts", [&] {
      const auto e = bundle.EmbedTexts(ctx, {text});
      (void)e;
    }));
    topk.push_back(time_us("serve.bundle.topk", [&] {
      const auto hits = bundle.TopK(ctx, text, 10);
      (void)hits;
    }));
  }
  res.metrics["serve.bundle.embed_us_p50"] = Median(embed);
  res.metrics["serve.bundle.topk_us_p50"] = Median(topk);
  res.metrics["serve.bundle.topk_us_p99"] = Quantile(topk, 0.99);

  {  // A flat index over the bundle's |R| rows, searched one query at a time.
    std::vector<std::string> r_texts, queries;
    for (size_t r = 0; r < data.r_table.size(); ++r) r_texts.push_back(data.r_table.TextOf(r));
    for (size_t i = 0; i < kProbes; ++i) queries.push_back(s_text());
    const dial::la::Matrix emb_r = bundle.EmbedTexts(ctx, r_texts);
    const dial::la::Matrix emb_q = bundle.EmbedTexts(ctx, queries);
    auto idx = dial::core::MakeIbcIndex(dial::core::IndexBackend::kFlat, emb_r.cols(),
                                        dial::index::Metric::kL2, nullptr);
    idx->Add(emb_r);
    for (size_t i = 0; i < kProbes; ++i) {
      dial::la::Matrix q(1, emb_q.cols());
      std::copy(emb_q.row(i), emb_q.row(i) + emb_q.cols(), q.row(0));
      search.push_back(time_us("index.flat.search", [&] {
        const auto hits = idx->Search(q, 10);
        (void)hits;
      }));
    }
    res.metrics["index.flat.search_us_p50"] = Median(search);
  }

  // Mutations in the workload's 2:1 upsert:retire ratio; only live records
  // are retired, so every call is valid.
  std::vector<uint8_t> live(bundle.num_r_records(), 1);
  size_t mutation_errors = 0;
  auto mutate = [&](dial::util::Rng& r_rng, dial::autograd::InferenceContext& mctx,
                    std::vector<double>* upsert_us, std::vector<double>* retire_us) {
    const auto r = static_cast<uint32_t>(r_rng.UniformInt(live.size()));
    if (live[r] && r_rng.Uniform() < 1.0 / 3.0) {
      dial::util::Status status;
      const double us = time_us("serve.bundle.retire", [&] { status = bundle.Retire(r); });
      if (retire_us != nullptr) retire_us->push_back(us);
      mutation_errors += status.ok() ? 0 : 1;
      live[r] = 0;
      return;
    }
    const std::string& base = data.s_table.TextOf(r_rng.UniformInt(data.s_table.size()));
    const std::string text = dial::util::Join(
        dial::data::PerturbTokens(dial::util::Split(base), dial::data::TokenNoise{}, r_rng),
        " ");
    dial::util::Status status;
    const double us =
        time_us("serve.bundle.upsert", [&] { status = bundle.Upsert(mctx, r, text); });
    if (upsert_us != nullptr) upsert_us->push_back(us);
    mutation_errors += status.ok() ? 0 : 1;
    live[r] = 1;
  };
  std::vector<double> upsert, retire;
  for (size_t i = 0; i < 3 * kProbes; ++i) mutate(rng, ctx, &upsert, &retire);
  res.metrics["serve.bundle.upsert_us_p50"] = Median(upsert);
  res.metrics["serve.bundle.upsert_us_p99"] = Quantile(upsert, 0.99);
  res.metrics["serve.bundle.retire_us_p50"] = Median(retire);

  // TopK while a second thread writes at the workload's write rate (15% of
  // the open-loop rate); lock contention = this minus topk_us_p99.
  std::vector<double> topk_writes;
  {
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      dial::util::Rng wrng(args.seed ^ 0x3171u);
      dial::autograd::InferenceContext wctx;
      const auto period = std::chrono::microseconds(
          static_cast<int64_t>(1e6 / (0.15 * kOpenRateQps)));
      auto next = std::chrono::steady_clock::now();
      while (!stop.load()) {
        mutate(wrng, wctx, nullptr, nullptr);
        next += period;
        std::this_thread::sleep_until(next);
      }
    });
    for (size_t i = 0; i < 2 * kProbes; ++i) {
      const std::string text = s_text();
      topk_writes.push_back(time_us("serve.bundle.topk_under_writes", [&] {
        const auto hits = bundle.TopK(ctx, text, 10);
        (void)hits;
      }));
    }
    stop.store(true);
    writer.join();
  }
  res.metrics["serve.bundle.topk_us_p99_writes"] = Quantile(topk_writes, 0.99);
  res.Ops("churn.inprocess",
          embed.size() + topk.size() + search.size() + upsert.size() + retire.size() +
              topk_writes.size(),
          mutation_errors);
}

JsonValue ToJson(const std::map<std::string, double>& values) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, value] : values) out.Set(name, JsonValue::Number(value));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* workload = flags.AddString(
      "workload", "", "al_smoke|serve_match|serve_topk_churn|ibc_flat|ibc_ivfpq");
  int64_t* seed = flags.AddInt("seed", 1, "workload seed: AL seed, request streams, IBC data");
  double* seconds = flags.AddDouble("seconds", 10.0, "measured time per run");
  int64_t* trace = flags.AddInt("trace", 0, "1 = traced run: per-layer metrics + trace file");
  bool* prepare = flags.AddBool("prepare", false, "build the prepared inputs and exit");
  std::string* prepared = flags.AddString(
      "prepared", "", "directory of prepared inputs (model cache + serving bundle)");
  std::string* serve_bin = flags.AddString("serve_bin", "", "dial_serve binary");
  std::string* trace_out = flags.AddString("trace_out", "", "Chrome trace output file");
  std::string* socket_dir =
      flags.AddString("socket_dir", ".", "directory for dial_serve sockets (keep it short)");
  flags.Parse(argc, argv);

  if (prepared->empty()) {
    std::fprintf(stderr, "--prepared is required\n");
    return 2;
  }
  // Every model-cache read and write goes to the prepared directory.
  ::setenv("DIAL_CACHE_DIR", prepared->c_str(), 1);
  if (*prepare) return Prepare(*prepared);

  Args args;
  args.workload = *workload;
  args.seed = static_cast<uint64_t>(*seed);
  args.seconds = *seconds;
  args.prepared = *prepared;
  args.serve_bin = *serve_bin;
  args.socket_dir = *socket_dir;
  Tracer tracer(*trace != 0);
  Result res;
  if (args.workload == "al_smoke") {
    RunAlSmoke(args, tracer, res);
  } else if (args.workload == "serve_match") {
    RunServeMatch(args, tracer, res);
  } else if (args.workload == "serve_topk_churn") {
    RunServeTopkChurn(args, tracer, res);
  } else if (args.workload == "ibc_flat") {
    RunIbc(args, dial::core::IndexBackend::kFlat, 6000, 0.95, tracer, res);
  } else if (args.workload == "ibc_ivfpq") {
    RunIbc(args, dial::core::IndexBackend::kIvfPq, 6000, 0.1, tracer, res);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }

  JsonValue spans = JsonValue::Object();
  if (tracer.enabled()) {
    for (const auto& [name, sum] : tracer.Summarize()) {
      JsonValue s = JsonValue::Object();
      s.Set("count", JsonValue::Number(static_cast<double>(sum.count)));
      s.Set("busy_us", JsonValue::Number(sum.busy_us));
      s.Set("self_us", JsonValue::Number(sum.self_us));
      spans.Set(name, std::move(s));
    }
    const bool written = !trace_out->empty() && tracer.WriteChromeJson(*trace_out, args.workload);
    res.Check(written, "trace file written");
    if (written) {
      size_t events = 0;
      const std::string problem = dialbench::CheckTraceFile(*trace_out, &events);
      res.Check(problem.empty(), "trace file: " + problem);
      res.counts["trace.events"] = static_cast<double>(events);
    }
  }

  JsonValue problems = JsonValue::Array();
  for (const std::string& p : res.problems) problems.Append(JsonValue::Str(p));
  JsonValue provenance = JsonValue::Object();
  provenance.Set("tier", JsonValue::Str(dial::la::arch::TierName(dial::la::arch::ActiveTier())));
  provenance.Set("compiler", JsonValue::Str(__VERSION__));
  provenance.Set("build_type", JsonValue::Str(DIALBENCH_BUILD_TYPE));
  JsonValue out = JsonValue::Object();
  out.Set("workload", JsonValue::Str(args.workload));
  out.Set("correct", JsonValue::Bool(res.failed == 0));
  out.Set("attempted", JsonValue::Number(static_cast<double>(res.attempted)));
  out.Set("failed", JsonValue::Number(static_cast<double>(res.failed)));
  out.Set("metrics", ToJson(res.metrics));
  out.Set("counts", ToJson(res.counts));
  JsonValue samples = JsonValue::Object();
  for (const auto& [name, values] : res.samples) {
    JsonValue list = JsonValue::Array();
    for (const double v : values) list.Append(JsonValue::Number(v));
    samples.Set(name, std::move(list));
  }
  out.Set("samples", std::move(samples));
  out.Set("problems", std::move(problems));
  out.Set("spans", std::move(spans));
  out.Set("provenance", std::move(provenance));
  for (const std::string& p : res.problems) std::fprintf(stderr, "dialbench: %s\n", p.c_str());
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
