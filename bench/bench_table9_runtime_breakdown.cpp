// Table 9: wall seconds of each DIAL operation in the final AL round —
// matcher training, committee training (incl. single-mode embedding),
// indexing & retrieval, and selection. `--threads` sizes the AL loop's
// worker pool (AlConfig::num_threads; identical metrics — CI records
// --threads 0 and 2 so the per-phase pooled/inline ratio is on file), and
// `--json_out` archives the breakdown for CI's BENCH_table9_runtime.json
// artifact.
//
// The lifecycle axis: each dataset runs twice, with warm-start index refresh
// on (rounds >= 2 Refresh the previous round's blocker indexes) and off (the
// paper's reconstruct-every-round protocol), and the table adds the
// per-round index build cost under both — the round-2+ speedup that
// motivates VectorIndex::Refresh. `--refresh_json_out` archives those
// records separately (CI's BENCH_refresh.json companion). The predict
// (matcher PredictProbs over cand) and embed (single-mode embedding of R and
// S) columns split out the model-forward share of selection and committee
// training.

#include "bench_common.h"

int main(int argc, char** argv) {
  dial::bench::BenchFlags flags;
  int64_t* threads =
      flags.flags.AddInt("threads", 0, "AL-loop worker threads (0 = inline)");
  std::string* backend =
      flags.flags.AddString("backend", "ivfpq", "blocker index backend");
  std::string* refresh_json_out = flags.flags.AddString(
      "refresh_json_out", "", "write refresh-vs-rebuild records here");
  flags.Parse(argc, argv);
  const auto scale = flags.ParsedScale();
  const auto index_backend =
      dial::util::CheckFlag(dial::core::ParseIndexBackend(*backend));

  dial::bench::PrintHeader("Table 9: per-operation time in the last AL round",
                           "paper Table 9");
  std::vector<std::string> datasets = flags.DatasetList();
  dial::bench::BenchJsonWriter json;
  dial::bench::BenchJsonWriter refresh_json;
  dial::util::TablePrinter out({"Dataset", "refresh",
                                "Train Matcher (s)", "Train Committee (s)",
                                "Index+Retrieve (s)", "Idx build r1 (ms)",
                                "Idx build r2+ (ms)", "Predict (s)",
                                "Embed (s)", "Selection (s)"});
  for (const std::string& dataset : datasets) {
    auto& exp = dial::bench::GetExperiment(dataset, scale);
    double build_r2_rebuild_ms = 0.0;  // refresh=off round-2+ baseline
    for (const bool refresh : {false, true}) {
      dial::util::WallTimer timer;
      const auto result = dial::bench::RunStrategy(
          exp, scale, dial::core::BlockingStrategy::kDial,
          static_cast<uint64_t>(*flags.seed), *flags.rounds,
          [&](dial::core::AlConfig& config) {
            config.num_threads = static_cast<size_t>(*threads);
            config.index_backend = index_backend;
            config.index_refresh = refresh;
          });
      const double wall_ms = timer.Seconds() * 1000.0;
      const auto& last = result.rounds.back();
      // Round-2+ index build cost, averaged (round 1 is always a cold build).
      double build_r1_ms = result.rounds.front().t_index_build * 1000.0;
      double build_r2_ms = 0.0;
      size_t warm_members = 0;
      if (result.rounds.size() > 1) {
        for (size_t r = 1; r < result.rounds.size(); ++r) {
          build_r2_ms += result.rounds[r].t_index_build * 1000.0;
          warm_members += result.rounds[r].index_warm_members;
        }
        build_r2_ms /= static_cast<double>(result.rounds.size() - 1);
      }
      if (!refresh) build_r2_rebuild_ms = build_r2_ms;
      out.AddRow({dataset, refresh ? "on" : "off",
                  dial::util::StrFormat("%.2f", last.t_train_matcher),
                  dial::util::StrFormat("%.2f", last.t_train_committee),
                  dial::util::StrFormat("%.3f", last.t_index_retrieve),
                  dial::util::StrFormat("%.2f", build_r1_ms),
                  dial::util::StrFormat("%.2f", build_r2_ms),
                  dial::util::StrFormat("%.3f", last.t_predict),
                  dial::util::StrFormat("%.3f", last.t_embed),
                  dial::util::StrFormat("%.2f", last.t_select)});
      json.Add("table9_runtime_breakdown",
               {{"dataset", dataset},
                {"scale", *flags.scale},
                {"rounds", std::to_string(result.rounds.size())},
                {"threads", std::to_string(*threads)},
                {"backend", *backend},
                {"refresh", refresh ? "on" : "off"}},
               {{"train_matcher_s", last.t_train_matcher},
                {"train_committee_s", last.t_train_committee},
                {"index_retrieve_s", last.t_index_retrieve},
                {"index_build_round1_ms", build_r1_ms},
                {"index_build_round2_ms", build_r2_ms},
                {"predict_s", last.t_predict},
                {"embed_s", last.t_embed},
                {"select_s", last.t_select},
                {"cand_recall", last.cand_recall},
                {"test_f1", last.test_prf.f1}},
               wall_ms);
      if (refresh) {
        const double speedup =
            build_r2_ms > 0.0 ? build_r2_rebuild_ms / build_r2_ms : 0.0;
        refresh_json.Add(
            "table9_refresh",
            {{"dataset", dataset},
             {"scale", *flags.scale},
             {"backend", *backend},
             {"threads", std::to_string(*threads)}},
            {{"round2_rebuild_ms", build_r2_rebuild_ms},
             {"round2_refresh_ms", build_r2_ms},
             {"round2_speedup", speedup},
             {"warm_members", static_cast<double>(warm_members)}},
            wall_ms);
      }
    }
  }
  std::printf("%s\n", out.ToString().c_str());
  if (!json.WriteTo(*flags.json_out)) return 1;
  if (!refresh_json.WriteTo(*refresh_json_out)) return 1;
  return 0;
}
