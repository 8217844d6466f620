// Inference-engine microbenchmarks: the tape-free batched forward path vs
// the per-sequence Tape forward on the two pool-facing hot loops — matcher
// PredictProbs over a >= 1k-pair candidate set and single-mode embedding of
// every record — plus the cross-sequence-batching axis (batched vs packs of
// one) and the pooled-thread axis. CI's bench-smoke job archives the records
// as BENCH_infer.json; `speedup_engine` on matcher_predict is the acceptance
// gate for the engine (>= 2x single-thread throughput vs the Tape path).
//
// Inference consumers only run the engine, so the Tape baseline calls the
// layers' differentiable Forward directly, one sequence per Tape (what
// training records, dropout off). Both paths run the same TPLM weights on
// the same encodings and are checked bit-identical before anything is
// timed (the matcher head's parity is pinned in inference_test; the Tape
// baseline runs a head of the same shapes), so the recorded ratio is pure
// bookkeeping + arithmetic-intensity win, not a numerics change.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "autograd/ops.h"
#include "bench_common.h"
#include "core/encodings.h"
#include "core/matcher.h"
#include "data/registry.h"
#include "nn/layers.h"
#include "text/vocab.h"
#include "util/thread_pool.h"

namespace {

/// Best-of-`reps` wall milliseconds.
template <typename Fn>
double BestMs(size_t reps, Fn fn) {
  double best = 1e300;
  for (size_t r = 0; r < reps; ++r) {
    dial::util::WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds() * 1000.0);
  }
  return best;
}

double PerSecond(size_t n, double ms) {
  return ms > 0.0 ? static_cast<double>(n) * 1000.0 / ms : 0.0;
}

/// One Tape forward per sequence through `encode`, a (ctx, seq) -> (1, cols)
/// Var callable; returns the (n, cols) stacked outputs.
template <typename Encode>
dial::la::Matrix TapeForward(const std::vector<const dial::text::EncodedSequence*>& seqs,
                             size_t cols, Encode encode) {
  dial::la::Matrix out(seqs.size(), cols);
  dial::util::Rng rng(1);
  for (size_t i = 0; i < seqs.size(); ++i) {
    dial::autograd::Tape tape;
    dial::nn::ForwardContext ctx{&tape, &rng, /*training=*/false};
    const dial::la::Matrix row = encode(ctx, *seqs[i]).value();
    std::copy(row.row(0), row.row(0) + cols, out.row(i));
  }
  return out;
}

bool BitEqual(const dial::la::Matrix& a, const dial::la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  std::string* scale = flags.AddString("scale", "smoke", "smoke|small|medium");
  int64_t* threads =
      flags.AddInt("threads", 2, "worker threads for the pooled columns");
  int64_t* reps = flags.AddInt("reps", 3, "repetitions (best-of)");
  std::string* json_out = flags.AddString(
      "json_out", "", "also write machine-readable records (JSON array) here");
  flags.Parse(argc, argv);

  size_t n_r = 40;
  size_t n_s = 26;  // 40 x 26 = 1040 pairs >= the 1k acceptance floor
  if (*scale == "small") {
    n_r = 56;
    n_s = 36;
  } else if (*scale == "medium") {
    n_r = 80;
    n_s = 50;
  }
  const size_t n_reps = static_cast<size_t>(*reps);

  dial::bench::PrintHeader(
      "Inference micro: tape-free batched engine vs per-sequence Tape",
      "runtime substrate of Table 9 predict/embed — not a paper table");

  // Realistic record text (the dblp_acm generator), one untrained matcher:
  // throughput depends on shapes, not the weight values.
  const auto bundle =
      dial::data::MakeDataset("dblp_acm", dial::data::Scale::kSmoke, 17);
  const auto vocab = dial::text::SubwordVocab::Train(
      bundle.CorpusLines(), dial::text::SubwordVocab::Options{});
  dial::tplm::TplmConfig config;
  config.transformer.vocab_size = vocab.size();
  dial::core::Matcher matcher(config, dial::core::MatcherConfig{}, 5);

  std::vector<dial::data::PairId> pairs;
  for (uint32_t r = 0; r < n_r && r < bundle.r_table.size(); ++r) {
    for (uint32_t s = 0; s < n_s && s < bundle.s_table.size(); ++s) {
      pairs.push_back({r, s});
    }
  }
  dial::core::PairEncodingCache cache(&bundle, &vocab, config.max_pair_len);
  dial::core::RecordEncodings encodings(bundle, vocab, config.max_single_len);
  std::vector<const dial::text::EncodedSequence*> records;
  for (size_t i = 0; i < encodings.r_size(); ++i) records.push_back(&encodings.R(i));
  for (size_t i = 0; i < encodings.s_size(); ++i) records.push_back(&encodings.S(i));

  std::printf("pairs=%zu records=%zu dim=%zu layers=%zu threads=%zu (best of %zu)\n\n",
              pairs.size(), records.size(), config.transformer.dim,
              config.transformer.num_layers, static_cast<size_t>(*threads),
              n_reps);

  dial::util::ThreadPool pool(static_cast<size_t>(*threads));
  dial::bench::BenchJsonWriter json;

  // Warm the tokenization cache so both paths time pure model forwards.
  matcher.PredictProbs(cache, pairs);
  std::vector<const dial::text::EncodedSequence*> pair_seqs;
  for (const auto& pair : pairs) pair_seqs.push_back(&cache.Get(pair));

  dial::tplm::TplmModel& model = matcher.model();
  const size_t feature_dim = model.pair_feature_dim();
  const size_t dim = config.transformer.dim;
  // Throughput depends on shapes, not weight values: the Tape baseline's
  // head only mirrors the matcher head's shapes.
  dial::util::Rng head_rng(3);
  dial::nn::Linear head_dense("tape_head.dense", feature_dim, dim, head_rng);
  dial::nn::Linear head_out("tape_head.out", dim, 1, head_rng);
  const auto tape_pair_features = [&] {
    return TapeForward(pair_seqs, feature_dim,
                       [&](dial::nn::ForwardContext& ctx,
                           const dial::text::EncodedSequence& seq) {
                         return model.EncodePairFeatures(ctx, seq);
                       });
  };
  const auto tape_predict = [&] {
    return TapeForward(
        pair_seqs, 1,
        [&](dial::nn::ForwardContext& ctx, const dial::text::EncodedSequence& seq) {
          const dial::autograd::Var h = dial::autograd::Tanh(
              head_dense.Forward(ctx, model.EncodePairFeatures(ctx, seq)));
          return head_out.Forward(ctx, h);
        });
  };
  const auto tape_embed = [&] {
    dial::la::Matrix out = TapeForward(
        records, dim,
        [&](dial::nn::ForwardContext& ctx, const dial::text::EncodedSequence& seq) {
          return model.EncodeSingle(ctx, seq);
        });
    dial::la::NormalizeRowsInPlace(out);
    return out;
  };

  // Parity gate: tape and engine must agree bit for bit before timing.
  {
    dial::autograd::InferenceContext ctx;
    DIAL_CHECK(BitEqual(tape_pair_features(),
                        model.EncodePairFeaturesBatch(ctx, pair_seqs)))
        << "tape/engine pair-feature mismatch";
    DIAL_CHECK(BitEqual(tape_embed(), matcher.EmbedSingleMode(records)))
        << "tape/engine single-mode embedding mismatch";
  }

  // ------------------------------------------------- matcher PredictProbs
  {
    dial::util::WallTimer total;
    const double tape_ms = BestMs(n_reps, [&] { tape_predict(); });
    const double engine_ms =
        BestMs(n_reps, [&] { matcher.PredictProbs(cache, pairs); });
    matcher.SetThreadPool(&pool);
    const double engine_pool_ms =
        BestMs(n_reps, [&] { matcher.PredictProbs(cache, pairs); });
    matcher.SetThreadPool(nullptr);

    const double speedup = engine_ms > 0.0 ? tape_ms / engine_ms : 0.0;
    const double pool_speedup =
        engine_pool_ms > 0.0 ? engine_ms / engine_pool_ms : 0.0;
    dial::util::TablePrinter table({"op", "tape ms", "engine ms", "pooled ms",
                                    "pairs/s", "engine vs tape"});
    table.AddRow({"predict_probs", dial::util::TablePrinter::Num(tape_ms, 1),
                  dial::util::TablePrinter::Num(engine_ms, 1),
                  dial::util::TablePrinter::Num(engine_pool_ms, 1),
                  dial::util::TablePrinter::Num(PerSecond(pairs.size(), engine_ms), 0),
                  dial::util::TablePrinter::Num(speedup, 2)});
    std::printf("%s\n", table.ToString().c_str());

    json.Add("infer_micro",
             {{"op", "matcher_predict"},
              {"scale", *scale},
              {"pairs", std::to_string(pairs.size())},
              {"threads", std::to_string(*threads)}},
             {{"tape_ms", tape_ms},
              {"engine_ms", engine_ms},
              {"engine_pool_ms", engine_pool_ms},
              {"pairs_per_s_engine", PerSecond(pairs.size(), engine_ms)},
              {"speedup_engine", speedup},
              {"speedup_pooled", pool_speedup}},
             total.Seconds() * 1000.0);
  }

  // ----------------------------------------- cross-sequence batching axis
  {
    dial::util::WallTimer total;
    const double batched_ms =
        BestMs(n_reps, [&] { matcher.PredictProbs(cache, pairs); });
    std::vector<dial::data::PairId> one(1);
    const double single_ms = BestMs(n_reps, [&] {
      for (const auto& pair : pairs) {
        one[0] = pair;
        matcher.PredictProbs(cache, one);
      }
    });
    const double batch_speedup = batched_ms > 0.0 ? single_ms / batched_ms : 0.0;
    dial::util::TablePrinter table(
        {"op", "one-at-a-time ms", "batched ms", "batch speedup"});
    table.AddRow({"predict_probs", dial::util::TablePrinter::Num(single_ms, 1),
                  dial::util::TablePrinter::Num(batched_ms, 1),
                  dial::util::TablePrinter::Num(batch_speedup, 2)});
    std::printf("%s\n", table.ToString().c_str());

    json.Add("infer_micro",
             {{"op", "batched_vs_single"},
              {"scale", *scale},
              {"pairs", std::to_string(pairs.size())},
              {"threads", std::to_string(*threads)}},
             {{"single_ms", single_ms},
              {"batched_ms", batched_ms},
              {"speedup_batched", batch_speedup}},
             total.Seconds() * 1000.0);
  }

  // ------------------------------------------------- single-mode embedding
  {
    dial::util::WallTimer total;
    const double tape_ms = BestMs(n_reps, [&] { tape_embed(); });
    const double engine_ms =
        BestMs(n_reps, [&] { matcher.EmbedSingleMode(records); });
    matcher.SetThreadPool(&pool);
    const double engine_pool_ms =
        BestMs(n_reps, [&] { matcher.EmbedSingleMode(records); });
    matcher.SetThreadPool(nullptr);

    const double speedup = engine_ms > 0.0 ? tape_ms / engine_ms : 0.0;
    dial::util::TablePrinter table({"op", "tape ms", "engine ms", "pooled ms",
                                    "records/s", "engine vs tape"});
    table.AddRow({"embed_single", dial::util::TablePrinter::Num(tape_ms, 1),
                  dial::util::TablePrinter::Num(engine_ms, 1),
                  dial::util::TablePrinter::Num(engine_pool_ms, 1),
                  dial::util::TablePrinter::Num(PerSecond(records.size(), engine_ms), 0),
                  dial::util::TablePrinter::Num(speedup, 2)});
    std::printf("%s\n", table.ToString().c_str());

    json.Add("infer_micro",
             {{"op", "embed_single_mode"},
              {"scale", *scale},
              {"records", std::to_string(records.size())},
              {"threads", std::to_string(*threads)}},
             {{"tape_ms", tape_ms},
              {"engine_ms", engine_ms},
              {"engine_pool_ms", engine_pool_ms},
              {"records_per_s_engine", PerSecond(records.size(), engine_ms)},
              {"speedup_engine", speedup}},
             total.Seconds() * 1000.0);
  }

  if (!json.WriteTo(*json_out)) return 1;
  return 0;
}
