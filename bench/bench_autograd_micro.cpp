// Substrate microbenchmarks: forward/backward cost of the autograd kernels
// that dominate DIAL training (matmul chains, transformer layers, the
// contrastive loss graph). Each case is timed as best-of-N wall time per
// call; CI's bench-smoke job archives the records as BENCH_autograd.json.

#include <cstdio>
#include <string>
#include <vector>

#include "autograd/optim.h"
#include "autograd/ops.h"
#include "bench_common.h"
#include "nn/transformer.h"

namespace {

using dial::autograd::Tape;
using dial::autograd::Var;

/// Stores each call's result so the timed work cannot be optimized away.
volatile float g_sink = 0.0f;

dial::nn::TransformerConfig EncoderConfig() {
  dial::nn::TransformerConfig config;
  config.vocab_size = 2048;
  config.dim = 32;
  config.num_layers = 2;
  config.num_heads = 4;
  config.ffn_dim = 64;
  config.max_positions = 64;
  return config;
}

/// loss = mean((A B)^2), then its gradients into a and b.
void MatMulForwardBackward(dial::autograd::Parameter& a,
                           dial::autograd::Parameter& b) {
  a.ZeroGrad();
  b.ZeroGrad();
  Tape tape;
  Var loss = dial::autograd::MeanAll(
      dial::autograd::Square(dial::autograd::MatMul(tape.Leaf(&a), tape.Leaf(&b))));
  tape.Backward(loss);
  g_sink = a.grad.data()[0];
}

/// The blocker committee's contrastive loss over b positive and b negative
/// pairs, one encoder layer u, then its gradient into u.
void ContrastiveLossGraph(dial::autograd::Parameter& u, size_t b,
                          const dial::la::Matrix& pr, const dial::la::Matrix& ps,
                          const dial::la::Matrix& nr, const dial::la::Matrix& ns) {
  u.ZeroGrad();
  Tape tape;
  Var w = tape.Leaf(&u);
  auto enc = [&](const dial::la::Matrix& m) {
    return dial::autograd::NormalizeRows(
        dial::autograd::Tanh(dial::autograd::MatMul(tape.Constant(m), w)));
  };
  Var p_r = enc(pr), p_s = enc(ps), n_r = enc(nr), n_s = enc(ns);
  Var d_pos = dial::autograd::RowwiseSquaredDistance(p_r, p_s);
  Var d_sr = dial::autograd::PairwiseSquaredDistance(p_s, n_r);
  Var d_rs = dial::autograd::PairwiseSquaredDistance(p_r, n_s);
  Var d_rr = dial::autograd::RowwiseSquaredDistance(n_r, n_s);
  Var shared = dial::autograd::TileRows(
      dial::autograd::Transpose(dial::autograd::ScalarMul(d_rr, -4.0f)), b);
  Var terms = dial::autograd::ConcatCols(
      {dial::autograd::ScalarMul(d_pos, -4.0f),
       dial::autograd::ScalarMul(d_sr, -4.0f),
       dial::autograd::ScalarMul(d_rs, -4.0f), shared});
  Var loss = dial::autograd::MeanAll(dial::autograd::Add(
      dial::autograd::LogSumExpRows(terms), dial::autograd::ScalarMul(d_pos, 4.0f)));
  tape.Backward(loss);
  g_sink = u.grad.data()[0];
}

}  // namespace

int main(int argc, char** argv) {
  dial::util::FlagSet flags;
  int64_t* reps = flags.AddInt("reps", 5, "repetitions (best-of)");
  std::string* json_out = flags.AddString(
      "json_out", "", "also write machine-readable records (JSON array) here");
  flags.Parse(argc, argv);
  const size_t n_reps = static_cast<size_t>(*reps);

  dial::bench::PrintHeader("Autograd micro: tape forward/backward per call",
                           "runtime substrate of Table 9 — not a paper table");
  std::printf("us/call = best of %zu reps\n\n", n_reps);
  dial::util::TablePrinter table({"case", "size", "us/call"});
  dial::bench::BenchJsonWriter json;
  const auto record = [&](const std::string& name, size_t size, double us,
                          const dial::util::WallTimer& timer) {
    table.AddRow({name, std::to_string(size), dial::util::TablePrinter::Num(us, 1)});
    json.Add("autograd_micro", {{"case", name}, {"size", std::to_string(size)}},
             {{"us_per_call", us}}, timer.Seconds() * 1000.0);
  };

  for (const size_t n : {32u, 64u, 128u}) {
    dial::util::WallTimer timer;
    dial::util::Rng rng(1);
    dial::autograd::Parameter a("a", n, n), b("b", n, n);
    a.value.RandNormal(rng, 0.1f);
    b.value.RandNormal(rng, 0.1f);
    const double us =
        dial::bench::BestUsPerCall(n_reps, [&] { MatMulForwardBackward(a, b); });
    record("matmul_forward_backward", n, us, timer);
  }

  for (const size_t len : {16u, 28u, 60u}) {
    dial::util::WallTimer timer;
    dial::util::Rng rng(2);
    dial::nn::TransformerEncoder encoder("enc", EncoderConfig(), rng);
    std::vector<int> ids(len), segments(len, 0);
    for (size_t i = 0; i < len; ++i) ids[i] = 5 + static_cast<int>(i % 100);
    const double us = dial::bench::BestUsPerCall(n_reps, [&] {
      Tape tape;
      dial::nn::ForwardContext ctx{&tape, &rng, false};
      g_sink = encoder.Forward(ctx, ids, segments).value().data()[0];
    });
    record("transformer_forward", len, us, timer);
  }

  {
    dial::util::WallTimer timer;
    dial::util::Rng rng(3);
    dial::nn::TransformerEncoder encoder("enc", EncoderConfig(), rng);
    dial::nn::Linear probe("probe", 32, 1, rng);
    std::vector<dial::autograd::Parameter*> params = encoder.Parameters();
    for (auto* p : probe.Parameters()) params.push_back(p);
    dial::autograd::AdamW optimizer({{params, 1e-3f}});
    std::vector<int> ids(48), segments(48, 0);
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = 5 + static_cast<int>(i % 100);
    const double us = dial::bench::BestUsPerCall(n_reps, [&] {
      Tape tape;
      dial::nn::ForwardContext ctx{&tape, &rng, true};
      Var h = encoder.Forward(ctx, ids, segments);
      Var logits = probe.Forward(ctx, dial::autograd::SliceRows(h, 0, 1));
      Var loss = dial::autograd::BceWithLogits(logits, {1.0f});
      optimizer.ZeroGrad();
      tape.Backward(loss);
      optimizer.Step();
      g_sink = loss.scalar();
    });
    record("transformer_train_step", ids.size(), us, timer);
  }

  for (const size_t b : {8u, 16u}) {
    dial::util::WallTimer timer;
    dial::util::Rng rng(4);
    dial::autograd::Parameter u("u", 32, 32);
    u.value.RandNormal(rng, 0.2f);
    dial::la::Matrix pr(b, 32), ps(b, 32), nr(b, 32), ns(b, 32);
    pr.RandNormal(rng, 1.0f);
    ps.RandNormal(rng, 1.0f);
    nr.RandNormal(rng, 1.0f);
    ns.RandNormal(rng, 1.0f);
    const double us = dial::bench::BestUsPerCall(
        n_reps, [&] { ContrastiveLossGraph(u, b, pr, ps, nr, ns); });
    record("contrastive_loss_graph", b, us, timer);
  }

  std::printf("%s", table.ToString().c_str());
  return json.WriteTo(*json_out) ? 0 : 1;
}
