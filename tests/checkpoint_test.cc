#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "status_matchers.h"
#include "util/crc32c.h"
#include "util/serialize.h"

namespace dial::core {
namespace {

AlCheckpoint SampleCheckpoint() {
  AlCheckpoint ckpt;
  ckpt.dataset_name = "walmart_amazon";
  ckpt.config_fingerprint = 0xdeadbeefcafeULL;
  ckpt.next_round = 3;
  ckpt.labels_used = 42;
  util::Rng rng(17);
  rng.Next();
  rng.Normal();  // populate the Box-Muller spare
  ckpt.rng_state = rng.GetState();
  ckpt.positives = {{{1, 2}, false}, {{3, 4}, true}};
  ckpt.negatives = {{{5, 6}, false}};
  ckpt.calibration = {{7, 8}, {9, 10}};
  RoundMetrics m;
  m.round = 2;
  m.labels_in_t = 100;
  m.cand_size = 500;
  m.cand_recall = 0.87;
  m.test_prf.precision = 0.9;
  m.test_prf.recall = 0.8;
  m.test_prf.f1 = 0.847;
  m.test_prf.true_positives = 40;
  m.allpairs_prf.f1 = 0.79;
  m.t_train_matcher = 1.25;
  m.t_select = 0.5;
  ckpt.rounds = {m};
  return ckpt;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const AlCheckpoint original = SampleCheckpoint();
  const std::string path = TempPath("ckpt_roundtrip.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, original));

  DIAL_ASSERT_OK_AND_ASSIGN(const AlCheckpoint loaded, LoadAlCheckpoint(path));
  EXPECT_EQ(loaded.dataset_name, original.dataset_name);
  EXPECT_EQ(loaded.config_fingerprint, original.config_fingerprint);
  EXPECT_EQ(loaded.next_round, original.next_round);
  EXPECT_EQ(loaded.labels_used, original.labels_used);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.rng_state.s[i], original.rng_state.s[i]);
  }
  EXPECT_EQ(loaded.rng_state.have_spare, original.rng_state.have_spare);
  EXPECT_DOUBLE_EQ(loaded.rng_state.spare, original.rng_state.spare);
  ASSERT_EQ(loaded.positives.size(), 2u);
  EXPECT_EQ(loaded.positives[1].pair.r, 3u);
  EXPECT_TRUE(loaded.positives[1].pseudo);
  ASSERT_EQ(loaded.negatives.size(), 1u);
  ASSERT_EQ(loaded.calibration.size(), 2u);
  EXPECT_EQ(loaded.calibration[1].s, 10u);
  ASSERT_EQ(loaded.rounds.size(), 1u);
  EXPECT_EQ(loaded.rounds[0].round, 2u);
  EXPECT_DOUBLE_EQ(loaded.rounds[0].cand_recall, 0.87);
  EXPECT_DOUBLE_EQ(loaded.rounds[0].test_prf.f1, 0.847);
  EXPECT_EQ(loaded.rounds[0].test_prf.true_positives, 40u);
  EXPECT_DOUBLE_EQ(loaded.rounds[0].t_train_matcher, 1.25);
}

TEST(Checkpoint, RestoredRngStreamIsBitIdentical) {
  util::Rng source(23);
  for (int i = 0; i < 100; ++i) source.Next();
  source.Normal();
  AlCheckpoint ckpt = SampleCheckpoint();
  ckpt.rng_state = source.GetState();
  const std::string path = TempPath("ckpt_rng.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, ckpt));
  DIAL_ASSERT_OK_AND_ASSIGN(const AlCheckpoint loaded, LoadAlCheckpoint(path));
  util::Rng restored(1);
  restored.SetState(loaded.rng_state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.Next(), source.Next());
  }
  EXPECT_DOUBLE_EQ(restored.Normal(), source.Normal());
}

TEST(Checkpoint, LoadMissingFileFails) {
  AlCheckpoint loaded;
  const util::Status status =
      LoadAlCheckpoint(TempPath("does_not_exist.bin"), &loaded);
  EXPECT_FALSE(status.ok());
}

TEST(Checkpoint, LoadTruncatedFileFails) {
  const std::string path = TempPath("ckpt_trunc.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, SampleCheckpoint()));
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  AlCheckpoint loaded;
  EXPECT_FALSE(LoadAlCheckpoint(path, &loaded).ok());
}

TEST(Checkpoint, LoadRejectsEveryTruncationPoint) {
  // Sweep cut points across the whole artifact (magic, header fields,
  // vector payloads, rng state): every prefix must fail cleanly — the
  // hardened reader returns non-OK instead of crashing or accepting a
  // half-read checkpoint.
  const std::string path = TempPath("ckpt_trunc_sweep.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, SampleCheckpoint()));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 16u);
  const std::string cut_path = TempPath("ckpt_trunc_sweep_cut.bin");
  for (size_t cut = 0; cut < bytes.size();
       cut += std::max<size_t>(1, bytes.size() / 64)) {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    AlCheckpoint loaded;
    EXPECT_FALSE(LoadAlCheckpoint(cut_path, &loaded).ok())
        << "accepted a " << cut << "-byte prefix of " << bytes.size();
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Checkpoint, LoadGarbageMagicFails) {
  const std::string path = TempPath("ckpt_magic.bin");
  std::ofstream out(path, std::ios::binary);
  out << "not a checkpoint at all, definitely";
  out.close();
  AlCheckpoint loaded;
  EXPECT_FALSE(LoadAlCheckpoint(path, &loaded).ok());
}

TEST(Checkpoint, EverySingleBitFlipIsRejected) {
  // The v4 CRC trailer must catch any single corrupted bit anywhere in the
  // artifact — payload, header, or the trailer itself. No repair here: the
  // mutated file must fail to load with kCorruption, every time.
  const std::string path = TempPath("ckpt_flip_src.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, SampleCheckpoint()));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::string bad_path = TempPath("ckpt_flip.bin");
  const size_t step = std::max<size_t>(1, bytes.size() / 128);
  for (size_t i = 0; i < bytes.size(); i += step) {
    std::string mutated = bytes;
    mutated[i] ^= static_cast<char>(1 << (i % 8));
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    AlCheckpoint loaded;
    const util::Status status = LoadAlCheckpoint(bad_path, &loaded);
    ASSERT_FALSE(status.ok()) << "accepted bit flip at byte " << i;
    EXPECT_EQ(status.code(), util::StatusCode::kCorruption) << status.message();
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(Checkpoint, RejectsVersion3CheckpointWithoutTrailer) {
  // Synthesize a v3 checkpoint (the pre-CRC format) from a v4 one by
  // dropping the trailer and patching the header version: only v4 loads.
  const std::string path = TempPath("ckpt_v3_src.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, SampleCheckpoint()));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), util::kCrcTrailerBytes + 8);
  bytes.resize(bytes.size() - util::kCrcTrailerBytes);
  const uint32_t v3 = 3;
  std::memcpy(&bytes[sizeof(uint32_t)], &v3, sizeof(v3));
  const std::string v3_path = TempPath("ckpt_v3.bin");
  std::ofstream out(v3_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  AlCheckpoint loaded;
  EXPECT_EQ(LoadAlCheckpoint(v3_path, &loaded).code(),
            util::StatusCode::kCorruption);
  std::remove(path.c_str());
  std::remove(v3_path.c_str());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(Checkpoint, CraftedIndexCacheTagsAreCorruptionNotAborts) {
  // A checkpoint holding a trained pq index cache, whose section header
  // (u64 member count, u32 backend, u32 metric, u64 dim) is then rewritten
  // with the CRC32C trailer recomputed, so the bytes reach the parser.
  IbcIndexCache cache;
  cache.backend = IndexBackend::kPq;
  cache.dim = 8;
  cache.members.push_back(MakeIbcIndex(IndexBackend::kPq, 8, index::Metric::kL2));
  util::Rng rng(5);
  la::Matrix vectors(64, 8);
  vectors.RandNormal(rng, 1.0f);
  cache.members.back()->Add(vectors);
  const std::string path = TempPath("ckpt_cache_tags.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, SampleCheckpoint(), &cache));
  const std::string bytes = ReadBytes(path);
  // Without a cache the section is just a zero member count before the
  // trailer, so that file's length locates the section in this one.
  const std::string bare_path = TempPath("ckpt_cache_tags_bare.bin");
  DIAL_ASSERT_OK(SaveAlCheckpoint(bare_path, SampleCheckpoint()));
  const size_t backend_at = ReadBytes(bare_path).size() - util::kCrcTrailerBytes;
  const size_t metric_at = backend_at + sizeof(uint32_t);
  uint32_t tag = 0;
  std::memcpy(&tag, &bytes[backend_at], sizeof(tag));
  ASSERT_EQ(tag, static_cast<uint32_t>(IndexBackend::kPq));
  std::memcpy(&tag, &bytes[metric_at], sizeof(tag));
  ASSERT_EQ(tag, 0u);
  {
    AlCheckpoint loaded;
    IbcIndexCache loaded_cache;
    DIAL_ASSERT_OK(LoadAlCheckpoint(path, &loaded, &loaded_cache));
    EXPECT_EQ(loaded_cache.members.size(), 1u);
  }

  const std::string bad_path = TempPath("ckpt_cache_tags_bad.bin");
  const std::pair<size_t, uint32_t> rewrites[] = {
      {metric_at, 1}, {metric_at, 2}, {backend_at, 8}};
  for (const auto& [offset, value] : rewrites) {
    std::string mutated = bytes;
    std::memcpy(&mutated[offset], &value, sizeof(value));
    const size_t payload = mutated.size() - util::kCrcTrailerBytes;
    const uint32_t crc = util::Crc32c(mutated.data(), payload);
    std::memcpy(&mutated[payload + sizeof(uint32_t)], &crc, sizeof(crc));
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    AlCheckpoint loaded;
    IbcIndexCache loaded_cache;
    const util::Status status = LoadAlCheckpoint(bad_path, &loaded, &loaded_cache);
    EXPECT_EQ(status.code(), util::StatusCode::kCorruption)
        << "offset " << offset << " value " << value << ": " << status.ToString();
  }
  std::remove(path.c_str());
  std::remove(bare_path.c_str());
  std::remove(bad_path.c_str());
}

TEST(Checkpoint, FingerprintSensitivity) {
  AlConfig config;
  const uint64_t base = AlConfigFingerprint(config, "walmart_amazon");
  EXPECT_EQ(base, AlConfigFingerprint(config, "walmart_amazon"));
  EXPECT_NE(base, AlConfigFingerprint(config, "abt_buy"));
  AlConfig other = config;
  other.budget_per_round += 1;
  EXPECT_NE(base, AlConfigFingerprint(other, "walmart_amazon"));
  other = config;
  other.selector = SelectorKind::kBadge;
  EXPECT_NE(base, AlConfigFingerprint(other, "walmart_amazon"));
  other = config;
  other.seed ^= 1;
  EXPECT_NE(base, AlConfigFingerprint(other, "walmart_amazon"));
}

// ------------------------------------------------------- loop integration

Experiment& SharedExperiment() {
  static Experiment* exp = [] {
    ExperimentConfig config = DefaultExperimentConfig(data::Scale::kSmoke);
    config.cache_dir = testing::TempDir() + "/dial_checkpoint_cache";
    return new Experiment(PrepareExperiment("walmart_amazon", config));
  }();
  return *exp;
}

AlConfig SmokeAl(uint64_t seed) {
  AlConfig config = DefaultAlConfig(data::Scale::kSmoke, seed);
  config.rounds = 2;
  return config;
}

TEST(CheckpointLoop, ResumeReproducesUninterruptedRun) {
  Experiment& exp = SharedExperiment();
  const AlConfig config = SmokeAl(31);

  // Reference: straight 2-round run.
  ActiveLearningLoop straight(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  const AlResult expected = straight.Run();

  // Interrupted: simulate a crash after round 0 by running a 1-round loop
  // with checkpointing (round 0 is independent of the total round count),
  // then resume under the full 2-round config — the "extend the budget"
  // path, which the fingerprint deliberately allows.
  const std::string path = TempPath("ckpt_loop.bin");
  AlConfig short_config = config;
  short_config.rounds = 1;
  ActiveLearningLoop short_loop(&exp.bundle, &exp.vocab, exp.pretrained.get(),
                                short_config);
  short_loop.SetCheckpointPath(path);
  const AlResult half = short_loop.Run();
  ASSERT_EQ(half.rounds.size(), 1u);

  ActiveLearningLoop resumed(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  DIAL_ASSERT_OK(resumed.RestoreCheckpoint(path));
  const AlResult result = resumed.Run();

  ASSERT_EQ(result.rounds.size(), expected.rounds.size());
  for (size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].labels_in_t, expected.rounds[i].labels_in_t) << i;
    EXPECT_EQ(result.rounds[i].cand_size, expected.rounds[i].cand_size) << i;
    EXPECT_DOUBLE_EQ(result.rounds[i].cand_recall, expected.rounds[i].cand_recall)
        << i;
    EXPECT_DOUBLE_EQ(result.rounds[i].test_prf.f1, expected.rounds[i].test_prf.f1)
        << i;
    EXPECT_DOUBLE_EQ(result.rounds[i].allpairs_prf.f1,
                     expected.rounds[i].allpairs_prf.f1)
        << i;
  }
  EXPECT_EQ(result.labels_used, expected.labels_used);
  std::remove(path.c_str());
}

TEST(CheckpointLoop, RestoreRejectsWrongDataset) {
  Experiment& exp = SharedExperiment();
  const std::string path = TempPath("ckpt_wrong_ds.bin");
  AlCheckpoint ckpt = SampleCheckpoint();
  ckpt.dataset_name = "amazon_google";
  ckpt.next_round = 1;
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, ckpt));
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), SmokeAl(32));
  const util::Status status = loop.RestoreCheckpoint(path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(CheckpointLoop, RestoreRejectsWrongConfig) {
  Experiment& exp = SharedExperiment();
  const std::string path = TempPath("ckpt_wrong_cfg.bin");
  const AlConfig config = SmokeAl(33);
  AlCheckpoint ckpt = SampleCheckpoint();
  ckpt.dataset_name = exp.bundle.name;
  ckpt.next_round = 1;
  ckpt.config_fingerprint = AlConfigFingerprint(config, exp.bundle.name) ^ 0x1;
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, ckpt));
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  EXPECT_FALSE(loop.RestoreCheckpoint(path).ok());
}

TEST(CheckpointLoop, RestoreRejectsFinishedRun) {
  Experiment& exp = SharedExperiment();
  const std::string path = TempPath("ckpt_done.bin");
  const AlConfig config = SmokeAl(34);
  AlCheckpoint ckpt = SampleCheckpoint();
  ckpt.dataset_name = exp.bundle.name;
  ckpt.next_round = static_cast<uint32_t>(config.rounds);  // nothing left
  ckpt.config_fingerprint = AlConfigFingerprint(config, exp.bundle.name);
  DIAL_ASSERT_OK(SaveAlCheckpoint(path, ckpt));
  ActiveLearningLoop loop(&exp.bundle, &exp.vocab, exp.pretrained.get(), config);
  EXPECT_FALSE(loop.RestoreCheckpoint(path).ok());
}

}  // namespace
}  // namespace dial::core
