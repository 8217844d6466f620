#include "tplm/model_cache.h"

#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "la/kernels.h"
#include "text/vocab.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace dial::tplm {

namespace {
constexpr uint32_t kMagic = 0xd1a17001u;  // "dial tplm"
// v2: CRC32C trailer. A v1 entry fails to open like a corrupt one, which
// the cache treats as a miss: it re-pretrains and rewrites the entry.
constexpr uint32_t kVersion = 2;
}  // namespace

ModelCache::ModelCache(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      DIAL_LOG_WARNING << "model cache disabled, cannot create " << dir_ << ": "
                       << ec.message();
      dir_.clear();
    }
  }
}

ModelCache ModelCache::Default() {
  const char* env = std::getenv("DIAL_CACHE_DIR");
  return ModelCache(env != nullptr ? env : "/tmp/dial_model_cache");
}

std::string ModelCache::KeyPath(const TplmModel& model, const PretrainOptions& options,
                                uint64_t corpus_tag) const {
  // Weights depend on the transformer shape, the MLM sequence length, the
  // pretraining options, the corpus and the build's arithmetic (the two
  // digests) — not on inference-time knobs like the single-mode pooling
  // mix, so those stay out of the key.
  static const uint64_t kPretrainDigest = PretrainDigest();
  uint64_t key = model.config().transformer.Fingerprint();
  key = util::HashCombine(key, model.config().max_single_len);
  key = util::HashCombine(key, options.Fingerprint());
  key = util::HashCombine(key, corpus_tag);
  key = util::HashCombine(key, la::kernels::OutputDigest());
  key = util::HashCombine(key, kPretrainDigest);
  return dir_ + "/tplm_" + util::HexDigest(key) + ".bin";
}

PretrainStats ModelCache::GetOrPretrain(TplmModel& model,
                                        const text::SubwordVocab& vocab,
                                        const std::vector<std::string>& corpus,
                                        const PretrainOptions& options,
                                        uint64_t corpus_tag) {
  last_was_hit_ = false;
  std::string path;
  if (!dir_.empty()) {
    path = KeyPath(model, options, corpus_tag);
    util::BinaryReader reader(path, kMagic, kVersion);
    if (reader.status().ok()) {
      util::Status load = model.Load(reader);
      if (load.ok()) {
        last_was_hit_ = true;
        return PretrainStats{};
      }
      DIAL_LOG_WARNING << "stale model cache entry " << path << ": "
                       << load.ToString();
    }
  }
  PretrainStats stats = Pretrain(model, vocab, corpus, options);
  if (!path.empty()) {
    util::BinaryWriter writer(path, kMagic, kVersion);
    model.Save(writer);
    util::Status st = writer.Finish();
    if (!st.ok()) {
      DIAL_LOG_WARNING << "failed to store model cache entry: " << st.ToString();
    }
  }
  return stats;
}

uint64_t PretrainDigest() {
  const std::vector<std::string> corpus = {
      "apple ipad mini 64gb silver",     "apple ipad air 128gb space gray",
      "sony bravia 55 inch 4k tv",       "samsung galaxy tab s6 lite",
      "logitech mx master 3 mouse",      "logitech k380 bluetooth keyboard",
      "canon eos rebel t7 camera kit",   "nikon d3500 dslr camera",
      "bose quietcomfort 45 headphones", "sony wh 1000xm4 headphones",
      "anker powercore 10000 charger",   "belkin usb c cable 6ft",
      "dell xps 13 laptop 16gb",         "hp envy 13 laptop 8gb",
      "kindle paperwhite 8gb black",     "fitbit charge 5 tracker",
      "garmin forerunner 245 watch",     "sandisk ultra 128gb microsd",
      "seagate 2tb portable drive",      "netgear nighthawk ac1900 router"};
  text::SubwordVocab::Options vocab_options;
  vocab_options.max_vocab = 96;
  vocab_options.min_word_freq = 2;
  const text::SubwordVocab vocab = text::SubwordVocab::Train(corpus, vocab_options);
  TplmConfig config;
  config.transformer.vocab_size = vocab.size();
  config.transformer.max_positions = 24;
  config.transformer.dim = 8;
  config.transformer.num_layers = 1;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 16;
  config.max_single_len = 16;
  config.max_pair_len = 24;
  TplmModel model("digest", config, /*seed=*/5);
  PretrainOptions options;
  options.epochs = 1;
  options.batch_size = 10;
  options.lr = 1e-2f;
  options.pair_epochs = 1;
  options.pair_lr = 1e-2f;
  Pretrain(model, vocab, corpus, options);
  uint64_t h = util::kFnvOffset;
  for (const autograd::Parameter* p : model.Parameters()) {
    h = util::Fnv1a(std::string_view(reinterpret_cast<const char*>(p->value.data()),
                                     p->value.size() * sizeof(float)),
                    h);
  }
  return h;
}

uint64_t CorpusFingerprint(const std::vector<std::string>& corpus) {
  uint64_t h = util::kFnvOffset;
  for (const std::string& line : corpus) {
    h = util::Fnv1a(line, h);
    h = util::HashCombine(h, line.size());
  }
  return h;
}

}  // namespace dial::tplm
