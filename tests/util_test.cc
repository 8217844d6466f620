#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "util/crc32c.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#include "status_matchers.h"

namespace dial::util {
namespace {

// ---------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(10), 10u);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformRange(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalHasRoughlyZeroMeanUnitVar) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(19);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithReplacementBounds) {
  Rng rng(23);
  for (const size_t s : rng.SampleWithReplacement(5, 100)) EXPECT_LT(s, 5u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng fork = a.Fork();
  // The fork should not replay the parent's stream.
  Rng b(42);
  b.Next();  // advance past the value consumed by Fork
  int same = 0;
  for (int i = 0; i < 32; ++i) same += (fork.Next() == b.Next());
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------------ strings

TEST(StringUtil, ToLower) { EXPECT_EQ(ToLower("AbC-12"), "abc-12"); }

TEST(StringUtil, SplitBasic) {
  const auto parts = Split("a b  c", " ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitDropsEmpty) {
  EXPECT_TRUE(Split("   ", " ").empty());
  EXPECT_EQ(Split(" x ", " ").size(), 1u);
}

TEST(StringUtil, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("hello", "he"));
}

TEST(StringUtil, LevenshteinKnownValues) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("abc", "abc"), 0u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
}

TEST(StringUtil, LevenshteinSymmetric) {
  EXPECT_EQ(Levenshtein("flaw", "lawn"), Levenshtein("lawn", "flaw"));
}

TEST(StringUtil, NormalizedEditSimilarity) {
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditSimilarity("abc", "xyz"), 0.0);
}

TEST(StringUtil, CharQGrams) {
  const auto grams = CharQGrams("abcd", 3);
  EXPECT_EQ(grams.size(), 2u);
  EXPECT_TRUE(grams.count("abc"));
  EXPECT_TRUE(grams.count("bcd"));
  // Shorter than q: the word itself.
  EXPECT_EQ(CharQGrams("ab", 3).size(), 1u);
  EXPECT_TRUE(CharQGrams("", 3).empty());
}

TEST(StringUtil, Jaccard) {
  std::unordered_set<std::string> a{"x", "y"};
  std::unordered_set<std::string> b{"y", "z"};
  EXPECT_DOUBLE_EQ(Jaccard(a, b), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(Jaccard(a, {}), 0.0);
}

TEST(StringUtil, TokenJaccardAndOverlap) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b c", "b c d"), 0.5);
  EXPECT_EQ(TokenOverlap("a b c", "c b x"), 2u);
  EXPECT_EQ(TokenOverlap("a a a", "a"), 1u);  // distinct overlap
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// -------------------------------------------------------------------- hash

TEST(Hash, PairKeyUnique) {
  EXPECT_NE(PairKey(1, 2), PairKey(2, 1));
  EXPECT_EQ(PairKey(3, 4) >> 32, 3u);
  EXPECT_EQ(PairKey(3, 4) & 0xffffffffu, 4u);
}

TEST(Hash, Fnv1aStable) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
}

TEST(Hash, HexDigestFormat) {
  const std::string hex = HexDigest(0xdeadbeefULL);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.substr(8), "deadbeef");
}

// ------------------------------------------------------------------ status

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesMessage) {
  Status s = Status::NotFound("nope");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: nope");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(7);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::IoError("disk"));
  EXPECT_FALSE(v.ok());
}

TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> v(Status::IoError("disk"));
  EXPECT_DEATH((void)v.value(), "value\\(\\) on error");
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(DIAL_CHECK(false) << "boom", "Check failed");
  EXPECT_DEATH(DIAL_CHECK_EQ(1, 2), "1 vs 2");
}

TEST(Logging, CheckPassesSilently) {
  DIAL_CHECK(true);
  DIAL_CHECK_EQ(3, 3);
  DIAL_CHECK_LT(1, 2);
}

// ------------------------------------------------------------------- flags

TEST(Flags, ParsesAllKinds) {
  FlagSet flags;
  int64_t* i = flags.AddInt("count", 1, "");
  double* d = flags.AddDouble("ratio", 0.5, "");
  bool* b = flags.AddBool("verbose", false, "");
  std::string* s = flags.AddString("name", "x", "");
  const char* argv[] = {"prog", "--count=5", "--ratio", "2.5", "--verbose",
                        "--name=hello"};
  flags.Parse(6, const_cast<char**>(argv));
  EXPECT_EQ(*i, 5);
  EXPECT_DOUBLE_EQ(*d, 2.5);
  EXPECT_TRUE(*b);
  EXPECT_EQ(*s, "hello");
}

TEST(Flags, BooleanNegation) {
  FlagSet flags;
  bool* b = flags.AddBool("feature", true, "");
  const char* argv[] = {"prog", "--no-feature"};
  flags.Parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(*b);
}

TEST(Flags, DefaultsPreserved) {
  FlagSet flags;
  int64_t* i = flags.AddInt("n", 9, "");
  const char* argv[] = {"prog"};
  flags.Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(*i, 9);
}

TEST(FlagsDeathTest, UnknownFlagAborts) {
  // Not an abort: the error and the usage text, then exit status 2.
  FlagSet flags;
  flags.AddInt("n", 9, "");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(flags.Parse(2, const_cast<char**>(argv)),
              testing::ExitedWithCode(2), "Unknown flag --bogus");
}

// ------------------------------------------------------------ table printer

TEST(TablePrinter, RendersAlignedTable) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  const std::string out = table.ToString();
  // All rows share one width per column (header "value" is widest: 5).
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
  // Every line has equal length.
  const auto lines = Split(out, "\n");
  for (const auto& line : lines) EXPECT_EQ(line.size(), lines[0].size());
}

TEST(TablePrinter, MarkdownHasHeaderRule) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  const std::string md = table.ToMarkdown();
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(TablePrinter, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(90.0), "90.0");
}

TEST(TablePrinterDeathTest, ArityMismatchAborts) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"1"}), "Check failed");
}

// --------------------------------------------------------------- serialize

TEST(Serialize, RoundTrip) {
  const std::string path = testing::TempDir() + "/dial_serialize_test.bin";
  {
    BinaryWriter writer(path, 0xabcd1234u, 3);
    writer.WriteU32(7);
    writer.WriteU64(1ull << 40);
    writer.WriteI64(-12);
    writer.WriteF32(2.5f);
    writer.WriteString("hello");
    writer.WriteFloatVector({1.0f, 2.0f, 3.0f});
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, 0xabcd1234u, 3);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.ReadU32(), 7u);
  EXPECT_EQ(reader.ReadU64(), 1ull << 40);
  EXPECT_EQ(reader.ReadI64(), -12);
  EXPECT_FLOAT_EQ(reader.ReadF32(), 2.5f);
  EXPECT_EQ(reader.ReadString(), "hello");
  EXPECT_EQ(reader.ReadFloatVector(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_TRUE(reader.status().ok());
}

TEST(Serialize, EmptyContainersRoundTrip) {
  const std::string path = testing::TempDir() + "/dial_serialize_empty.bin";
  {
    BinaryWriter writer(path, 0xabcd1234u, 1);
    writer.WriteString("");
    writer.WriteFloatVector({});
    writer.WriteString("after");  // empties must not desync the stream
    DIAL_ASSERT_OK(writer.Finish());
  }
  BinaryReader reader(path, 0xabcd1234u, 1);
  DIAL_ASSERT_OK(reader.status());
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_EQ(reader.ReadString(), "after");
  DIAL_EXPECT_OK(reader.status());
}

TEST(Serialize, NonFiniteFloatsRoundTripBitExact) {
  const std::string path = testing::TempDir() + "/dial_serialize_nonfinite.bin";
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  {
    BinaryWriter writer(path, 0xabcd1234u, 1);
    writer.WriteF32(inf);
    writer.WriteF32(-inf);
    writer.WriteF32(qnan);
    writer.WriteF32(-0.0f);
    writer.WriteF64(std::numeric_limits<double>::infinity());
    writer.WriteF64(std::numeric_limits<double>::quiet_NaN());
    writer.WriteFloatVector({inf, qnan, -inf, 0.0f});
    DIAL_ASSERT_OK(writer.Finish());
  }
  BinaryReader reader(path, 0xabcd1234u, 1);
  DIAL_ASSERT_OK(reader.status());
  EXPECT_EQ(reader.ReadF32(), inf);
  EXPECT_EQ(reader.ReadF32(), -inf);
  EXPECT_TRUE(std::isnan(reader.ReadF32()));
  const float neg_zero = reader.ReadF32();
  EXPECT_EQ(neg_zero, 0.0f);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(reader.ReadF64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(reader.ReadF64()));
  const std::vector<float> v = reader.ReadFloatVector();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], inf);
  EXPECT_TRUE(std::isnan(v[1]));
  EXPECT_EQ(v[2], -inf);
  EXPECT_EQ(v[3], 0.0f);
  DIAL_EXPECT_OK(reader.status());
}

TEST(Serialize, OverflowingVectorLengthRejected) {
  const std::string path = testing::TempDir() + "/dial_serialize_overflow.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    // Length whose byte count (n * 4) wraps uint64 to a small value.
    writer.WriteU64((1ull << 62) + 1);
    DIAL_ASSERT_OK(writer.Finish());
  }
  BinaryReader reader(path, 0x1111u, 1);
  DIAL_ASSERT_OK(reader.status());
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(Serialize, U64VectorRoundTripAndBytesWritten) {
  const std::string path = testing::TempDir() + "/dial_serialize_u64vec.bin";
  const std::vector<uint64_t> offsets = {0, 8, 1ull << 33, ~0ull};
  {
    BinaryWriter writer(path, 0x1111u, 1);
    EXPECT_EQ(writer.BytesWritten(), 8u);  // magic + version
    writer.WriteU64Vector(offsets);
    // u64 count + 4 raw u64s.
    EXPECT_EQ(writer.BytesWritten(), 8u + 8u + 4 * 8u);
    writer.WriteZeros(12);  // > one internal chunk, odd alignment
    EXPECT_EQ(writer.BytesWritten(), 8u + 8u + 4 * 8u + 12u);
    writer.WriteU64Vector({});
    DIAL_ASSERT_OK(writer.Finish());
  }
  BinaryReader reader(path, 0x1111u, 1);
  DIAL_ASSERT_OK(reader.status());
  EXPECT_EQ(reader.ReadU64Vector(), offsets);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(reader.ReadU32(), 0u);
  EXPECT_TRUE(reader.ReadU64Vector().empty());
  DIAL_EXPECT_OK(reader.status());
}

TEST(Serialize, OverflowingU64VectorLengthRejected) {
  const std::string path = testing::TempDir() + "/dial_serialize_u64_overflow.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    // n * 8 wraps uint64 to 8: a product check would read one bogus element;
    // the division check must reject the length outright.
    writer.WriteU64((1ull << 61) + 1);
    writer.WriteU64(0xdeadbeefull);
    DIAL_ASSERT_OK(writer.Finish());
  }
  BinaryReader reader(path, 0x1111u, 1);
  DIAL_ASSERT_OK(reader.status());
  EXPECT_TRUE(reader.ReadU64Vector().empty());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(Serialize, BadMagicRejected) {
  const std::string path = testing::TempDir() + "/dial_serialize_magic.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, 0x2222u, 1);
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(Serialize, WrongVersionRejected) {
  const std::string path = testing::TempDir() + "/dial_serialize_ver.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, 0x1111u, 2);
  EXPECT_FALSE(reader.status().ok());
}

TEST(Serialize, TruncationDetected) {
  const std::string path = testing::TempDir() + "/dial_serialize_trunc.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteFloatVector(std::vector<float>(100, 1.0f));
    ASSERT_TRUE(writer.Finish().ok());
  }
  // Truncate the file: the up-front CRC verify fails before any field read.
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(ftruncate(fileno(f), 64), 0);
    fclose(f);
  }
  BinaryReader reader(path, 0x1111u, 1);
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST(Serialize, MissingFileIsNotFound) {
  BinaryReader reader("/nonexistent/dir/file.bin", 0x1u, 1);
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------ CRC trailer

TEST(Crc32c, KnownVectorsAndIncrementalExtend) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);  // the standard check value
  EXPECT_EQ(Crc32c("", 0), 0u);
  const std::string data(1031, '\x7f');  // prime length crosses 8-byte chunks
  uint32_t crc = 0;
  for (size_t i = 0; i < data.size(); i += 13) {
    crc = Crc32cExtend(crc, data.data() + i, std::min<size_t>(13, data.size() - i));
  }
  EXPECT_EQ(crc, Crc32c(data.data(), data.size()));
}

TEST(Serialize, CrcTrailerRoundTripsAndAddsEightBytes) {
  const std::string path = testing::TempDir() + "/dial_crc_checked.bin";
  const std::vector<float> payload(17, 2.5f);
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteFloatVector(payload);
    // Header + u64 length + floats; Finish adds only the trailer.
    const uint64_t body = 8 + 8 + payload.size() * sizeof(float);
    EXPECT_EQ(writer.BytesWritten(), body);
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.BytesWritten(), body + kCrcTrailerBytes);
  }
  BinaryReader reader(path, 0x1111u, 1);
  ASSERT_TRUE(reader.status().ok()) << reader.status().message();
  EXPECT_EQ(reader.RemainingBytes(), 8 + payload.size() * sizeof(float));
  const std::vector<float> got = reader.ReadFloatVector();
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(got, payload);
  std::remove(path.c_str());
}

TEST(Serialize, CrcTrailerRejectsEveryBitFlip) {
  const std::string path = testing::TempDir() + "/dial_crc_flip.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteString("checksummed payload");
    writer.WriteU64(0x0123456789abcdefull);
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes;
  {
    FILE* f = fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char chunk[4096];
    size_t n;
    while ((n = fread(chunk, 1, sizeof(chunk), f)) > 0) bytes.append(chunk, n);
    fclose(f);
  }
  const std::string bad = testing::TempDir() + "/dial_crc_flip_bad.bin";
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= static_cast<char>(1 << (i % 8));
    FILE* f = fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(mutated.data(), 1, mutated.size(), f), mutated.size());
    fclose(f);
    BinaryReader reader(bad, 0x1111u, 1);
    ASSERT_FALSE(reader.status().ok()) << "accepted flip at byte " << i;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(Serialize, RejectsOlderVersionWithoutTrailer) {
  // A pre-CRC artifact: a v1 file with no trailer. A reader of v2 rejects
  // it, and so does a reader of v1 — every version must carry the trailer.
  const std::string path = testing::TempDir() + "/dial_crc_compat.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteU32(7u);
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(ftruncate(fileno(f), 8 + 4), 0);  // drop the trailer
    fclose(f);
  }
  for (const uint32_t version : {2u, 1u}) {
    BinaryReader reader(path, 0x1111u, version);
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption) << version;
  }
  std::remove(path.c_str());
}

TEST(Serialize, DurableFinishSurvivesReload) {
  const std::string path = testing::TempDir() + "/dial_crc_durable.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteString("fsynced");
    ASSERT_TRUE(writer.Finish(/*durable=*/true).ok());
  }
  BinaryReader reader(path, 0x1111u, 1);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.ReadString(), "fsynced");
  std::remove(path.c_str());
}

// -------------------------------------------------------------- thread pool

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(&pool, 100, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineWhenNull) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, 10, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  int count = 0;
  pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) pool.Submit([&] { count++; });
  pool.Wait();
  EXPECT_EQ(count.load(), 500);
}

// ------------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsed) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(timer.Seconds(), 0.0);
  EXPECT_GE(timer.Millis(), 0.0);
  const double before = timer.Seconds();
  timer.Restart();
  EXPECT_LE(timer.Seconds(), before + 1.0);
}

TEST(Timer, AccumulatingTimer) {
  AccumulatingTimer acc;
  acc.Start();
  acc.Stop();
  acc.Start();
  acc.Stop();
  EXPECT_GE(acc.TotalSeconds(), 0.0);
  acc.Reset();
  EXPECT_EQ(acc.TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace dial::util
