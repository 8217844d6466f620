#include "data/record_pack.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/record.h"
#include "status_matchers.h"
#include "util/crc32c.h"
#include "util/serialize.h"

/// Record-pack wire format and reader hardening: round trips (both read
/// modes, bit-identical), the mmap mapping outliving the file, empty packs,
/// and the corruption surface — every truncation length must fail Open with
/// a Status, never parse garbage or crash (the suite runs under ASan/UBSan
/// via the smoke label, so stray reads would be caught, not just wrong).
/// v2 packs end in a CRC32C trailer, so structural-corruption tests patch
/// the checksum after mutating (otherwise the CRC check fires first and the
/// structural validation under test never runs).

namespace dial::data {
namespace {

std::string Path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the v2 CRC trailer after a structural mutation so the mutated
/// bytes reach the structural validation under test instead of being
/// swallowed by the checksum check.
std::string Rechecksum(std::string bytes) {
  const size_t payload = bytes.size() - util::kCrcTrailerBytes;
  const uint32_t crc = util::Crc32c(bytes.data(), payload);
  std::memcpy(&bytes[payload + sizeof(uint32_t)], &crc, sizeof(crc));
  return bytes;
}

/// A small pack with awkward values: empties, embedded NUL and newline,
/// a value long enough to span cache lines.
std::string WriteFixture(const std::string& name) {
  const std::string path = Path(name);
  RecordPackWriter writer(path, {"name", "brand", "price"});
  writer.Add(0, {"alpha one", "acme", "9.99"});
  writer.Add(0, {"alpha 1", "", "9.99"});
  writer.Add(1, {std::string("nul\0byte", 8), "line\nbreak",
                 std::string(300, 'x')});
  writer.Add(-1, {"", "", ""});
  EXPECT_EQ(writer.num_records(), 4u);
  DIAL_CHECK_OK(writer.Finish());
  return path;
}

TEST(RecordPack, RoundTripBothModes) {
  const std::string path = WriteFixture("rp_roundtrip.pack");
  for (const auto mode : {RecordPackReader::Mode::kMmap,
                          RecordPackReader::Mode::kInMemory}) {
    SCOPED_TRACE(mode == RecordPackReader::Mode::kMmap ? "mmap" : "in-memory");
    RecordPackReader reader;
    DIAL_ASSERT_OK(reader.Open(path, mode));
    ASSERT_EQ(reader.size(), 4u);
    EXPECT_FALSE(reader.empty());
    EXPECT_EQ(reader.schema(),
              (std::vector<std::string>{"name", "brand", "price"}));

    EXPECT_EQ(reader.EntityId(0), 0);
    EXPECT_EQ(reader.EntityId(2), 1);
    EXPECT_EQ(reader.EntityId(3), -1);

    const PackedRecord r0 = reader.Get(0);
    EXPECT_EQ(r0.entity_id, 0);
    ASSERT_EQ(r0.values.size(), 3u);
    EXPECT_EQ(r0.values[0], "alpha one");
    EXPECT_EQ(r0.values[1], "acme");

    const PackedRecord r2 = reader.Get(2);
    EXPECT_EQ(r2.values[0], std::string_view("nul\0byte", 8));
    EXPECT_EQ(r2.values[1], "line\nbreak");
    EXPECT_EQ(r2.values[2], std::string(300, 'x'));

    const PackedRecord r3 = reader.Get(3);
    for (const auto& v : r3.values) EXPECT_TRUE(v.empty());
  }
}

TEST(RecordPack, MmapAndInMemoryAreBitIdentical) {
  const std::string path = WriteFixture("rp_parity.pack");
  RecordPackReader mapped, buffered;
  DIAL_ASSERT_OK(mapped.Open(path, RecordPackReader::Mode::kMmap));
  DIAL_ASSERT_OK(buffered.Open(path, RecordPackReader::Mode::kInMemory));
  ASSERT_EQ(mapped.size(), buffered.size());
  EXPECT_EQ(mapped.schema(), buffered.schema());
  for (size_t i = 0; i < mapped.size(); ++i) {
    const PackedRecord a = mapped.Get(i);
    const PackedRecord b = buffered.Get(i);
    EXPECT_EQ(a.entity_id, b.entity_id);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (size_t j = 0; j < a.values.size(); ++j) {
      EXPECT_EQ(a.values[j], b.values[j]);
    }
    EXPECT_EQ(mapped.TextOf(i), buffered.TextOf(i));
  }
}

TEST(RecordPack, ReaderOutlivesTheFile) {
  const std::string path = WriteFixture("rp_unlinked.pack");
  RecordPackReader reader;
  DIAL_ASSERT_OK(reader.Open(path, RecordPackReader::Mode::kMmap));
  // The fd is already closed and the mapping holds its own reference, so
  // removing the directory entry must not invalidate any access.
  ASSERT_EQ(::unlink(path.c_str()), 0);
  ASSERT_EQ(reader.size(), 4u);
  EXPECT_EQ(reader.Get(2).values[2], std::string(300, 'x'));
  EXPECT_EQ(reader.TextOf(0), "alpha one acme 9.99");
}

TEST(RecordPack, TextOfMatchesTableTextOf) {
  Table table(std::vector<std::string>{"name", "brand", "price"});
  table.Add({-1, 7, {"alpha one", "", "9.99"}});  // empty value skipped in join
  table.Add({-1, 8, {"", "", ""}});               // all-empty -> empty text
  table.Add({-1, 9, {"beta", "bravo", "1.50"}});
  const std::string path = Path("rp_textof.pack");
  DIAL_ASSERT_OK(WriteTablePack(path, table));
  RecordPackReader reader;
  DIAL_ASSERT_OK(reader.Open(path));
  ASSERT_EQ(reader.size(), table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(reader.TextOf(i), table.TextOf(i)) << "record " << i;
    EXPECT_EQ(reader.EntityId(i), table[i].entity_id);
  }
}

TEST(RecordPack, EmptyPackRoundTrips) {
  const std::string path = Path("rp_empty.pack");
  RecordPackWriter writer(path, {"a", "b"});
  DIAL_CHECK_OK(writer.Finish());
  for (const auto mode : {RecordPackReader::Mode::kMmap,
                          RecordPackReader::Mode::kInMemory}) {
    RecordPackReader reader;
    DIAL_ASSERT_OK(reader.Open(path, mode));
    EXPECT_EQ(reader.size(), 0u);
    EXPECT_TRUE(reader.empty());
    EXPECT_EQ(reader.schema(), (std::vector<std::string>{"a", "b"}));
  }
}

TEST(RecordPack, EveryTruncationFailsCleanly) {
  const std::string path = WriteFixture("rp_trunc_src.pack");
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 64u);
  const std::string trunc_path = Path("rp_trunc.pack");
  // Every prefix of the final 64 bytes (offset table + footer region) plus a
  // stride through the record region: all must fail, none may crash.
  std::vector<size_t> lengths;
  for (size_t n = bytes.size() - 64; n < bytes.size(); ++n) lengths.push_back(n);
  for (size_t n = 0; n + 64 < bytes.size(); n += 7) lengths.push_back(n);
  for (const size_t n : lengths) {
    SCOPED_TRACE("truncated to " + std::to_string(n));
    WriteFile(trunc_path, bytes.substr(0, n));
    for (const auto mode : {RecordPackReader::Mode::kMmap,
                            RecordPackReader::Mode::kInMemory}) {
      RecordPackReader reader;
      EXPECT_FALSE(reader.Open(trunc_path, mode).ok());
      EXPECT_EQ(reader.size(), 0u);  // failed Open leaves the reader empty
    }
  }
}

TEST(RecordPack, CorruptedFooterAndOffsetsRejected) {
  const std::string path = WriteFixture("rp_corrupt_src.pack");
  const std::string bytes = ReadFile(path);
  const std::string bad_path = Path("rp_corrupt.pack");
  // End-relative positions, behind the 8-byte CRC trailer: the footer is
  // [table_pos u64][num_records u64][footer magic u32][trailer].
  const size_t footer_magic_end = bytes.size() - util::kCrcTrailerBytes - 1;
  const size_t num_records_at = bytes.size() - util::kCrcTrailerBytes - 12;
  const size_t table_pos_at = bytes.size() - util::kCrcTrailerBytes - 20;
  const auto expect_rejected = [&](std::string mutated, const char* what) {
    SCOPED_TRACE(what);
    WriteFile(bad_path, Rechecksum(std::move(mutated)));
    RecordPackReader reader;
    EXPECT_EQ(reader.Open(bad_path).code(), util::StatusCode::kCorruption);
  };

  {  // Footer magic.
    std::string b = bytes;
    b[footer_magic_end] ^= 0x5a;
    expect_rejected(std::move(b), "footer magic");
  }
  {  // Header magic.
    std::string b = bytes;
    b[0] ^= 0x5a;
    expect_rejected(std::move(b), "header magic");
  }
  {  // Record-count overflow: num_records in the footer set to 2^61 — the
     // offset-table span computation must not wrap past the size check.
    std::string b = bytes;
    const uint64_t huge = 1ull << 61;
    std::memcpy(&b[num_records_at], &huge, sizeof(huge));
    expect_rejected(std::move(b), "record count overflow");
  }
  {  // Offset table pointing past EOF.
    std::string b = bytes;
    const uint64_t bogus = b.size() * 2;
    std::memcpy(&b[table_pos_at], &bogus, sizeof(bogus));
    expect_rejected(std::move(b), "table position past EOF");
  }
  {  // Misaligned offset table position.
    std::string b = bytes;
    uint64_t pos;
    std::memcpy(&pos, &b[table_pos_at], sizeof(pos));
    pos += 1;
    std::memcpy(&b[table_pos_at], &pos, sizeof(pos));
    expect_rejected(std::move(b), "misaligned table");
  }
  {  // Non-monotone offsets: swap the first two table entries.
    std::string b = bytes;
    uint64_t pos;
    std::memcpy(&pos, &b[table_pos_at], sizeof(pos));
    ASSERT_LT(pos + 24, b.size());
    uint64_t o0, o1;
    std::memcpy(&o0, &b[pos + 8], sizeof(o0));
    std::memcpy(&o1, &b[pos + 16], sizeof(o1));
    std::memcpy(&b[pos + 8], &o1, sizeof(o1));
    std::memcpy(&b[pos + 16], &o0, sizeof(o0));
    expect_rejected(std::move(b), "non-monotone offsets");
  }
  {  // Last offset near 2^64: offset + 8 wraps below the table position.
    std::string b = bytes;
    uint64_t pos, count;
    std::memcpy(&pos, &b[table_pos_at], sizeof(pos));
    std::memcpy(&count, &b[num_records_at], sizeof(count));
    const uint64_t wrap = ~uint64_t{0} - 3;
    std::memcpy(&b[pos + 8 * count], &wrap, sizeof(wrap));
    expect_rejected(std::move(b), "offset wraps");
  }
  {  // A value length past the record region: Open rejects the pack before
     // Get can reach the length.
    std::string b = bytes;
    uint64_t pos;
    std::memcpy(&pos, &b[table_pos_at], sizeof(pos));
    uint64_t rec0;
    std::memcpy(&rec0, &b[pos + 8], sizeof(rec0));
    const uint64_t huge = 1ull << 40;  // first value's length field
    std::memcpy(&b[rec0 + 8], &huge, sizeof(huge));
    expect_rejected(std::move(b), "value length past record region");
  }
}

TEST(RecordPack, EverySingleBitFlipIsRejected) {
  const std::string path = WriteFixture("rp_flip_src.pack");
  const std::string bytes = ReadFile(path);
  const std::string bad_path = Path("rp_flip.pack");
  // Flip one bit at every 3rd byte (cycling through bit positions) with NO
  // checksum repair: the CRC trailer — or for flips inside the header or
  // trailer themselves, the magic/version checks — must reject every one.
  for (size_t i = 0; i < bytes.size(); i += 3) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(i));
    std::string b = bytes;
    b[i] ^= static_cast<char>(1 << (i % 8));
    WriteFile(bad_path, b);
    for (const auto mode : {RecordPackReader::Mode::kMmap,
                            RecordPackReader::Mode::kInMemory}) {
      RecordPackReader reader;
      const util::Status status = reader.Open(bad_path, mode);
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), util::StatusCode::kCorruption) << status.message();
    }
  }
}

TEST(RecordPack, RejectsVersion1PackWithoutTrailer) {
  // Synthesize a v1 pack (the pre-CRC format) from a v2 one: drop the
  // trailer and patch the header version. Only v2 opens.
  const std::string path = WriteFixture("rp_v1_src.pack");
  std::string bytes = ReadFile(path);
  bytes.resize(bytes.size() - util::kCrcTrailerBytes);
  const uint32_t v1 = 1;
  std::memcpy(&bytes[sizeof(uint32_t)], &v1, sizeof(v1));
  const std::string v1_path = Path("rp_v1.pack");
  WriteFile(v1_path, bytes);
  for (const auto mode : {RecordPackReader::Mode::kMmap,
                          RecordPackReader::Mode::kInMemory}) {
    RecordPackReader reader;
    EXPECT_EQ(reader.Open(v1_path, mode).code(), util::StatusCode::kCorruption);
    EXPECT_EQ(reader.size(), 0u);
  }
}

TEST(RecordPack, SyntheticPackIsDeterministicAndPaired) {
  const std::string path_a = Path("rp_synth_a.pack");
  const std::string path_b = Path("rp_synth_b.pack");
  DIAL_ASSERT_OK(WriteSyntheticPack(path_a, 201, 42));  // odd count is fine
  DIAL_ASSERT_OK(WriteSyntheticPack(path_b, 201, 42));
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));  // byte-for-byte

  RecordPackReader reader;
  DIAL_ASSERT_OK(reader.Open(path_a));
  ASSERT_EQ(reader.size(), 201u);
  for (size_t i = 0; i < reader.size(); ++i) {
    // Records 2e and 2e+1 are a clean/dirty rendering of entity e.
    EXPECT_EQ(reader.EntityId(i), static_cast<int64_t>(i / 2));
    EXPECT_FALSE(reader.TextOf(i).empty());
  }

  const std::string path_c = Path("rp_synth_c.pack");
  DIAL_ASSERT_OK(WriteSyntheticPack(path_c, 201, 43));
  EXPECT_NE(ReadFile(path_a), ReadFile(path_c));  // seed matters
}

TEST(RecordPack, MoveTransfersTheMapping) {
  const std::string path = WriteFixture("rp_move.pack");
  RecordPackReader a;
  DIAL_ASSERT_OK(a.Open(path));
  RecordPackReader b(std::move(a));
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.Get(0).values[0], "alpha one");
  RecordPackReader c;
  c = std::move(b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.Get(0).values[0], "alpha one");
}

TEST(RecordPack, OpenIsReusableAfterFailure) {
  const std::string good = WriteFixture("rp_reuse.pack");
  RecordPackReader reader;
  EXPECT_FALSE(reader.Open(Path("rp_does_not_exist.pack")).ok());
  DIAL_ASSERT_OK(reader.Open(good));
  EXPECT_EQ(reader.size(), 4u);
}

}  // namespace
}  // namespace dial::data
