#ifndef DIAL_DATA_RECORD_PACK_H_
#define DIAL_DATA_RECORD_PACK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/record.h"
#include "util/serialize.h"
#include "util/status.h"

/// \file
/// Out-of-core record storage: the binary "record pack" that lets datasets
/// on the 10^6–10^7 axis exist without materializing a `Table` in RAM.
///
/// Wire format (all little-endian, written via util::BinaryWriter):
///
///     u32 magic, u32 version                   (BinaryWriter header)
///     schema: u64 num_attrs, then that many (u64 len + bytes) strings
///     records: per record
///         i64 entity_id
///         per attribute: u64 len + bytes
///     zero padding to the next 8-byte boundary
///     offset table: u64 count + count raw u64 absolute record offsets
///     footer: u64 offset_table_pos, u64 num_records, u32 footer magic
///     trailer: u32 kCrcTrailerMagic, u32 CRC32C of everything before it
///
/// The offset table lives at the *end* so records stream to disk in one
/// pass; the fixed-size footer at EOF locates it. Any truncation destroys
/// the footer, so a cut-off pack fails `Open` with a Status instead of
/// parsing garbage. The padding keeps the offset table 8-byte aligned so
/// the mmap reader can point straight into the mapping without unaligned
/// u64 loads. The whole file is additionally covered by a CRC32C trailer,
/// verified over the mapping before any structure is trusted — an interior
/// bit-flip (which truncation checks cannot see) fails Open with
/// kCorruption. Only the current version opens; a v1 pack (no trailer)
/// fails with kCorruption.

namespace dial::data {

inline constexpr uint32_t kRecordPackMagic = 0x5244504Bu;   // "KPDR" LE
inline constexpr uint32_t kRecordPackVersion = 2;
inline constexpr uint32_t kRecordPackFooterMagic = 0x504Bu;

/// Streams records to a pack file in one pass. Bounded memory: the only
/// per-record state kept is one u64 offset.
class RecordPackWriter {
 public:
  RecordPackWriter(const std::string& path, std::vector<std::string> schema);

  RecordPackWriter(const RecordPackWriter&) = delete;
  RecordPackWriter& operator=(const RecordPackWriter&) = delete;

  /// Appends one record. `values` must match the schema arity.
  void Add(int64_t entity_id, const std::vector<std::string>& values);

  /// Pads, writes the offset table + footer, closes the file. Must be
  /// called exactly once; returns the first error encountered.
  util::Status Finish();

  size_t num_records() const { return offsets_.size(); }

 private:
  util::BinaryWriter writer_;
  std::vector<std::string> schema_;
  std::vector<uint64_t> offsets_;
  util::Status status_;
  bool finished_ = false;
};

/// One record viewed in place: `values` are string_views into the reader's
/// mapping/buffer and stay valid as long as the reader does.
struct PackedRecord {
  int64_t entity_id = -1;
  std::vector<std::string_view> values;
};

/// Zero-copy pack reader. `kMmap` maps the file and never copies record
/// bytes (the mapping survives closing — and even unlinking — the file);
/// `kInMemory` reads the whole file into one buffer, for filesystems where
/// mmap is unavailable. Both modes share the same span-parsing code, so
/// they are bit-identical by construction. All accessors are const and
/// thread-safe: ParallelFor chunks can read disjoint rows concurrently.
class RecordPackReader {
 public:
  enum class Mode { kMmap, kInMemory };

  RecordPackReader() = default;
  ~RecordPackReader();

  RecordPackReader(const RecordPackReader&) = delete;
  RecordPackReader& operator=(const RecordPackReader&) = delete;
  RecordPackReader(RecordPackReader&& other) noexcept;
  RecordPackReader& operator=(RecordPackReader&& other) noexcept;

  /// Maps/loads `path` and validates header, footer, offset table, and
  /// every record's value lengths (O(records x attributes) on top of the
  /// CRC's O(file)). A pack that fails a check is kCorruption; a file that
  /// cannot be opened or read is kNotFound or kIoError. On error the reader
  /// stays empty and reusable.
  util::Status Open(const std::string& path, Mode mode = Mode::kMmap);

  size_t size() const { return num_records_; }
  bool empty() const { return num_records_ == 0; }
  const std::vector<std::string>& schema() const { return schema_; }

  /// Parses record `i` in place. Open has checked every value length, so
  /// Get's own bounds checks are invariants.
  PackedRecord Get(size_t i) const;

  /// Ground-truth entity id of record `i` (cheap: no value parsing).
  int64_t EntityId(size_t i) const;

  /// Whole-record text, attribute values joined by spaces — the same
  /// serialization as Table::TextOf, so packed and in-RAM corpora tokenize
  /// identically.
  std::string TextOf(size_t i) const;

 private:
  const char* RecordStart(size_t i) const;
  void Close();

  const char* base_ = nullptr;       // mapping or buffer start
  uint64_t file_size_ = 0;
  bool mmapped_ = false;
  std::vector<char> buffer_;         // kInMemory backing store
  const uint64_t* offsets_ = nullptr;  // into base_, aligned
  uint64_t offset_table_pos_ = 0;    // record bytes end here
  uint64_t num_records_ = 0;
  std::vector<std::string> schema_;
};

/// Streams a whole Table into a pack (the `dial_cli datasets --pack`
/// converter path).
util::Status WriteTablePack(const std::string& path, const Table& table);

/// Streams `num_records` synthetic product-style records straight to disk
/// without materializing them: O(1) memory at any record count. Records
/// come in entity pairs (records 2e and 2e+1 share entity id e) with the
/// second rendering token-noised, so packs have duplicate structure for
/// blocking experiments. Deterministic in `seed`.
util::Status WriteSyntheticPack(const std::string& path, size_t num_records,
                                uint64_t seed);

}  // namespace dial::data

#endif  // DIAL_DATA_RECORD_PACK_H_
