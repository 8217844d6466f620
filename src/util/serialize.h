#ifndef DIAL_UTIL_SERIALIZE_H_
#define DIAL_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// Little binary writer/reader with a magic header + format version, used to
/// persist model weights, checkpoints, serving bundles, and record packs.
/// All multi-byte values are little-endian (the only platform we target);
/// readers validate lengths so truncated/corrupted files fail with `Status`
/// rather than UB.
///
/// Integrity: the writer checksums every byte it emits (CRC32C,
/// incrementally — no second pass) and `Finish` appends an 8-byte trailer
/// `[u32 kCrcTrailerMagic][u32 crc]`. The reader accepts exactly one format
/// version and verifies the whole file against the trailer up front —
/// before any field is parsed — so an interior bit-flip, a truncation, or a
/// file from another version fails fast with `kCorruption` instead of
/// deserializing garbage that happens to pass the per-field bounds checks.
/// The trailer is then hidden from `RemainingBytes` so format parsers never
/// see it.

namespace dial::util {

/// Trailer marker ("CRC3" little-endian) preceding the stored CRC32C.
inline constexpr uint32_t kCrcTrailerMagic = 0x33435243u;

/// Trailer size: u32 marker + u32 CRC32C of everything before the trailer.
inline constexpr uint64_t kCrcTrailerBytes = 8;

/// fsyncs the directory containing `path`, making a just-renamed entry
/// durable (rename + file fsync alone leave the *directory entry* volatile).
Status SyncParentDir(const std::string& path);

/// Streams POD values and vectors to a file. Any I/O failure latches into an
/// error status returned by `Finish()`.
class BinaryWriter {
 public:
  /// Opens `path` for writing and emits the header; Finish appends the CRC
  /// trailer.
  BinaryWriter(const std::string& path, uint32_t magic, uint32_t version);
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloatVector(const std::vector<float>& v);
  /// Same wire format as WriteFloatVector (u64 length + raw floats), for
  /// storage that is not a plain std::vector<float> (e.g. la::Matrix's
  /// aligned backing store).
  void WriteFloats(const float* data, size_t n);
  /// u64 length + raw u64s — offset tables and id lists (record packs).
  void WriteU64Vector(const std::vector<uint64_t>& v);
  /// `n` zero bytes, no length prefix — alignment padding (record packs).
  void WriteZeros(size_t n);

  /// Bytes emitted so far, header included — the write cursor. This is what
  /// lets a writer record absolute offsets (the record-pack offset table)
  /// without re-stat()ing the file.
  uint64_t BytesWritten() const { return bytes_written_; }

  /// Appends the CRC trailer, closes the file, and reports the
  /// first error encountered. `durable` additionally fsyncs file contents
  /// before close — pair with SyncParentDir after a rename for crash-safe
  /// replace-by-rename saves.
  Status Finish(bool durable = false);

 private:
  void WriteBytes(const void* data, size_t n);

  std::FILE* file_ = nullptr;
  Status status_;
  std::string path_;
  uint64_t bytes_written_ = 0;
  uint32_t crc_ = 0;
};

/// Reads a file produced by BinaryWriter, validating magic, version and the
/// CRC trailer (verified up front).
class BinaryReader {
 public:
  /// Accepts only `version`, and only with a valid CRC trailer (whole-file
  /// verify before the first field read; the trailer is then invisible to
  /// RemainingBytes and payload reads).
  BinaryReader(const std::string& path, uint32_t magic, uint32_t version);
  ~BinaryReader();

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  /// Non-OK if the file failed to open or validate; check before reading.
  const Status& status() const { return status_; }

  /// Bytes left between the read cursor and the end of the payload (the CRC
  /// trailer is excluded). Length-prefixed reads validate
  /// their length against this before allocating, so a corrupted length
  /// field fails cleanly instead of reserving up to the 1 GiB sanity cap.
  uint64_t RemainingBytes() const;

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  float ReadF32();
  double ReadF64();
  std::string ReadString();
  std::vector<float> ReadFloatVector();
  std::vector<uint64_t> ReadU64Vector();

 private:
  bool ReadBytes(void* data, size_t n);
  void VerifyCrcTrailer(const std::string& path);

  std::FILE* file_ = nullptr;
  Status status_;
  uint64_t file_size_ = 0;
  uint64_t offset_ = 0;
};

}  // namespace dial::util

#endif  // DIAL_UTIL_SERIALIZE_H_
