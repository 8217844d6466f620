#include "util/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include "util/crc32c.h"
#include "util/fault.h"

namespace dial::util {

namespace {
// Guards against absurd lengths from corrupted files (1 GiB of floats).
constexpr uint64_t kMaxVectorBytes = 1ull << 30;
}  // namespace

Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : slash == 0 ? "/" : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError("cannot open directory for fsync: " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("fsync failed for directory: " + dir);
  return Status::OK();
}

BinaryWriter::BinaryWriter(const std::string& path, uint32_t magic,
                           uint32_t version)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for write: " + path);
    return;
  }
  WriteU32(magic);
  WriteU32(version);
}

BinaryWriter::~BinaryWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryWriter::WriteBytes(const void* data, size_t n) {
  if (!status_.ok() || file_ == nullptr || n == 0) return;
  if (FaultInjector::Armed() &&
      FaultInjector::Global().ShouldFail(FaultSite::kFileWrite)) {
    status_ = Status::IoError("injected fault: short write to " + path_);
    return;
  }
  if (std::fwrite(data, 1, n, file_) != n) {
    status_ = Status::IoError("short write to " + path_);
    return;
  }
  bytes_written_ += n;
  crc_ = Crc32cExtend(crc_, data, n);
}

void BinaryWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF32(float v) { WriteBytes(&v, sizeof(v)); }

void BinaryWriter::WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteFloats(v.data(), v.size());
}

void BinaryWriter::WriteFloats(const float* data, size_t n) {
  WriteU64(n);
  WriteBytes(data, n * sizeof(float));
}

void BinaryWriter::WriteU64Vector(const std::vector<uint64_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(uint64_t));
}

void BinaryWriter::WriteZeros(size_t n) {
  static constexpr char kZeros[8] = {0};
  while (n > 0) {
    const size_t chunk = n < sizeof(kZeros) ? n : sizeof(kZeros);
    WriteBytes(kZeros, chunk);
    n -= chunk;
  }
}

Status BinaryWriter::Finish(bool durable) {
  if (file_ != nullptr) {
    // The stored CRC covers everything before the trailer.
    const uint32_t crc = crc_;
    WriteU32(kCrcTrailerMagic);
    WriteU32(crc);
    if (durable && status_.ok()) {
      if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
        status_ = Status::IoError("fsync failed for " + path_);
      }
    }
    if (std::fclose(file_) != 0 && status_.ok()) {
      status_ = Status::IoError("close failed for " + path_);
    }
    file_ = nullptr;
  }
  return status_;
}

BinaryReader::BinaryReader(const std::string& path, uint32_t magic,
                           uint32_t version) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    status_ = Status::NotFound("cannot open for read: " + path);
    return;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    status_ = Status::IoError("cannot seek in " + path);
    return;
  }
  const long size = std::ftell(file_);
  if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    status_ = Status::IoError("cannot determine size of " + path);
    return;
  }
  file_size_ = static_cast<uint64_t>(size);
  const uint32_t got_magic = ReadU32();
  const uint32_t got_version = ReadU32();
  if (!status_.ok()) return;
  if (got_magic != magic) {
    status_ = Status::Corruption("bad magic in " + path);
    return;
  }
  if (got_version != version) {
    status_ = Status::Corruption("unsupported version in " + path);
    return;
  }
  VerifyCrcTrailer(path);
}

void BinaryReader::VerifyCrcTrailer(const std::string& path) {
  // Whole-file verify before any field parsing: a file that fails its
  // checksum never gets a chance to deserialize plausibly-bounded garbage.
  if (file_size_ < 8 + kCrcTrailerBytes) {
    status_ = Status::Corruption("file too small for CRC trailer: " + path);
    return;
  }
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    status_ = Status::IoError("cannot seek in " + path);
    return;
  }
  const uint64_t body = file_size_ - kCrcTrailerBytes;
  uint32_t crc = 0;
  char buf[1 << 16];
  uint64_t left = body;
  while (left > 0) {
    const size_t chunk =
        left < sizeof(buf) ? static_cast<size_t>(left) : sizeof(buf);
    if (FaultInjector::Armed() &&
        FaultInjector::Global().ShouldFail(FaultSite::kFileRead)) {
      status_ = Status::IoError("injected fault: read error in " + path);
      return;
    }
    if (std::fread(buf, 1, chunk, file_) != chunk) {
      status_ = Status::Corruption("short read verifying " + path);
      return;
    }
    crc = Crc32cExtend(crc, buf, chunk);
    left -= chunk;
  }
  uint32_t trailer_magic = 0;
  uint32_t stored_crc = 0;
  if (std::fread(&trailer_magic, 1, 4, file_) != 4 ||
      std::fread(&stored_crc, 1, 4, file_) != 4) {
    status_ = Status::Corruption("short read verifying " + path);
    return;
  }
  if (trailer_magic != kCrcTrailerMagic) {
    status_ = Status::Corruption("missing CRC trailer in " + path);
    return;
  }
  if (stored_crc != crc) {
    status_ = Status::Corruption("CRC32C mismatch in " + path);
    return;
  }
  // Hide the trailer from payload reads and rewind to just past the header.
  file_size_ = body;
  if (std::fseek(file_, 8, SEEK_SET) != 0) {
    status_ = Status::IoError("cannot seek in " + path);
    return;
  }
  offset_ = 8;
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

uint64_t BinaryReader::RemainingBytes() const {
  return offset_ <= file_size_ ? file_size_ - offset_ : 0;
}

bool BinaryReader::ReadBytes(void* data, size_t n) {
  if (!status_.ok() || file_ == nullptr) return false;
  if (n == 0) return true;
  if (FaultInjector::Armed() &&
      FaultInjector::Global().ShouldFail(FaultSite::kFileRead)) {
    status_ = Status::IoError("injected fault: read error");
    return false;
  }
  if (n > RemainingBytes() || std::fread(data, 1, n, file_) != n) {
    status_ = Status::Corruption("short read");
    return false;
  }
  offset_ += n;
  return true;
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

int64_t BinaryReader::ReadI64() {
  int64_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

float BinaryReader::ReadF32() {
  float v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

double BinaryReader::ReadF64() {
  double v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadU64();
  if (!status_.ok()) return {};
  if (n > kMaxVectorBytes || n > RemainingBytes()) {
    status_ = Status::Corruption("string length exceeds file size");
    return {};
  }
  std::string s(n, '\0');
  ReadBytes(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::ReadFloatVector() {
  const uint64_t n = ReadU64();
  if (!status_.ok()) return {};
  if (n > kMaxVectorBytes / sizeof(float) ||  // division avoids n*4 overflow
      n * sizeof(float) > RemainingBytes()) {
    status_ = Status::Corruption("vector length exceeds file size");
    return {};
  }
  std::vector<float> v(n);
  ReadBytes(v.data(), n * sizeof(float));
  return v;
}

std::vector<uint64_t> BinaryReader::ReadU64Vector() {
  const uint64_t n = ReadU64();
  if (!status_.ok()) return {};
  // Division-based compare: a corrupted length near 2^64 would overflow the
  // multiplication n * 8 to a small value and sail past a product check.
  if (n > kMaxVectorBytes / sizeof(uint64_t) ||
      n * sizeof(uint64_t) > RemainingBytes()) {
    status_ = Status::Corruption("vector length exceeds file size");
    return {};
  }
  std::vector<uint64_t> v(n);
  ReadBytes(v.data(), n * sizeof(uint64_t));
  return v;
}

}  // namespace dial::util
