#include "data/record_pack.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <utility>

#include "data/word_factory.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace dial::data {

namespace {

constexpr uint64_t kFooterBytes = 8 + 8 + 4;  // table pos + count + magic

uint64_t PadTo8(uint64_t pos) { return (8 - pos % 8) % 8; }

// Unaligned little-endian loads out of the record byte stream. Record
// payloads are packed after variable-length strings, so nothing inside
// them is aligned; memcpy keeps UBSan quiet on every tier.
uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

int64_t LoadI64(const char* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

RecordPackWriter::RecordPackWriter(const std::string& path,
                                   std::vector<std::string> schema)
    : writer_(path, kRecordPackMagic, kRecordPackVersion),
      schema_(std::move(schema)) {
  writer_.WriteU64(schema_.size());
  for (const std::string& attr : schema_) writer_.WriteString(attr);
}

void RecordPackWriter::Add(int64_t entity_id,
                           const std::vector<std::string>& values) {
  DIAL_CHECK(!finished_) << "Add after Finish";
  DIAL_CHECK_EQ(values.size(), schema_.size());
  offsets_.push_back(writer_.BytesWritten());
  writer_.WriteI64(entity_id);
  for (const std::string& v : values) writer_.WriteString(v);
}

util::Status RecordPackWriter::Finish() {
  DIAL_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  writer_.WriteZeros(PadTo8(writer_.BytesWritten()));
  const uint64_t table_pos = writer_.BytesWritten();
  writer_.WriteU64Vector(offsets_);
  writer_.WriteU64(table_pos);
  writer_.WriteU64(offsets_.size());
  writer_.WriteU32(kRecordPackFooterMagic);
  return writer_.Finish();
}

RecordPackReader::~RecordPackReader() { Close(); }

RecordPackReader::RecordPackReader(RecordPackReader&& other) noexcept {
  *this = std::move(other);
}

RecordPackReader& RecordPackReader::operator=(
    RecordPackReader&& other) noexcept {
  if (this == &other) return *this;
  Close();
  base_ = other.base_;
  file_size_ = other.file_size_;
  mmapped_ = other.mmapped_;
  buffer_ = std::move(other.buffer_);
  offsets_ = other.offsets_;
  offset_table_pos_ = other.offset_table_pos_;
  num_records_ = other.num_records_;
  schema_ = std::move(other.schema_);
  other.base_ = nullptr;
  other.mmapped_ = false;
  other.offsets_ = nullptr;
  other.file_size_ = other.offset_table_pos_ = other.num_records_ = 0;
  return *this;
}

void RecordPackReader::Close() {
  if (mmapped_ && base_ != nullptr) {
    ::munmap(const_cast<char*>(base_), file_size_);
  }
  base_ = nullptr;
  mmapped_ = false;
  buffer_.clear();
  buffer_.shrink_to_fit();
  offsets_ = nullptr;
  file_size_ = offset_table_pos_ = num_records_ = 0;
  schema_.clear();
}

util::Status RecordPackReader::Open(const std::string& path, Mode mode) {
  Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return util::Status::NotFound("cannot open pack: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::Status::IoError("cannot stat pack: " + path);
  }
  file_size_ = static_cast<uint64_t>(st.st_size);
  if (file_size_ < 8 + 8 + kFooterBytes) {
    ::close(fd);
    file_size_ = 0;
    return util::Status::Corruption("record pack " + path + ": file too small");
  }
  if (mode == Mode::kMmap) {
    void* map = ::mmap(nullptr, file_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping outlives the descriptor (and the dirent)
    if (map == MAP_FAILED) {
      file_size_ = 0;
      return util::Status::IoError("mmap failed for pack: " + path);
    }
    base_ = static_cast<const char*>(map);
    mmapped_ = true;
  } else {
    buffer_.resize(file_size_);
    uint64_t got = 0;
    while (got < file_size_) {
      const ssize_t r = ::read(fd, buffer_.data() + got, file_size_ - got);
      if (r <= 0) {
        ::close(fd);
        Close();
        return util::Status::IoError("short read of pack: " + path);
      }
      got += static_cast<uint64_t>(r);
    }
    ::close(fd);
    base_ = buffer_.data();
  }

  // Everything below must fail with Status, not UB: validate before trusting
  // any length. A truncated file loses its footer and lands here.
  const auto corrupt = [&](const std::string& why) {
    Close();
    return util::Status::Corruption("record pack " + path + ": " + why);
  };
  if (LoadU32(base_) != kRecordPackMagic) {
    return corrupt("bad magic");
  }
  if (LoadU32(base_ + 4) != kRecordPackVersion) {
    return corrupt("unsupported version");
  }
  // Whole-file CRC over the mapping, checked before any structure is
  // trusted (an interior bit-flip leaves the footer intact and would
  // otherwise parse). The trailer is then sliced off so the footer math
  // below sees only the payload.
  if (file_size_ < 8 + kFooterBytes + util::kCrcTrailerBytes) {
    return corrupt("file too small for CRC trailer");
  }
  const uint64_t payload_size = file_size_ - util::kCrcTrailerBytes;
  if (LoadU32(base_ + payload_size) != util::kCrcTrailerMagic) {
    return corrupt("missing CRC trailer");
  }
  if (LoadU32(base_ + payload_size + 4) != util::Crc32c(base_, payload_size)) {
    return corrupt("CRC32C mismatch");
  }
  const char* footer = base_ + (payload_size - kFooterBytes);
  uint32_t footer_magic;
  std::memcpy(&footer_magic, footer + 16, sizeof(footer_magic));
  if (footer_magic != kRecordPackFooterMagic) {
    return corrupt("bad footer (truncated?)");
  }
  const uint64_t table_pos = LoadU64(footer);
  const uint64_t num_records = LoadU64(footer + 8);
  if (table_pos % 8 != 0) return corrupt("unaligned offset table");
  // Division-based overflow guard: num_records near 2^64 must not wrap the
  // byte-count product below.
  if (num_records > payload_size / sizeof(uint64_t)) {
    return corrupt("offset table overflows file");
  }
  if (table_pos < 16 ||
      table_pos + 8 + num_records * sizeof(uint64_t) + kFooterBytes !=
          payload_size) {
    return corrupt("offset table does not span to footer");
  }
  if (LoadU64(base_ + table_pos) != num_records) {
    return corrupt("offset table count mismatch");
  }
  offset_table_pos_ = table_pos;
  num_records_ = num_records;
  offsets_ = reinterpret_cast<const uint64_t*>(base_ + table_pos + 8);

  // Schema: parsed (and copied — it is tiny) with the same bounds checks.
  uint64_t pos = 8;
  const auto read_u64 = [&](uint64_t* out) {
    if (pos + 8 > table_pos) return false;
    *out = LoadU64(base_ + pos);
    pos += 8;
    return true;
  };
  uint64_t num_attrs = 0;
  if (!read_u64(&num_attrs) || num_attrs > 4096) return corrupt("bad schema");
  schema_.reserve(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    uint64_t len = 0;
    if (!read_u64(&len) || len > table_pos - pos) return corrupt("bad schema");
    schema_.emplace_back(base_ + pos, len);
    pos += len;
  }

  // Offsets must be monotonically increasing and confined to the record
  // region [end of schema, start of offset table), and each record's value
  // lengths must stay inside that region, so Get's bounds checks hold for
  // every record Open accepts.
  uint64_t prev = pos;
  for (uint64_t i = 0; i < num_records_; ++i) {
    if (offsets_[i] < prev || offsets_[i] > table_pos - 8) {
      return corrupt("offset table not monotone in record region");
    }
    prev = offsets_[i];
    uint64_t p = offsets_[i] + 8;
    for (uint64_t a = 0; a < num_attrs; ++a) {
      if (p + 8 > table_pos) return corrupt("record runs past record region");
      const uint64_t len = LoadU64(base_ + p);
      p += 8;
      if (len > table_pos - p) {
        return corrupt("value length runs past record region");
      }
      p += len;
    }
  }
  return util::Status::OK();
}

const char* RecordPackReader::RecordStart(size_t i) const {
  DIAL_CHECK_LT(i, num_records_) << "record index out of range";
  return base_ + offsets_[i];
}

int64_t RecordPackReader::EntityId(size_t i) const {
  return LoadI64(RecordStart(i));
}

PackedRecord RecordPackReader::Get(size_t i) const {
  const char* p = RecordStart(i);
  const char* end = base_ + offset_table_pos_;
  PackedRecord rec;
  rec.entity_id = LoadI64(p);
  p += 8;
  rec.values.reserve(schema_.size());
  for (size_t a = 0; a < schema_.size(); ++a) {
    DIAL_CHECK_LE(p + 8, end) << "record " << i << " runs past record region";
    const uint64_t len = LoadU64(p);
    p += 8;
    DIAL_CHECK_LE(len, static_cast<uint64_t>(end - p))
        << "value length in record " << i << " runs past record region";
    rec.values.emplace_back(p, len);
    p += len;
  }
  return rec;
}

std::string RecordPackReader::TextOf(size_t i) const {
  const PackedRecord rec = Get(i);
  std::string text;
  for (const std::string_view v : rec.values) {
    if (v.empty()) continue;
    if (!text.empty()) text.push_back(' ');
    text.append(v);
  }
  return text;
}

util::Status WriteTablePack(const std::string& path, const Table& table) {
  RecordPackWriter writer(path, table.schema());
  for (size_t i = 0; i < table.size(); ++i) {
    writer.Add(table[i].entity_id, table[i].values);
  }
  return writer.Finish();
}

util::Status WriteSyntheticPack(const std::string& path, size_t num_records,
                                uint64_t seed) {
  RecordPackWriter writer(path, {"name", "brand", "model", "price"});
  WordFactory wf(seed);
  std::vector<std::string> clean(4);
  for (size_t i = 0; i < num_records; ++i) {
    const int64_t entity = static_cast<int64_t>(i / 2);
    if (i % 2 == 0) {
      // Fresh entity: render the clean listing and remember it for its twin.
      clean[0] = wf.Pick(WordFactory::Adjectives()) + " " +
                 wf.Pick(WordFactory::ProductNouns()) + " " +
                 wf.Pick(WordFactory::Colors());
      clean[1] = wf.MakeBrand();
      clean[2] = wf.MakeModelCode();
      clean[3] = wf.MakePrice(5.0, 2000.0);
      writer.Add(entity, clean);
    } else {
      // Dirty twin: synonym-substituted name tokens and a jittered price —
      // enough heterogeneity that packed pairs exercise a blocker.
      std::vector<std::string> dirty(4);
      std::istringstream words(clean[0]);
      std::string w;
      while (words >> w) {
        if (!dirty[0].empty()) dirty[0] += ' ';
        dirty[0] +=
            wf.rng().Bernoulli(0.5) ? WordFactory::Synonym(w) : w;
      }
      dirty[1] = clean[1];
      dirty[2] = wf.rng().Bernoulli(0.9) ? clean[2] : wf.MakeModelCode();
      dirty[3] = clean[3];
      writer.Add(entity, dirty);
    }
  }
  return writer.Finish();
}

}  // namespace dial::data
