#include "persist/log.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "persist/crc32.h"
#include "util/logging.h"

namespace csj::persist {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void PutU32(uint32_t value, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 4);
  std::memcpy(out->data() + at, &value, 4);
}

void PutU64(uint64_t value, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &value, 8);
}

}  // namespace

bool LogWriter::Open(const std::string& path, uint64_t generation,
                     size_t sync_every, uint64_t resume_at,
                     FaultInjector* fault, std::string* error) {
  std::lock_guard lock(mu_);
  CSJ_CHECK_EQ(fd_, -1) << "LogWriter already open";
  sync_every_ = sync_every == 0 ? 1 : sync_every;
  fault_ = fault;
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd_ < 0) {
    *error = Errno("open " + path);
    return false;
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    *error = Errno("fstat " + path);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  if (st.st_size == 0 || resume_at < sizeof(LogHeader)) {
    // Fresh log — or a file whose header never became durable (a torn
    // header reads as resume_at == 0). Appending after a partial header
    // would leave the store unopenable ("bad log magic"), so restart
    // from byte 0: truncate whatever is there and write a real header,
    // fsynced before any record follows it.
    if (st.st_size != 0 && ::ftruncate(fd_, 0) != 0) {
      *error = Errno("ftruncate " + path);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    LogHeader header;
    header.generation = generation;
    header.crc = Crc32c(&header, offsetof(LogHeader, crc));
    if (::write(fd_, &header, sizeof(header)) !=
        static_cast<ssize_t>(sizeof(header))) {
      *error = Errno("write " + path);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    if (::fsync(fd_) != 0) {
      *error = Errno("fsync " + path);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    end_offset_ = sizeof(LogHeader);
  } else {
    // Resuming: chop any torn tail BEFORE appending, so the first new
    // record never lands after garbage (it would be unreachable — the
    // reader stops at the tear — and would confuse fsck forever).
    const auto resume = static_cast<off_t>(resume_at);
    if (resume < st.st_size && ::ftruncate(fd_, resume) != 0) {
      *error = Errno("ftruncate " + path);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      *error = Errno("lseek " + path);
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    end_offset_ = static_cast<uint64_t>(end);
  }
  return true;
}

bool LogWriter::AppendLocked(const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return false;
  if (fault_ != nullptr && fault_->dead) return false;
  std::vector<uint8_t> frame;
  frame.reserve(sizeof(LogRecordPrefix) + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), &frame);
  PutU32(Crc32c(payload.data(), payload.size()), &frame);
  frame.insert(frame.end(), payload.begin(), payload.end());

  size_t writable = frame.size();
  bool dies = false;
  if (fault_ != nullptr && fault_->crash_write_at_bytes >= 0) {
    const auto budget = static_cast<uint64_t>(fault_->crash_write_at_bytes);
    if (fault_->bytes_written + frame.size() > budget) {
      writable = budget > fault_->bytes_written
                     ? static_cast<size_t>(budget - fault_->bytes_written)
                     : 0;
      dies = true;
    }
  }
  const uint8_t* p = frame.data();
  size_t remaining = writable;
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  if (fault_ != nullptr) fault_->bytes_written += writable;
  if (dies) {
    fault_->dead = true;
    return false;
  }
  ++records_;
  ++since_sync_;
  end_offset_ += frame.size();
  if (since_sync_ >= sync_every_) return SyncLocked();
  return true;
}

bool LogWriter::SyncLocked() {
  if (fd_ < 0) return false;
  if (fault_ != nullptr) {
    if (fault_->dead) return false;
    if (fault_->crash_after_fsyncs >= 0 &&
        fault_->fsyncs_performed ==
            static_cast<uint64_t>(fault_->crash_after_fsyncs)) {
      // Die at the barrier: the records written since the last sync
      // remain in the file (page-cache survival), the fsync itself
      // never happens.
      fault_->dead = true;
      return false;
    }
  }
  if (::fdatasync(fd_) != 0) return false;
  since_sync_ = 0;
  if (fault_ != nullptr) ++fault_->fsyncs_performed;
  return true;
}

bool LogWriter::AppendUpsert(uint64_t id, uint64_t version,
                             const Community& community) {
  std::vector<uint8_t> payload;
  const auto flat = community.flat();
  payload.reserve(32 + community.name().size() + flat.size() * sizeof(Count));
  PutU32(kLogUpsert, &payload);
  PutU32(community.d(), &payload);
  PutU64(id, &payload);
  PutU64(version, &payload);
  PutU32(community.size(), &payload);
  PutU32(static_cast<uint32_t>(community.name().size()), &payload);
  payload.insert(payload.end(), community.name().begin(),
                 community.name().end());
  const size_t at = payload.size();
  payload.resize(at + flat.size() * sizeof(Count));
  std::memcpy(payload.data() + at, flat.data(), flat.size() * sizeof(Count));
  std::lock_guard lock(mu_);
  return AppendLocked(payload);
}

bool LogWriter::AppendRemove(uint64_t id) {
  std::vector<uint8_t> payload;
  payload.reserve(16);
  PutU32(kLogRemove, &payload);
  PutU32(0, &payload);
  PutU64(id, &payload);
  std::lock_guard lock(mu_);
  return AppendLocked(payload);
}

bool LogWriter::Sync() {
  std::lock_guard lock(mu_);
  if (since_sync_ == 0) return fd_ >= 0 && (fault_ == nullptr || !fault_->dead);
  return SyncLocked();
}

void LogWriter::Close() {
  std::lock_guard lock(mu_);
  if (fd_ < 0) return;
  if (since_sync_ > 0) SyncLocked();
  ::close(fd_);
  fd_ = -1;
}

uint64_t LogWriter::records_appended() const {
  std::lock_guard lock(mu_);
  return records_;
}

uint64_t LogWriter::end_offset() const {
  std::lock_guard lock(mu_);
  return end_offset_;
}

void LogImage::Unmap::operator()(const uint8_t* data) const {
  ::munmap(const_cast<uint8_t*>(data), size);
}

bool ReadLog(const std::string& path, uint64_t expect_generation,
             LogImage* image, std::string* error) {
  *image = LogImage{};
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return true;  // absent log == empty log
    *error = Errno("open " + path);
    return false;
  }
  image->present = true;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    *error = Errno("fstat " + path);
    ::close(fd);
    return false;
  }
  const auto size = static_cast<size_t>(st.st_size);
  image->file_size = size;
  if (size < sizeof(LogHeader)) {
    // A header that never hit the disk: an empty log with a torn tail.
    ::close(fd);
    image->torn = size > 0;
    image->truncated_at = 0;
    return true;
  }
  void* mapping =
      ::mmap(nullptr, size, PROT_READ, MAP_SHARED | MAP_POPULATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapping == MAP_FAILED) {
    *error = Errno("mmap " + path);
    return false;
  }
  image->mapping_ = std::unique_ptr<const uint8_t, LogImage::Unmap>(
      static_cast<const uint8_t*>(mapping), LogImage::Unmap{size});
  const std::span<const uint8_t> bytes = image->bytes();

  LogHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != kLogMagic) {
    *error = path + ": bad log magic";
    return false;
  }
  if (header.format_version != kFormatVersion) {
    *error = path + ": unsupported log format version";
    return false;
  }
  if (Crc32c(&header, offsetof(LogHeader, crc)) != header.crc) {
    *error = path + ": log header CRC mismatch";
    return false;
  }
  if (header.generation != expect_generation) {
    *error = path + ": log generation disagrees with the superblock";
    return false;
  }
  image->generation = header.generation;

  size_t cursor = sizeof(LogHeader);
  while (cursor < bytes.size()) {
    const size_t record_start = cursor;
    if (bytes.size() - cursor < sizeof(LogRecordPrefix)) break;
    LogRecordPrefix prefix;
    std::memcpy(&prefix, bytes.data() + cursor, sizeof(prefix));
    cursor += sizeof(prefix);
    if (bytes.size() - cursor < prefix.payload_size) {
      cursor = record_start;
      break;
    }
    const uint8_t* payload = bytes.data() + cursor;
    if (Crc32c(payload, prefix.payload_size) != prefix.payload_crc) {
      cursor = record_start;
      break;
    }
    // Decode — a CRC-valid payload with an impossible shape is NOT a
    // torn tail (the bytes are exactly what the writer framed); it is
    // corruption or a writer bug, and recovery must not silently drop
    // the suffix.
    auto u32_at = [&](size_t off) {
      uint32_t v;
      std::memcpy(&v, payload + off, 4);
      return v;
    };
    auto u64_at = [&](size_t off) {
      uint64_t v;
      std::memcpy(&v, payload + off, 8);
      return v;
    };
    if (prefix.payload_size < 16) {
      *error = path + ": log record too short to hold its kind";
      return false;
    }
    LogRecord record;
    const uint32_t kind = u32_at(0);
    if (kind == kLogRemove) {
      record.remove = true;
      record.id = u64_at(8);
    } else if (kind == kLogUpsert) {
      if (prefix.payload_size < 32) {
        *error = path + ": truncated upsert record";
        return false;
      }
      record.d = u32_at(4);
      record.id = u64_at(8);
      record.version = u64_at(16);
      record.users = u32_at(24);
      const uint32_t name_size = u32_at(28);
      const uint64_t need = 32ull + name_size +
                            static_cast<uint64_t>(record.users) * record.d *
                                sizeof(Count);
      if (record.d == 0 || record.users == 0 || need != prefix.payload_size) {
        *error = path + ": upsert record shape disagrees with its size";
        return false;
      }
      record.name.assign(reinterpret_cast<const char*>(payload) + 32,
                         name_size);
      record.counts_offset = cursor + 32 + name_size;
    } else {
      *error = path + ": unknown log record kind";
      return false;
    }
    cursor += prefix.payload_size;
    image->records.push_back(std::move(record));
  }
  image->truncated_at = cursor;
  image->torn = cursor < bytes.size();
  return true;
}

}  // namespace csj::persist
