#include "persist/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "persist/crc32.h"

namespace csj::persist {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

bool WriteAll(int fd, const void* data, size_t size, std::string* error) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = Errno("write");
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

uint64_t AlignUp(uint64_t value) {
  return (value + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

}  // namespace

bool WriteSegment(const std::string& path, const SegmentParams& params,
                  std::span<const SectionSpec> sections, std::string* error) {
  // Lay out: header | descriptor table | aligned payloads.
  std::vector<SectionDesc> table(sections.size());
  uint64_t cursor = AlignUp(sizeof(SegmentHeader) +
                            sections.size() * sizeof(SectionDesc));
  for (size_t i = 0; i < sections.size(); ++i) {
    const SectionSpec& spec = sections[i];
    SectionDesc& desc = table[i];
    desc.kind = static_cast<uint32_t>(spec.kind);
    desc.elem_size = spec.elem_size;
    desc.offset = cursor;
    desc.byte_size = spec.bytes;
    desc.crc = Crc32c(spec.data, spec.bytes);
    cursor = AlignUp(cursor + spec.bytes);
  }

  SegmentHeader header;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.entry_count = params.entry_count;
  header.next_version = params.next_version;
  header.sig_quantiles = params.sig_quantiles;
  header.flags = params.flags;
  header.file_size = cursor;
  header.table_crc = Crc32c(table.data(), table.size() * sizeof(SectionDesc));
  header.crc = Crc32c(&header, offsetof(SegmentHeader, crc));

  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    *error = Errno("open " + path);
    return false;
  }
  bool ok = WriteAll(fd, &header, sizeof(header), error) &&
            WriteAll(fd, table.data(), table.size() * sizeof(SectionDesc),
                     error);
  uint64_t written = sizeof(header) + table.size() * sizeof(SectionDesc);
  const uint8_t zeros[kSectionAlign] = {};
  for (size_t i = 0; ok && i < sections.size(); ++i) {
    if (table[i].offset > written) {
      ok = WriteAll(fd, zeros, table[i].offset - written, error);
      written = table[i].offset;
    }
    if (ok && sections[i].bytes > 0) {
      ok = WriteAll(fd, sections[i].data, sections[i].bytes, error);
      written += sections[i].bytes;
    }
  }
  if (ok && cursor > written) {
    ok = WriteAll(fd, zeros, cursor - written, error);
  }
  if (ok && ::fsync(fd) != 0) {
    *error = Errno("fsync " + path);
    ok = false;
  }
  ::close(fd);
  return ok;
}

const SectionDesc* MappedSegment::Find(SectionKind kind) const {
  for (const SectionDesc& desc : sections()) {
    if (desc.kind == static_cast<uint32_t>(kind)) return &desc;
  }
  return nullptr;
}

void MappedSegment::DropPages(SectionKind kind) const {
  const SectionDesc* desc = Find(kind);
  if (desc == nullptr) return;
  const auto page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<uintptr_t>(data_ + desc->offset);
  const uintptr_t first = (begin + page - 1) & ~(page - 1);
  const uintptr_t last = (begin + desc->byte_size) & ~(page - 1);
  if (first < last) {
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_DONTNEED);
  }
}

std::shared_ptr<MappedSegment> MappedSegment::Map(const std::string& path,
                                                  bool willneed,
                                                  bool hugepages,
                                                  std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = Errno("open " + path);
    return nullptr;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    *error = Errno("fstat " + path);
    ::close(fd);
    return nullptr;
  }
  const auto size = static_cast<size_t>(st.st_size);
  if (size < sizeof(SegmentHeader)) {
    *error = path + ": shorter than a segment header";
    ::close(fd);
    return nullptr;
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapping == MAP_FAILED) {
    *error = Errno("mmap " + path);
    return nullptr;
  }
  auto segment = std::shared_ptr<MappedSegment>(
      new MappedSegment(static_cast<uint8_t*>(mapping), size));

  // Structural validation — everything a column read depends on for
  // memory safety. Payload CRCs are fsck's job (see the class comment).
  const SegmentHeader& header = segment->header();
  if (header.magic != kSegmentMagic) {
    *error = path + ": bad segment magic";
    return nullptr;
  }
  if (header.format_version != kFormatVersion) {
    *error = path + ": unsupported format version";
    return nullptr;
  }
  if (Crc32c(&header, offsetof(SegmentHeader, crc)) != header.crc) {
    *error = path + ": segment header CRC mismatch";
    return nullptr;
  }
  if (header.file_size != size) {
    *error = path + ": recorded file size disagrees with the file";
    return nullptr;
  }
  const uint64_t table_end = sizeof(SegmentHeader) +
                             static_cast<uint64_t>(header.section_count) *
                                 sizeof(SectionDesc);
  if (table_end > size) {
    *error = path + ": section table out of bounds";
    return nullptr;
  }
  const auto table = segment->sections();
  if (Crc32c(table.data(), table.size_bytes()) != header.table_crc) {
    *error = path + ": section table CRC mismatch";
    return nullptr;
  }
  for (const SectionDesc& desc : table) {
    if (desc.offset % kSectionAlign != 0 || desc.offset > size ||
        desc.byte_size > size - desc.offset) {
      *error = path + ": section payload out of bounds";
      return nullptr;
    }
    if (desc.elem_size == 0 || desc.byte_size % desc.elem_size != 0) {
      *error = path + ": section size not a multiple of its element";
      return nullptr;
    }
  }

  if (hugepages) {
#ifdef MADV_HUGEPAGE
    // Advisory; EINVAL on kernels without THP for file mappings is fine.
    (void)::madvise(mapping, size, MADV_HUGEPAGE);
#endif
  }
  if (willneed) {
    (void)::madvise(mapping, size, MADV_WILLNEED);
  }
  return segment;
}

MappedSegment::~MappedSegment() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

}  // namespace csj::persist
