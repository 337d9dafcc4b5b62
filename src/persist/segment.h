#ifndef CSJ_PERSIST_SEGMENT_H_
#define CSJ_PERSIST_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "persist/format.h"

namespace csj::persist {

/// One section to be sealed into a segment: `bytes` of payload at
/// `data`, elements of `elem_size` bytes. The buffer must stay alive
/// until WriteSegment returns; it is not retained.
struct SectionSpec {
  SectionKind kind = SectionKind::kIds;
  uint32_t elem_size = 1;
  const void* data = nullptr;
  size_t bytes = 0;
};

/// Non-magic header fields of the segment being sealed (counts, flags,
/// sketch quantiles — see SegmentHeader).
struct SegmentParams {
  uint64_t entry_count = 0;
  uint64_t next_version = 0;
  uint32_t sig_quantiles = 0;
  uint32_t flags = 0;
};

/// Seals `sections` into a segment file at `path`: header, CRC'd
/// descriptor table, then each payload at the next 64-byte boundary with
/// its CRC in the descriptor. The file is fsynced before returning (the
/// caller still fsyncs the DIRECTORY when it commits the superblock).
/// Returns false with `*error` set on any I/O failure; a failed write
/// may leave a partial file — callers write to a generation-unique name
/// that no superblock references yet, so partial files are inert.
bool WriteSegment(const std::string& path, const SegmentParams& params,
                  std::span<const SectionSpec> sections, std::string* error);

/// A sealed segment mapped read-only. Map() validates everything needed
/// for MEMORY SAFETY — magic, format version, header and descriptor
/// table CRCs, recorded file size against the real one, every section's
/// bounds, alignment and element divisibility — but deliberately NOT
/// the section payload CRCs: verifying them would fault in and read
/// every byte, forfeiting the zero-copy open the format exists for.
/// Payload integrity is csj_fsck's contract (run it on any store whose
/// history is untrusted); a corrupt payload under a valid descriptor
/// yields wrong column VALUES, never out-of-bounds access.
///
/// Columns are served as spans over the mapping; the shared_ptr
/// returned by Map is the keep-alive that view-backed communities hold,
/// so the mapping outlives every reader (restore copies the sketch rows
/// into the index).
class MappedSegment {
 public:
  /// Maps and validates; hints the kernel per the flags
  /// (MADV_WILLNEED schedules readahead of the whole mapping so the
  /// restore loop does not take one blocking major fault per column
  /// touch; MADV_HUGEPAGE asks for 2 MiB backing to cut minor-fault
  /// count and TLB pressure on multi-GB catalogs). Returns nullptr with
  /// `*error` set on validation failure.
  static std::shared_ptr<MappedSegment> Map(const std::string& path,
                                            bool willneed, bool hugepages,
                                            std::string* error);

  ~MappedSegment();
  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  const SegmentHeader& header() const {
    return *reinterpret_cast<const SegmentHeader*>(data_);
  }
  std::span<const SectionDesc> sections() const {
    return {reinterpret_cast<const SectionDesc*>(data_ +
                                                 sizeof(SegmentHeader)),
            header().section_count};
  }

  /// The section descriptor of `kind`, or nullptr when absent.
  const SectionDesc* Find(SectionKind kind) const;

  /// Typed view of one section's payload; empty when the section is
  /// absent. T must match the section's element size (checked).
  template <typename T>
  std::span<const T> Column(SectionKind kind) const {
    const SectionDesc* desc = Find(kind);
    if (desc == nullptr || desc->elem_size != sizeof(T)) return {};
    return {reinterpret_cast<const T*>(data_ + desc->offset),
            desc->byte_size / sizeof(T)};
  }

  /// Drops this process's resident pages that lie wholly inside section
  /// `kind` (MADV_DONTNEED, page-rounded inward), for a caller that has
  /// consumed the section. The mapping stays valid: a later read faults
  /// the bytes back in from the file.
  void DropPages(SectionKind kind) const;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedSegment(uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace csj::persist

#endif  // CSJ_PERSIST_SEGMENT_H_
