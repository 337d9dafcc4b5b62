#ifndef CSJ_PERSIST_FORMAT_H_
#define CSJ_PERSIST_FORMAT_H_

#include <cstdint>

namespace csj::persist {

/// On-disk layout of a catalog store directory. All integers are
/// LITTLE-ENDIAN, all structs are packed exactly as declared (static
/// asserts below pin the sizes); the mapped structs are read in place,
/// so the format is only openable on little-endian hosts — which is
/// every deployment target, and csj_fsck would reject a foreign file
/// anyway via its magic/CRC checks.
///
/// A store directory holds three file classes:
///
///   superblock.csj   the 64-byte commit record naming the current
///                    GENERATION G (written atomically: tmp + fsync +
///                    rename + directory fsync)
///   seg-<G>.csj      the sealed columnar segment of generation G
///                    (absent when G == 0: a fresh store that has never
///                    checkpointed)
///   log-<G>.csj      the append-only mutation log of everything after
///                    generation G's seal (absent until the first
///                    logged mutation)
///
/// A CHECKPOINT writes seg-<G+1> from the live catalog, fsyncs it,
/// commits a new superblock naming G+1, then deletes seg-<G> and
/// log-<G>. Crash at any point leaves either a complete generation G
/// (new files are garbage, ignored and deleted on next open) or a
/// complete generation G+1 (old files are garbage) — never a mix,
/// because readers only trust what the committed superblock names.

namespace detail {
constexpr uint64_t Magic(const char (&tag)[9]) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(tag[i]);
  }
  return value;
}
}  // namespace detail

inline constexpr uint64_t kSuperblockMagic = detail::Magic("CSJSUPR\0");
inline constexpr uint64_t kSegmentMagic = detail::Magic("CSJSEG1\0");
inline constexpr uint64_t kLogMagic = detail::Magic("CSJLOG1\0");
inline constexpr uint32_t kFormatVersion = 1;

/// Section payloads are aligned to 64 bytes inside the segment so every
/// mapped column starts cache-line aligned (the encoded columns are read
/// with unaligned vector loads regardless, but alignment keeps rows from
/// straddling lines gratuitously).
inline constexpr uint64_t kSectionAlign = 64;

/// The 64-byte commit record. crc covers bytes [0, 60).
struct Superblock {
  uint64_t magic = kSuperblockMagic;
  uint32_t format_version = kFormatVersion;
  uint32_t reserved0 = 0;
  uint64_t generation = 0;
  uint8_t reserved1[36] = {};
  uint32_t crc = 0;
};
static_assert(sizeof(Superblock) == 64);

/// Segment flags. Every checkpoint sets kSegHasEncodings; a segment
/// without it still restores, the ingest path building the artifacts.
inline constexpr uint32_t kSegHasSignatures = 1u << 0;
inline constexpr uint32_t kSegHasEncodings = 1u << 1;

/// The 64-byte segment header; crc covers bytes [0, 60). The section
/// descriptor table (section_count * sizeof(SectionDesc) bytes,
/// table_crc-guarded) follows immediately at byte 64.
struct SegmentHeader {
  uint64_t magic = kSegmentMagic;
  uint32_t format_version = kFormatVersion;
  uint32_t section_count = 0;
  uint64_t entry_count = 0;
  /// The writer catalog's next version at seal time: every stored entry
  /// version is < next_version, and recovery resumes issuing from it.
  uint64_t next_version = 0;
  /// The catalog warm parameters the encoded sections were built for.
  /// RestoreInto refuses a catalog configured differently.
  uint32_t warm_eps = 0;
  uint32_t warm_parts = 0;
  /// SignatureOptions::quantiles the sketch tables were built with
  /// (meaningful iff kSegHasSignatures).
  uint32_t sig_quantiles = 0;
  uint32_t flags = 0;
  uint64_t file_size = 0;
  uint32_t table_crc = 0;  ///< CRC of the section descriptor table
  uint32_t crc = 0;
};
static_assert(sizeof(SegmentHeader) == 64);

/// Column kinds. The element type and expected length of each section
/// are fixed by its kind (n = entry_count, U = total users, C = total
/// counters, S = total sums = sum_i users_i * parts_i, W = total padded
/// window values, see the prefix sections):
enum class SectionKind : uint32_t {
  kIds = 1,           ///< uint64[n]   entry ids, strictly ascending
  kVersions = 2,      ///< uint64[n]   entry versions, unique
  kDims = 3,          ///< uint32[n]   d per entry, >= 1
  kFingerprints = 4,  ///< uint64[n]   digest fingerprints
  kMaxCounters = 5,   ///< uint32[n]   digest max counters
  kNamePrefix = 6,    ///< uint64[n+1] byte offsets into kNames
  kNames = 7,         ///< uint8[...]  concatenated entry names
  kUsersPrefix = 8,   ///< uint64[n+1] user-count prefix sums (total U)
  kCountsPrefix = 9,  ///< uint64[n+1] counter prefix sums (total C)
  kCounts = 10,       ///< uint32[C]   row-major community counters
  /// Reserved: uint32[n] sketched-user counts, written by older
  /// versions. Restore and fsck ignore it (every sketch covers its
  /// whole community).
  kSampled = 11,
  kSigPrefix = 12,    ///< uint64[n+1] sketch-table prefix sums
  kSigTables = 13,    ///< uint32[...] quantile tables, d_i*(q+1) each
  kSumsPrefix = 14,   ///< uint64[n+1] part-sum prefix sums (total S)
  kEncBIds = 15,      ///< uint64[U]   EncodedB encoded ids (sorted)
  kEncBReal = 16,     ///< uint32[U]   EncodedB real ids
  kEncBSums = 17,     ///< uint64[S]   EncodedB part sums
  kEncAMins = 18,     ///< uint64[U]   EncodedA encoded mins (sorted)
  kEncAMaxs = 19,     ///< uint64[U]   EncodedA encoded maxs
  kEncAReal = 20,     ///< uint32[U]   EncodedA real ids
  kEncACols = 21,     ///< uint64[2S]  EncodedA part-major lo/hi columns
  kWindowPrefix = 22, ///< uint64[n+1] padded-window prefix sums (total W)
  kEncAWindow = 23,   ///< uint32[W]   EncodedA verify windows (sorted order)
  /// Reserved: uint32[W] user-order community windows, written by older
  /// versions. Restore and fsck ignore it (no query reads one).
  kComWindow = 24,
};

/// One section descriptor (32 bytes). Payload bytes live at
/// [offset, offset + byte_size) in the file, offset % kSectionAlign == 0.
/// `crc` covers the payload; the open path trusts it unchecked (fsck
/// verifies), so a mapped segment is usable without touching a payload
/// page.
struct SectionDesc {
  uint32_t kind = 0;
  uint32_t elem_size = 0;
  uint64_t offset = 0;
  uint64_t byte_size = 0;
  uint32_t crc = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(SectionDesc) == 32);

/// The 32-byte log file header; crc covers bytes [0, 28).
struct LogHeader {
  uint64_t magic = kLogMagic;
  uint32_t format_version = kFormatVersion;
  uint32_t reserved = 0;
  /// The generation this log extends: records apply on top of
  /// seg-<generation>, and every upsert's version is >=
  /// that segment's next_version.
  uint64_t generation = 0;
  uint32_t reserved2 = 0;
  uint32_t crc = 0;
};
static_assert(sizeof(LogHeader) == 32);

/// Log record framing: an 8-byte prefix { uint32 payload_size,
/// uint32 payload_crc } followed by payload_size payload bytes. The
/// payload starts with a uint32 kind:
///
///   kUpsert: u32 kind, u32 d, u64 id, u64 version, u32 users,
///            u32 name_size, name bytes, users*d uint32 counters
///   kRemove: u32 kind, u32 reserved, u64 id
///
/// Records are not aligned; the reader walks them sequentially. Any
/// record whose prefix is short, whose payload is short, or whose CRC
/// mismatches marks the TORN TAIL: everything before it is the durable
/// prefix, everything from it on is discarded (csj_fsck --repair
/// truncates it; a reopened writer truncates before appending).
inline constexpr uint32_t kLogUpsert = 1;
inline constexpr uint32_t kLogRemove = 2;

struct LogRecordPrefix {
  uint32_t payload_size = 0;
  uint32_t payload_crc = 0;
};
static_assert(sizeof(LogRecordPrefix) == 8);

}  // namespace csj::persist

#endif  // CSJ_PERSIST_FORMAT_H_
