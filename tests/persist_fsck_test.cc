// Corruption-injection tests for csj_fsck: one flipped byte per region
// class (superblock, segment header, section table, every section
// payload, log header, log record) must surface a finding, a clean
// store must pass, and CRC-consistent semantic corruption must be
// caught by the deep recompute pass that checksums cannot see. Restore
// and fsck read a segment through one reader, so a duplicate version
// behind valid CRCs fails both, and the segment-open fuzz test requires
// every single-byte flip to fail the open or restore, restore
// identically, or fail fsck. The log-decode fuzz test flips and cuts the
// mutation log: each case must fail the open or restore, or restore
// exactly the surviving valid record prefix with the torn byte count
// fsck reports.

#include "persist/fsck.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/signature.h"
#include "data/generator.h"
#include "persist/crc32.h"
#include "persist/format.h"
#include "persist/segment.h"
#include "persist/store.h"
#include "service/catalog.h"
#include "service/deep_compare.h"
#include "test_seed.h"
#include "util/rng.h"

namespace csj::persist {
namespace {

Community MakeTestCommunity(uint32_t size, uint64_t salt) {
  util::Rng rng(testing::TestSeed(salt));
  data::VkLikeGenerator gen(data::Category::kSport);
  return data::MakeCommunity(gen, size, rng);
}

std::string FreshDir() {
  std::string tmpl = ::testing::TempDir() + "csj_fsck_XXXXXX";
  const char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

service::CommunityCatalog::Options CatalogOpts() {
  service::CommunityCatalog::Options options;
  options.warm_eps = 2;
  options.signatures = SignatureOptions{};
  return options;
}

/// Builds a store with a sealed segment (every artifact class present)
/// plus a log tail with both record kinds.
void BuildStore(const std::string& dir) {
  service::CommunityCatalog catalog(CatalogOpts());
  for (uint64_t id = 1; id <= 12; ++id) {
    catalog.Upsert(id, MakeTestCommunity(10 + static_cast<uint32_t>(id % 6),
                                         id));
  }
  StoreOptions store_options;
  store_options.dir = dir;
  std::string error;
  auto store = Store::Open(store_options, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Checkpoint(catalog, &error)) << error;
  ASSERT_TRUE(store->StartLogging(&catalog, &error)) << error;
  catalog.Upsert(50, MakeTestCommunity(14, 50));
  catalog.Upsert(3, MakeTestCommunity(18, 51));
  catalog.Remove(9);
  store->StopLogging(&catalog);
}

FsckReport Fsck(const std::string& dir, bool deep = true) {
  FsckOptions options;
  options.dir = dir;
  options.deep = deep;
  FsckReport report;
  EXPECT_TRUE(FsckStore(options, &report));
  return report;
}

void FlipByte(const std::string& path, size_t offset) {
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_LT(offset, bytes.size()) << path;
  bytes[offset] ^= 0x40;
  WriteFile(path, bytes);
}

TEST(PersistFsckTest, CleanStorePassesDeepVerification) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  const FsckReport report = Fsck(dir);
  EXPECT_TRUE(report.clean())
      << (report.findings.empty() ? "" : report.findings[0].message);
  EXPECT_EQ(report.findings.size(), 0u);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.segment_entries, 12u);
  EXPECT_EQ(report.log_records, 3u);
}

TEST(PersistFsckTest, FlippedSuperblockByteIsFatal) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  // Byte 3 sits inside the magic; byte 40 inside reserved bytes the CRC
  // still covers — both corruptions must be fatal.
  for (const size_t offset : {size_t{3}, size_t{40}}) {
    SCOPED_TRACE("superblock byte " + std::to_string(offset));
    const std::vector<uint8_t> pristine = ReadFile(dir + "/superblock.csj");
    FlipByte(dir + "/superblock.csj", offset);
    EXPECT_FALSE(Fsck(dir).clean());
    WriteFile(dir + "/superblock.csj", pristine);
  }
  EXPECT_TRUE(Fsck(dir).clean());
}

TEST(PersistFsckTest, FlippedSegmentHeaderAndTableBytesAreFatal) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  const std::string seg = dir + "/seg-1.csj";
  const std::vector<uint8_t> pristine = ReadFile(seg);
  // Header: entry_count field. Table: first descriptor's kind field.
  for (const size_t offset : {offsetof(SegmentHeader, entry_count),
                              sizeof(SegmentHeader)}) {
    SCOPED_TRACE("segment byte " + std::to_string(offset));
    FlipByte(seg, offset);
    EXPECT_FALSE(Fsck(dir).clean());
    WriteFile(seg, pristine);
  }
  EXPECT_TRUE(Fsck(dir).clean());
}

TEST(PersistFsckTest, FlippedByteInEverySectionPayloadIsFatal) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  const std::string seg = dir + "/seg-1.csj";
  const std::vector<uint8_t> pristine = ReadFile(seg);

  // Walk the real section table so the sweep covers every region class
  // the writer emitted — ids, versions, counters, sketches, encodings,
  // windows, all of them.
  std::string error;
  auto mapped = MappedSegment::Map(seg, false, false, &error);
  ASSERT_NE(mapped, nullptr) << error;
  std::vector<SectionDesc> sections(mapped->sections().begin(),
                                    mapped->sections().end());
  mapped.reset();
  EXPECT_GE(sections.size(), 20u);

  size_t covered = 0;
  for (const SectionDesc& desc : sections) {
    if (desc.byte_size == 0) continue;  // nothing to corrupt
    SCOPED_TRACE("section kind " + std::to_string(desc.kind));
    FlipByte(seg, desc.offset + desc.byte_size / 2);
    const FsckReport report = Fsck(dir, /*deep=*/false);
    EXPECT_FALSE(report.clean());  // payload CRC alone must catch it
    WriteFile(seg, pristine);
    ++covered;
  }
  EXPECT_GE(covered, 20u);
  EXPECT_TRUE(Fsck(dir).clean());
}

TEST(PersistFsckTest, FlippedLogBytesAreDetected) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  const std::string log = dir + "/log-1.csj";
  const std::vector<uint8_t> pristine = ReadFile(log);

  // Log header: structural, fatal.
  FlipByte(log, 10);
  EXPECT_FALSE(Fsck(dir).clean());
  WriteFile(log, pristine);

  // A flipped byte inside the FIRST record's payload fails that
  // record's CRC; the reader cannot distinguish it from a torn tail, so
  // fsck reports the tail (here: nearly the whole log) as a finding.
  FlipByte(log, sizeof(LogHeader) + sizeof(LogRecordPrefix) + 4);
  const FsckReport report = Fsck(dir);
  EXPECT_FALSE(report.findings.empty());
  EXPECT_GT(report.torn_tail_bytes, 0u);
  EXPECT_EQ(report.log_records, 0u);  // the whole tail is quarantined
  WriteFile(log, pristine);
  EXPECT_TRUE(Fsck(dir).clean());
}

/// Rewrites the payload of section `kind` in segment `seg` through
/// `mutate`, then REPAIRS every checksum above it (section CRC, table
/// CRC, header CRC) so the file stays structurally immaculate: only a
/// rule on the values themselves can catch the change.
void RewriteSectionUnderValidCrcs(
    const std::string& seg, SectionKind kind,
    const std::function<void(uint8_t* payload, size_t size)>& mutate) {
  std::vector<uint8_t> bytes = ReadFile(seg);
  SegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<SectionDesc> sections(header.section_count);
  std::memcpy(sections.data(), bytes.data() + sizeof(header),
              sections.size() * sizeof(SectionDesc));
  SectionDesc* target = nullptr;
  for (SectionDesc& desc : sections) {
    if (desc.kind == static_cast<uint32_t>(kind)) target = &desc;
  }
  ASSERT_NE(target, nullptr);
  mutate(bytes.data() + target->offset, target->byte_size);
  target->crc = Crc32c(bytes.data() + target->offset, target->byte_size);
  std::memcpy(bytes.data() + sizeof(header), sections.data(),
              sections.size() * sizeof(SectionDesc));
  header.table_crc = Crc32c(bytes.data() + sizeof(header),
                            sections.size() * sizeof(SectionDesc));
  header.crc = Crc32c(&header, offsetof(SegmentHeader, crc));
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteFile(seg, bytes);
}

TEST(PersistFsckTest, CrcConsistentSemanticCorruptionNeedsDeepMode) {
  const std::string dir = FreshDir();
  BuildStore(dir);

  // Flip one counter in the kCounts payload behind valid CRCs. Only
  // recomputation can catch this.
  RewriteSectionUnderValidCrcs(
      dir + "/seg-1.csj", SectionKind::kCounts,
      [](uint8_t* payload, size_t size) {
        ASSERT_GT(size, 0u);
        payload[size / 2] ^= 0x01;
      });

  // Structurally clean: the fast pass sees nothing.
  EXPECT_TRUE(Fsck(dir, /*deep=*/false).clean());
  // Deep recompute: the stored digest (and downstream artifacts) no
  // longer agree with the stored counters.
  const FsckReport deep = Fsck(dir, /*deep=*/true);
  EXPECT_FALSE(deep.clean());
}

TEST(PersistFsckTest, RestoreAndFsckRejectADuplicateSegmentVersion) {
  // One entry takes its neighbour's version behind valid CRCs. Restore
  // would install both at that version; the shared reader refuses it for
  // restore and fsck alike, without the deep pass.
  const std::string dir = FreshDir();
  BuildStore(dir);
  RewriteSectionUnderValidCrcs(
      dir + "/seg-1.csj", SectionKind::kVersions,
      [](uint8_t* payload, size_t size) {
        ASSERT_GE(size, 2 * sizeof(uint64_t));
        std::memcpy(payload + sizeof(uint64_t), payload, sizeof(uint64_t));
      });

  StoreOptions options;
  options.dir = dir;
  std::string error;
  auto store = Store::Open(options, &error);
  ASSERT_NE(store, nullptr) << error;
  service::CommunityCatalog restored(CatalogOpts());
  EXPECT_FALSE(store->RestoreInto(&restored, &error));
  EXPECT_NE(error.find("run csj_fsck"), std::string::npos) << error;
  EXPECT_EQ(restored.size(), 0u);

  const FsckReport report = Fsck(dir, /*deep=*/false);
  EXPECT_FALSE(report.clean());
  bool named = false;
  for (const FsckFinding& finding : report.findings) {
    named = named || finding.message.find("share version") != std::string::npos;
  }
  EXPECT_TRUE(named);
}

TEST(PersistSegmentFuzzTest, EveryFlipFailsRestoresIdenticallyOrFailsFsck) {
  // Segment-open fuzzing: single-byte flips of every header and section
  // table byte, plus a fixed-seed sample of payload bytes. Each must end
  // in an Open or RestoreInto error, a restore identical to the written
  // catalog, or a non-clean fsck. None may abort: that would take the
  // whole binary down.
  const std::string dir = FreshDir();
  service::CommunityCatalog written(CatalogOpts());
  for (uint64_t id = 1; id <= 8; ++id) {
    written.Upsert(id, MakeTestCommunity(9 + static_cast<uint32_t>(id), id));
  }
  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(written, &error)) << error;
  }
  const std::string seg = dir + "/seg-1.csj";
  const std::vector<uint8_t> pristine = ReadFile(seg);
  SegmentHeader header;
  std::memcpy(&header, pristine.data(), sizeof(header));
  const size_t table_end =
      sizeof(SegmentHeader) + header.section_count * sizeof(SectionDesc);
  ASSERT_LT(table_end, pristine.size());

  // The payload sample: 32 bytes of every section, so each column and
  // prefix is hit, plus 256 anywhere past the table (padding included).
  util::Rng rng(testing::TestSeed(23));
  std::vector<size_t> offsets(table_end);
  std::iota(offsets.begin(), offsets.end(), size_t{0});
  std::vector<SectionDesc> sections(header.section_count);
  std::memcpy(sections.data(), pristine.data() + sizeof(header),
              sections.size() * sizeof(SectionDesc));
  for (const SectionDesc& desc : sections) {
    for (int sample = 0; sample < 32 && desc.byte_size > 0; ++sample) {
      offsets.push_back(desc.offset + rng() % desc.byte_size);
    }
  }
  for (int sample = 0; sample < 256; ++sample) {
    offsets.push_back(table_end + rng() % (pristine.size() - table_end));
  }
  size_t refused = 0;
  for (const size_t offset : offsets) {
    std::vector<uint8_t> bytes = pristine;
    bytes[offset] ^= static_cast<uint8_t>(1 + rng() % 255);
    WriteFile(seg, bytes);
    auto store = Store::Open(options, &error);
    service::CommunityCatalog restored(CatalogOpts());
    if (store == nullptr || !store->RestoreInto(&restored, &error)) {
      ++refused;
      continue;
    }
    if (service::CatalogsIdentical(written, restored, /*eps=*/2, 0.1)) {
      continue;
    }
    EXPECT_FALSE(Fsck(dir, /*deep=*/false).clean())
        << "byte " << offset << " restored differently yet passed fsck";
  }
  // Every header and table flip breaks a CRC the open path checks, and
  // the reader's rules refuse some payload flips too.
  EXPECT_GT(refused, table_end);
  WriteFile(seg, pristine);
  EXPECT_TRUE(Fsck(dir).clean());
}

TEST(PersistLogFuzzTest, EveryFlipOrCutFailsOrRestoresTheValidPrefix) {
  // A sealed segment of 5 entries, then a log of upserts (new ids and
  // refreshes) and removes behind it.
  struct Op {
    bool remove = false;
    uint64_t id = 0;
    uint32_t size = 0;
  };
  const std::vector<Op> ops = {{false, 20, 9},  {false, 2, 12}, {true, 4, 0},
                               {false, 21, 11}, {true, 20, 0},  {false, 2, 8},
                               {false, 22, 10}, {true, 1, 0}};
  auto build = [&](service::CommunityCatalog* catalog, size_t records) {
    for (uint64_t id = 1; id <= 5; ++id) {
      catalog->Upsert(id, MakeTestCommunity(8 + static_cast<uint32_t>(id), id));
    }
    for (size_t i = 0; i < records; ++i) {
      if (ops[i].remove) {
        ASSERT_TRUE(catalog->Remove(ops[i].id));
      } else {
        catalog->Upsert(ops[i].id, MakeTestCommunity(ops[i].size, 100 + i));
      }
    }
  };
  const std::string dir = FreshDir();
  StoreOptions options;
  options.dir = dir;
  std::string error;
  {
    service::CommunityCatalog written(CatalogOpts());
    build(&written, 0);
    auto store = Store::Open(options, &error);
    ASSERT_NE(store, nullptr) << error;
    ASSERT_TRUE(store->Checkpoint(written, &error)) << error;
    ASSERT_TRUE(store->StartLogging(&written, &error)) << error;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].remove) {
        ASSERT_TRUE(written.Remove(ops[i].id));
      } else {
        written.Upsert(ops[i].id, MakeTestCommunity(ops[i].size, 100 + i));
      }
    }
    store->StopLogging(&written);
  }
  const std::string log = dir + "/log-1.csj";
  const std::vector<uint8_t> pristine = ReadFile(log);

  // ends[k]: byte length of the header plus the first k records.
  std::vector<size_t> ends = {sizeof(LogHeader)};
  while (ends.back() + sizeof(LogRecordPrefix) <= pristine.size()) {
    LogRecordPrefix prefix;
    std::memcpy(&prefix, pristine.data() + ends.back(), sizeof(prefix));
    ends.push_back(ends.back() + sizeof(prefix) + prefix.payload_size);
  }
  ASSERT_EQ(ends.back(), pristine.size());
  const size_t records = ends.size() - 1;

  // The oracle for each surviving prefix: the same history applied to a
  // plain in-RAM catalog.
  std::vector<std::unique_ptr<service::CommunityCatalog>> shadows(records + 1);
  auto shadow = [&](size_t k) -> const service::CommunityCatalog& {
    if (shadows[k] == nullptr) {
      shadows[k] = std::make_unique<service::CommunityCatalog>(CatalogOpts());
      build(shadows[k].get(), k);
    }
    return *shadows[k];
  };
  ASSERT_EQ(records, ops.size());

  // Writes `bytes` as the log; either Open/RestoreInto refuses it, or
  // the restore equals the first `valid` records and the torn count is
  // the bytes past `valid_end`, as fsck reports it. Returns whether the
  // store was refused.
  auto check = [&](const std::vector<uint8_t>& bytes, size_t valid,
                   size_t valid_end, const std::string& what) {
    WriteFile(log, bytes);
    OpenStats stats;
    auto store = Store::Open(options, &error, &stats);
    service::CommunityCatalog restored(CatalogOpts());
    if (store == nullptr || !store->RestoreInto(&restored, &error, &stats)) {
      return true;
    }
    EXPECT_EQ(stats.log_records_replayed, valid) << what;
    EXPECT_TRUE(service::CatalogsIdentical(shadow(valid), restored,
                                           /*eps=*/2, 0.1))
        << what;
    EXPECT_EQ(stats.log_torn_bytes, bytes.size() - valid_end) << what;
    EXPECT_EQ(stats.log_torn_bytes, Fsck(dir, /*deep=*/false).torn_tail_bytes)
        << what;
    return false;
  };

  // Cuts at every record boundary and one byte either side of it; a cut
  // inside the header leaves an empty log.
  EXPECT_FALSE(check({}, 0, 0, "cut at 0"));
  for (size_t k = 0; k <= records; ++k) {
    for (const size_t cut : {ends[k] - 1, ends[k], ends[k] + 1}) {
      if (cut > pristine.size()) continue;
      const size_t valid = cut >= ends[k] ? k : (k == 0 ? 0 : k - 1);
      const size_t valid_end = cut < ends[0] ? 0 : ends[valid];
      EXPECT_FALSE(check({pristine.begin(), pristine.begin() +
                                                static_cast<ptrdiff_t>(cut)},
                         valid, valid_end, "cut at " + std::to_string(cut)));
    }
  }

  // Flips: every header byte (each is CRC-covered or the CRC itself, so
  // every one must be refused), every record prefix byte, and a
  // fixed-seed sample of payload bytes. A flip inside record r ends the
  // valid prefix before r.
  util::Rng rng(testing::TestSeed(24));
  auto flip = [&](size_t offset) {
    std::vector<uint8_t> bytes = pristine;
    bytes[offset] ^= static_cast<uint8_t>(1 + rng() % 255);
    size_t r = 0;
    while (offset >= ends[r + 1]) ++r;
    return check(bytes, r, ends[r], "flip at " + std::to_string(offset));
  };
  for (size_t offset = 0; offset < sizeof(LogHeader); ++offset) {
    std::vector<uint8_t> bytes = pristine;
    bytes[offset] ^= static_cast<uint8_t>(1 + rng() % 255);
    EXPECT_TRUE(check(bytes, 0, 0, "header flip at " + std::to_string(offset)));
  }
  for (size_t r = 0; r < records; ++r) {
    for (size_t offset = ends[r]; offset < ends[r] + sizeof(LogRecordPrefix);
         ++offset) {
      EXPECT_FALSE(flip(offset));
    }
    const size_t payload = ends[r] + sizeof(LogRecordPrefix);
    for (int sample = 0; sample < 16; ++sample) {
      EXPECT_FALSE(flip(payload + rng() % (ends[r + 1] - payload)));
    }
  }
  WriteFile(log, pristine);
  EXPECT_TRUE(Fsck(dir).clean());
}

}  // namespace
}  // namespace csj::persist
