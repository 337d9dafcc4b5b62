// Corruption-injection tests for csj_fsck: one flipped byte per region
// class (superblock, segment header, section table, every section
// payload, log header, log record) must surface a finding, a clean
// store must pass, and CRC-consistent semantic corruption must be
// caught by the deep recompute pass that checksums cannot see.

#include "persist/fsck.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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

/// Builds a store with a sealed segment (every artifact class present)
/// plus a log tail with both record kinds.
void BuildStore(const std::string& dir) {
  service::CommunityCatalog::Options options;
  options.warm_eps = 2;
  options.signatures = SignatureOptions{};
  service::CommunityCatalog catalog(options);
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

TEST(PersistFsckTest, CrcConsistentSemanticCorruptionNeedsDeepMode) {
  const std::string dir = FreshDir();
  BuildStore(dir);
  const std::string seg = dir + "/seg-1.csj";
  std::vector<uint8_t> bytes = ReadFile(seg);

  // Flip one counter in the kCounts payload, then REPAIR every checksum
  // above it (section CRC, table CRC, header CRC) so the file is
  // structurally immaculate. Only recomputation can catch this.
  SegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<SectionDesc> sections(header.section_count);
  std::memcpy(sections.data(), bytes.data() + sizeof(header),
              sections.size() * sizeof(SectionDesc));
  SectionDesc* counts = nullptr;
  for (SectionDesc& desc : sections) {
    if (desc.kind == static_cast<uint32_t>(SectionKind::kCounts)) {
      counts = &desc;
    }
  }
  ASSERT_NE(counts, nullptr);
  ASSERT_GT(counts->byte_size, 0u);
  bytes[counts->offset + counts->byte_size / 2] ^= 0x01;
  counts->crc = Crc32c(bytes.data() + counts->offset, counts->byte_size);
  std::memcpy(bytes.data() + sizeof(header), sections.data(),
              sections.size() * sizeof(SectionDesc));
  header.table_crc = Crc32c(bytes.data() + sizeof(header),
                            sections.size() * sizeof(SectionDesc));
  header.crc = Crc32c(&header, offsetof(SegmentHeader, crc));
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteFile(seg, bytes);

  // Structurally clean: the fast pass sees nothing.
  EXPECT_TRUE(Fsck(dir, /*deep=*/false).clean());
  // Deep recompute: the stored digest (and downstream artifacts) no
  // longer agree with the stored counters.
  const FsckReport deep = Fsck(dir, /*deep=*/true);
  EXPECT_FALSE(deep.clean());
}

}  // namespace
}  // namespace csj::persist
