// csj_fsck — offline verifier for a persistent catalog store.
//
// Walks superblock → sealed segment → mutation log. It checks the
// superblock and the segment's magics and header/section-table CRCs,
// then the section payload CRCs (the check the zero-copy open path
// deliberately skips), then the segment and log rules restore itself
// applies, through the same reader: column lengths, ascending ids,
// unique versions below next_version, prefix-sum steps and totals, and
// unique log-upsert versions at or above the sealed generation's
// horizon. Log framing and CRCs are checked on the way. --deep (the
// default) additionally recomputes every entry's digest and sketch table
// from the stored counters and requires them to equal the stored ones —
// CRCs prove the bytes are what was written, recomputation proves what
// was written is what the builders produce today. A segment holds no
// MinMax artifacts; an older segment's encoding sections are CRC-checked
// and otherwise ignored, as restore ignores them.
//
//   ./csj_fsck --dir=/var/lib/csj/store            # verify, exit 0/1
//   ./csj_fsck --dir=... --deep=false              # skip recomputation
//   ./csj_fsck --dir=... --repair                  # truncate a torn tail
//
// Exit codes: 0 clean (possibly with non-fatal notes — a torn log tail
// is expected crash residue), 1 corruption found, 2 usage error.

#include <cstdio>
#include <string>

#include "persist/fsck.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  csj::util::Flags flags;
  flags.Define("dir", "", "store directory to verify");
  flags.Define("deep", "true",
               "recompute digests and sketches from the stored "
               "counters and byte-compare");
  flags.Define("repair", "false",
               "truncate a torn log tail in place (the only mutation "
               "fsck ever performs)");
  if (!flags.Parse(argc, argv)) return 2;
  if (flags.GetString("dir").empty()) {
    std::fprintf(stderr, "csj_fsck: --dir is required\n");
    return 2;
  }

  csj::persist::FsckOptions options;
  options.dir = flags.GetString("dir");
  options.deep = flags.GetBool("deep");
  options.repair = flags.GetBool("repair");

  csj::persist::FsckReport report;
  if (!csj::persist::FsckStore(options, &report)) {
    std::fprintf(stderr, "csj_fsck: cannot walk %s\n", options.dir.c_str());
    return 2;
  }

  for (const csj::persist::FsckFinding& finding : report.findings) {
    std::printf("%s: %s\n", finding.fatal ? "CORRUPT" : "note",
                finding.message.c_str());
  }
  std::printf(
      "{\"store\": \"%s\", \"generation\": %llu, \"segment_entries\": %llu, "
      "\"log_records\": %llu, \"torn_tail_bytes\": %llu, \"repaired\": %s, "
      "\"deep\": %s, \"findings\": %zu, \"clean\": %s}\n",
      options.dir.c_str(), static_cast<unsigned long long>(report.generation),
      static_cast<unsigned long long>(report.segment_entries),
      static_cast<unsigned long long>(report.log_records),
      static_cast<unsigned long long>(report.torn_tail_bytes),
      report.repaired ? "true" : "false", options.deep ? "true" : "false",
      report.findings.size(), report.clean() ? "true" : "false");
  return report.clean() ? 0 : 1;
}
