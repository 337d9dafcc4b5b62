#ifndef CSJ_PERSIST_CRC32_H_
#define CSJ_PERSIST_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace csj::persist {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum guarding every persisted region: superblock, segment
/// header, section payloads, log records. On x86-64 CPUs with SSE4.2
/// (tested once per process) it runs the `crc32` instruction, 8 bytes
/// per step on one dependency chain (~4-5 GB/s); elsewhere a software
/// slice-by-8 over one 8 KiB table (~1 byte/cycle). Both give the same
/// value for every input. The open path CRCs the superblock, the
/// segment header and section table, and every record of the log tail;
/// segment payloads are csj_fsck's to sweep.
///
/// `seed` is the running CRC for incremental use (pass the previous
/// return value); a one-shot caller passes the default.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

}  // namespace csj::persist

#endif  // CSJ_PERSIST_CRC32_H_
