#include "persist/crc32.h"

#include <array>

namespace csj::persist {
namespace {

/// 8 slice tables, built once at first use. Table 0 is the classic
/// byte-at-a-time table; table k folds a zero byte k positions further,
/// so 8 input bytes update the CRC with 8 independent table loads.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

/// Slice-by-8 over the inverted running CRC `crc`.
uint32_t UpdateSoftware(const uint8_t* p, size_t size, uint32_t crc) {
  const auto& t = GetTables().t;
  // Align to 8 so the slice loop reads whole words.
  while (size > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --size;
  }
  while (size >= 8) {
    // Little-endian word fold (the format is little-endian throughout;
    // big-endian hosts would need a byte-swapped load here).
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    word ^= crc;
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
          t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
          t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
          t[1][(word >> 48) & 0xFFu] ^ t[0][(word >> 56) & 0xFFu];
    p += 8;
    size -= 8;
  }
  while (size > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --size;
  }
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
/// The SSE4.2 `crc32` instruction computes exactly the table step above
/// (reflected Castagnoli, no pre- or post-inversion), 8 bytes per
/// instruction on one dependency chain.
__attribute__((target("sse4.2"))) uint32_t UpdateHardware(const uint8_t* p,
                                                          size_t size,
                                                          uint32_t crc) {
  while (size > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --size;
  }
  uint64_t wide = crc;
  while (size >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    wide = __builtin_ia32_crc32di(wide, word);
    p += 8;
    size -= 8;
  }
  crc = static_cast<uint32_t>(wide);
  while (size > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --size;
  }
  return crc;
}

/// Chosen once per process. A plain CPUID test rather than an ifunc, so
/// the sanitizer builds run the same path as Release.
bool HardwareCrc() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
}
#endif

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
#if defined(__x86_64__) && defined(__GNUC__)
  if (HardwareCrc()) return ~UpdateHardware(p, size, ~seed);
#endif
  return ~UpdateSoftware(p, size, ~seed);
}

}  // namespace csj::persist
