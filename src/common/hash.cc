#include "common/hash.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tcob {

namespace {

/// CRC-32C lookup table (polynomial 0x1EDC6F41, reflected 0x82F63B78).
std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

uint32_t Crc32cSoftware(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeCrc32cTable();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

// Compiled for SSE4.2 without a build flag; only called after the
// runtime check, so the binary still runs on CPUs without it.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                          size_t len,
                                                          uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool Crc32cHardwareAvailable() {
  static const bool kAvailable = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return kAvailable;
}

#else

uint32_t Crc32cHardware(const void* data, size_t len, uint32_t seed) {
  return Crc32cSoftware(data, len, seed);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  return Crc32cHardwareAvailable() ? Crc32cHardware(data, len, seed)
                                   : Crc32cSoftware(data, len, seed);
}

}  // namespace tcob
