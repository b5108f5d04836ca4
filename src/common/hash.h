#ifndef TCOB_COMMON_HASH_H_
#define TCOB_COMMON_HASH_H_

#include <cstdint>
#include <cstddef>

namespace tcob {

/// FNV-1a 64-bit hash; used for WAL framing checksums and hash tables.
inline uint64_t Fnv1a64(const void* data, size_t len,
                        uint64_t seed = 0xcbf29ce484222325ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline uint32_t Checksum32(const void* data, size_t len) {
  uint64_t h = Fnv1a64(data, len);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

/// CRC-32C (Castagnoli); used for the page checksum footers, the page
/// journal, the WAL and cold segments. `seed` chains incremental updates.
/// Runs the SSE4.2 `crc32` instruction when the CPU has it (checked once),
/// and the table-driven software CRC otherwise.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

/// The two implementations behind Crc32c, exposed so tests can hold them
/// to the same answers. Crc32cHardware may only be called when
/// Crc32cHardwareAvailable() is true (never on a non-x86-64 build).
uint32_t Crc32cSoftware(const void* data, size_t len, uint32_t seed = 0);
uint32_t Crc32cHardware(const void* data, size_t len, uint32_t seed = 0);
bool Crc32cHardwareAvailable();

}  // namespace tcob

#endif  // TCOB_COMMON_HASH_H_
