#ifndef HGDB_COMMON_CRC32_H
#define HGDB_COMMON_CRC32_H

#include <cstddef>
#include <cstdint>

namespace hgdb::common {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
/// Used by the .wvx waveform index for per-block integrity checksums.
/// Slicing-by-8: eight bytes per table step, bit-identical to the
/// bytewise table algorithm.
/// `seed` chains incremental computation: crc32(b, n2, crc32(a, n1)) equals
/// crc32 of the concatenation.
[[nodiscard]] uint32_t crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace hgdb::common

#endif  // HGDB_COMMON_CRC32_H
