#include "common/crc32.h"

#include <array>

namespace hgdb::common {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table;
/// kTables[k][b] is the CRC of byte `b` followed by k zero bytes, so eight
/// lookups (one per input byte) advance the register by a whole word.
constexpr Tables make_tables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? kPolynomial : 0);
    }
    tables[0][i] = value;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

/// Little-endian load with no alignment requirement (compiles to one
/// load on little-endian targets).
inline uint32_t load_le32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t low = load_le32(bytes) ^ crc;
    const uint32_t high = load_le32(bytes + 4);
    crc = kTables[7][low & 0xffu] ^ kTables[6][(low >> 8) & 0xffu] ^
          kTables[5][(low >> 16) & 0xffu] ^ kTables[4][low >> 24] ^
          kTables[3][high & 0xffu] ^ kTables[2][(high >> 8) & 0xffu] ^
          kTables[1][(high >> 16) & 0xffu] ^ kTables[0][high >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xffu];
  }
  return ~crc;
}

}  // namespace hgdb::common
