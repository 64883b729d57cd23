#include "common/crc32.h"

#include <array>
#include <cstring>

namespace mahimahi {

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xedb88320: kTables[0]
// is the classic bytewise table, and kTables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table reads advance the CRC by eight
// input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables build_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = build_tables();

}  // namespace

std::uint32_t crc32_init() { return 0xffffffffu; }

std::uint32_t crc32_update(std::uint32_t state, BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);  // little-endian host
    std::memcpy(&hi, p + 4, 4);
    lo ^= state;
    state = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
            kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
            kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) state = kTables[0][(state ^ *p) & 0xff] ^ (state >> 8);
  return state;
}

std::uint32_t crc32_finish(std::uint32_t state) { return state ^ 0xffffffffu; }

std::uint32_t crc32(BytesView data) {
  return crc32_finish(crc32_update(crc32_init(), data));
}

}  // namespace mahimahi
