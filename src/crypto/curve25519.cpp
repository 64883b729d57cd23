#include "crypto/curve25519.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace mahimahi::crypto::curve {

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

constexpr FieldElement kZero = {};
constexpr FieldElement kOne = {{1, 0, 0, 0, 0}};
// d = -121665/121666, 2d and sqrt(-1) = 2^((p-1)/4).
constexpr FieldElement kD = {{0x34dca135978a3ULL, 0x1a8283b156ebdULL, 0x5e7a26001c029ULL,
                              0x739c663a03cbbULL, 0x52036cee2b6ffULL}};
constexpr FieldElement kTwoD = {{0x69b9426b2f159ULL, 0x35050762add7aULL, 0x3cf44c0038052ULL,
                                 0x6738cc7407977ULL, 0x2406d9dc56dffULL}};
constexpr FieldElement kSqrtM1 = {{0x61b274a0ea0b0ULL, 0x0d5a5fc8f189dULL, 0x7ef5e9cbd0c60ULL,
                                   0x78595a6804c9eULL, 0x2b8324804fc1dULL}};

// Carries every limb into its neighbour once (the top limb wraps with
// 2^255 ≡ 19). Inputs below 2^64 leave limbs below 2^51 + 2^18.
FieldElement weak_reduce(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                         std::uint64_t l3, std::uint64_t l4) {
  const std::uint64_t c0 = l0 >> 51, c1 = l1 >> 51, c2 = l2 >> 51, c3 = l3 >> 51,
                      c4 = l4 >> 51;
  return {{(l0 & kMask51) + c4 * 19, (l1 & kMask51) + c0, (l2 & kMask51) + c1,
           (l3 & kMask51) + c2, (l4 & kMask51) + c3}};
}

// Carry chain over five 128-bit column sums (each below 2^115).
FieldElement carry_wide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  r1 += static_cast<std::uint64_t>(r0 >> 51);
  r2 += static_cast<std::uint64_t>(r1 >> 51);
  r3 += static_cast<std::uint64_t>(r2 >> 51);
  r4 += static_cast<std::uint64_t>(r3 >> 51);
  // r4 < 2^111 for inputs below 2^54, so the wrapped carry times 19 fits.
  std::uint64_t out0 = (static_cast<std::uint64_t>(r0) & kMask51) +
                       static_cast<std::uint64_t>(r4 >> 51) * 19;
  std::uint64_t out1 = (static_cast<std::uint64_t>(r1) & kMask51) + (out0 >> 51);
  out0 &= kMask51;
  return {{out0, out1, static_cast<std::uint64_t>(r2) & kMask51,
           static_cast<std::uint64_t>(r3) & kMask51, static_cast<std::uint64_t>(r4) & kMask51}};
}

FieldElement fe_sq_n(FieldElement a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// Returns z^(2^250 - 1) and sets z11 = z^11: the shared prefix of the
// inversion and square-root addition chains.
FieldElement pow22501(const FieldElement& z, FieldElement& z11) {
  const FieldElement z2 = fe_sq(z);
  const FieldElement z9 = fe_mul(fe_sq_n(z2, 2), z);
  z11 = fe_mul(z9, z2);
  const FieldElement z5_0 = fe_mul(fe_sq(z11), z9);             // 2^5 - 1
  const FieldElement z10_0 = fe_mul(fe_sq_n(z5_0, 5), z5_0);     // 2^10 - 1
  const FieldElement z20_0 = fe_mul(fe_sq_n(z10_0, 10), z10_0);  // 2^20 - 1
  const FieldElement z40_0 = fe_mul(fe_sq_n(z20_0, 20), z20_0);  // 2^40 - 1
  const FieldElement z50_0 = fe_mul(fe_sq_n(z40_0, 10), z10_0);  // 2^50 - 1
  const FieldElement z100_0 = fe_mul(fe_sq_n(z50_0, 50), z50_0);
  const FieldElement z200_0 = fe_mul(fe_sq_n(z100_0, 100), z100_0);
  return fe_mul(fe_sq_n(z200_0, 50), z50_0);  // 2^250 - 1
}

// z^((p-5)/8) = z^(2^252 - 3), the exponent of the RFC 8032 square root.
FieldElement fe_pow22523(const FieldElement& z) {
  FieldElement z11;
  return fe_mul(fe_sq_n(pow22501(z, z11), 2), z);
}

}  // namespace

// ---------------------------------------------------------------------------
// Field
// ---------------------------------------------------------------------------

FieldElement fe_zero() { return kZero; }
FieldElement fe_one() { return kOne; }

bool fe_eq(const FieldElement& a, const FieldElement& b) {
  std::uint8_t ea[32], eb[32];
  fe_to_bytes(ea, a);
  fe_to_bytes(eb, b);
  return std::memcmp(ea, eb, 32) == 0;
}

bool fe_is_zero(const FieldElement& a) { return fe_eq(a, kZero); }

bool fe_is_odd(const FieldElement& a) {
  std::uint8_t e[32];
  fe_to_bytes(e, a);
  return (e[0] & 1) != 0;
}

FieldElement fe_add(const FieldElement& a, const FieldElement& b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3],
           a.v[4] + b.v[4]}};
}

FieldElement fe_sub(const FieldElement& a, const FieldElement& b) {
  // a + 16p - b keeps every limb positive for b below 2^55.
  constexpr std::uint64_t k16p0 = 16 * ((std::uint64_t{1} << 51) - 19);
  constexpr std::uint64_t k16pi = 16 * ((std::uint64_t{1} << 51) - 1);
  return weak_reduce(a.v[0] + k16p0 - b.v[0], a.v[1] + k16pi - b.v[1],
                     a.v[2] + k16pi - b.v[2], a.v[3] + k16pi - b.v[3],
                     a.v[4] + k16pi - b.v[4]);
}

FieldElement fe_neg(const FieldElement& a) { return fe_sub(kZero, a); }

FieldElement fe_mul(const FieldElement& a, const FieldElement& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  // Limb products at or above 2^255 wrap to the bottom times 19.
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;
  const u128 r0 = u128{a0} * b0 + u128{a1} * b4_19 + u128{a2} * b3_19 + u128{a3} * b2_19 +
                  u128{a4} * b1_19;
  const u128 r1 = u128{a0} * b1 + u128{a1} * b0 + u128{a2} * b4_19 + u128{a3} * b3_19 +
                  u128{a4} * b2_19;
  const u128 r2 = u128{a0} * b2 + u128{a1} * b1 + u128{a2} * b0 + u128{a3} * b4_19 +
                  u128{a4} * b3_19;
  const u128 r3 = u128{a0} * b3 + u128{a1} * b2 + u128{a2} * b1 + u128{a3} * b0 +
                  u128{a4} * b4_19;
  const u128 r4 = u128{a0} * b4 + u128{a1} * b3 + u128{a2} * b2 + u128{a3} * b1 +
                  u128{a4} * b0;
  return carry_wide(r0, r1, r2, r3, r4);
}

FieldElement fe_sq(const FieldElement& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2;
  const std::uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;
  const u128 r0 = u128{a0} * a0 + u128{d1} * a4_19 + u128{d2} * a3_19;
  const u128 r1 = u128{d0} * a1 + u128{d2} * a4_19 + u128{a3} * a3_19;
  const u128 r2 = u128{d0} * a2 + u128{a1} * a1 + u128{2 * a3} * a4_19;
  const u128 r3 = u128{d0} * a3 + u128{d1} * a2 + u128{a4} * a4_19;
  const u128 r4 = u128{d0} * a4 + u128{d1} * a3 + u128{a2} * a2;
  return carry_wide(r0, r1, r2, r3, r4);
}

FieldElement fe_invert(const FieldElement& a) {
  FieldElement z11;
  return fe_mul(fe_sq_n(pow22501(a, z11), 5), z11);  // 2^255 - 21 = p - 2
}

FieldElement fe_from_bytes(const std::uint8_t bytes[32]) {
  std::uint64_t w[4];
  std::memcpy(w, bytes, 32);  // little-endian host
  return {{w[0] & kMask51, ((w[0] >> 51) | (w[1] << 13)) & kMask51,
           ((w[1] >> 38) | (w[2] << 26)) & kMask51, ((w[2] >> 25) | (w[3] << 39)) & kMask51,
           (w[3] >> 12) & kMask51}};
}

void fe_to_bytes(std::uint8_t out[32], const FieldElement& a) {
  FieldElement r = weak_reduce(a.v[0], a.v[1], a.v[2], a.v[3], a.v[4]);
  // Now r < 2^255 + 2^222 < 2p, so q = 1 iff r >= p: add 19 and watch the
  // carry out of bit 255.
  std::uint64_t q = (r.v[0] + 19) >> 51;
  q = (r.v[1] + q) >> 51;
  q = (r.v[2] + q) >> 51;
  q = (r.v[3] + q) >> 51;
  q = (r.v[4] + q) >> 51;
  r.v[0] += 19 * q;
  r.v[1] += r.v[0] >> 51;
  r.v[0] &= kMask51;
  r.v[2] += r.v[1] >> 51;
  r.v[1] &= kMask51;
  r.v[3] += r.v[2] >> 51;
  r.v[2] &= kMask51;
  r.v[4] += r.v[3] >> 51;
  r.v[3] &= kMask51;
  r.v[4] &= kMask51;  // drops the 2^255 that stands for the subtracted p
  const std::uint64_t w[4] = {r.v[0] | (r.v[1] << 51), (r.v[1] >> 13) | (r.v[2] << 38),
                              (r.v[2] >> 26) | (r.v[3] << 25), (r.v[3] >> 39) | (r.v[4] << 12)};
  std::memcpy(out, w, 32);
}

// ---------------------------------------------------------------------------
// Group
// ---------------------------------------------------------------------------

namespace {

// Completed point ((X : Z), (Y : T)): the output of an addition or
// doubling before it is mapped back with three or four multiplications.
struct Completed {
  FieldElement x, y, z, t;
};

// Projective (X : Y : Z): what a doubling needs when no addition follows.
struct Projective {
  FieldElement x, y, z;
};

// Cached second operand of an addition: (Y+X, Y-X, Z, 2dT).
struct Cached {
  FieldElement y_plus_x, y_minus_x, z, t2d;
};

// Affine precomputed operand (y+x, y-x, 2dxy), i.e. a cached point with
// Z = 1: one multiplication cheaper per addition.
struct Niels {
  FieldElement y_plus_x, y_minus_x, xy2d;
};

GroupElement to_extended(const Completed& c) {
  return {fe_mul(c.x, c.t), fe_mul(c.y, c.z), fe_mul(c.z, c.t), fe_mul(c.x, c.y)};
}

Projective to_projective(const Completed& c) {
  return {fe_mul(c.x, c.t), fe_mul(c.y, c.z), fe_mul(c.z, c.t)};
}

Projective to_projective(const GroupElement& p) { return {p.x, p.y, p.z}; }

Cached to_cached(const GroupElement& p) {
  return {fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z, fe_mul(p.t, kTwoD)};
}

Cached negate(const Cached& c) { return {c.y_minus_x, c.y_plus_x, c.z, fe_neg(c.t2d)}; }

Niels negate(const Niels& n) { return {n.y_minus_x, n.y_plus_x, fe_neg(n.xy2d)}; }

Completed add(const GroupElement& p, const Cached& q) {
  const FieldElement a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const FieldElement b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const FieldElement c = fe_mul(q.t2d, p.t);
  const FieldElement zz = fe_mul(p.z, q.z);
  const FieldElement d = fe_add(zz, zz);
  return {fe_sub(b, a), fe_add(b, a), fe_add(d, c), fe_sub(d, c)};
}

Completed add(const GroupElement& p, const Niels& q) {
  const FieldElement a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const FieldElement b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const FieldElement c = fe_mul(q.xy2d, p.t);
  const FieldElement d = fe_add(p.z, p.z);
  return {fe_sub(b, a), fe_add(b, a), fe_add(d, c), fe_sub(d, c)};
}

// Dedicated doubling (a = -1): 4 squarings, no multiplication by d.
Completed dbl(const Projective& p) {
  const FieldElement xx = fe_sq(p.x);
  const FieldElement yy = fe_sq(p.y);
  const FieldElement zz = fe_sq(p.z);
  const FieldElement zz2 = fe_add(zz, zz);
  const FieldElement sum = fe_sq(fe_add(p.x, p.y));  // (X+Y)^2
  const FieldElement y3 = fe_add(yy, xx);
  const FieldElement z3 = fe_sub(yy, xx);
  return {fe_sub(sum, y3), y3, z3, fe_sub(zz2, z3)};
}

// Affine Niels forms of `points`, sharing one field inversion across all of
// them (Montgomery's trick). Used once per table.
std::vector<Niels> to_niels(const std::vector<GroupElement>& points) {
  std::vector<FieldElement> prefix(points.size());
  FieldElement acc = kOne;
  for (std::size_t i = 0; i < points.size(); ++i) {
    prefix[i] = acc;
    acc = fe_mul(acc, points[i].z);
  }
  FieldElement inv = fe_invert(acc);
  std::vector<Niels> out(points.size());
  for (std::size_t i = points.size(); i-- > 0;) {
    const FieldElement z_inv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, points[i].z);
    const FieldElement x = fe_mul(points[i].x, z_inv);
    const FieldElement y = fe_mul(points[i].y, z_inv);
    out[i] = {fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), kTwoD)};
  }
  return out;
}

// Width of the NAF digits for a variable point (odd multiples up to 15P) and
// for the base point in joint sums (odd multiples up to 127B, precomputed).
constexpr int kVarWindow = 5;
constexpr int kBaseWindow = 8;
constexpr int kNafDigits = 257;  // a 256-bit scalar plus a final carry

// Odd multiples P, 3P, ..., (2^(w-1) - 1)P.
std::vector<GroupElement> odd_multiples(const GroupElement& p, int count) {
  std::vector<GroupElement> out(count);
  out[0] = p;
  const Cached two_p = to_cached(to_extended(dbl(to_projective(p))));
  for (int i = 1; i < count; ++i) out[i] = to_extended(add(out[i - 1], two_p));
  return out;
}

struct BaseTables {
  // radix16[i][j] = (j + 1) * 16^(2i) * B: signed radix-16 digits for [k]B.
  Niels radix16[32][8];
  // odd[j] = (2j + 1) * B: width-8 NAF digits for the B term of joint sums.
  Niels odd[1 << (kBaseWindow - 2)];
};

const BaseTables& base_tables() {
  static const BaseTables tables = [] {
    std::vector<GroupElement> points;
    points.reserve(32 * 8);
    GroupElement row_base = ge_base();  // 256^i * B
    for (int i = 0; i < 32; ++i) {
      const Cached step = to_cached(row_base);
      GroupElement multiple = row_base;
      for (int j = 0; j < 8; ++j) {
        points.push_back(multiple);
        multiple = to_extended(add(multiple, step));
      }
      for (int k = 0; k < 8; ++k) row_base = to_extended(dbl(to_projective(row_base)));
    }
    const std::vector<GroupElement> odd = odd_multiples(ge_base(), 1 << (kBaseWindow - 2));
    points.insert(points.end(), odd.begin(), odd.end());

    const std::vector<Niels> niels = to_niels(points);
    BaseTables out;
    for (int i = 0; i < 32; ++i) {
      for (int j = 0; j < 8; ++j) out.radix16[i][j] = niels[i * 8 + j];
    }
    for (int j = 0; j < (1 << (kBaseWindow - 2)); ++j) out.odd[j] = niels[32 * 8 + j];
    return out;
  }();
  return tables;
}

// Width-w non-adjacent form of a 256-bit little-endian scalar: every digit
// is zero or odd with |digit| < 2^(w-1), and any w consecutive digits hold
// at most one nonzero. Returns one past the highest nonzero digit.
int wnaf(std::int8_t naf[kNafDigits], const std::uint64_t scalar[4], int w) {
  std::uint64_t x[6] = {scalar[0], scalar[1], scalar[2], scalar[3], 0, 0};
  std::memset(naf, 0, kNafDigits);
  const std::uint64_t width = std::uint64_t{1} << w;
  const std::uint64_t mask = width - 1;
  std::uint64_t carry = 0;
  int top = 0;
  for (int pos = 0; pos < kNafDigits;) {
    const int limb = pos / 64;
    const int bit = pos % 64;
    const std::uint64_t bits =
        bit + w <= 64 ? x[limb] >> bit : (x[limb] >> bit) | (x[limb + 1] << (64 - bit));
    const std::uint64_t window = carry + (bits & mask);
    if ((window & 1) == 0) {
      pos += 1;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<std::int64_t>(window) -
                                          static_cast<std::int64_t>(width));
    }
    top = pos + 1;
    pos += w;
  }
  return top;
}

// [base] B + sum [scalars[i]] points[i] (base may be null), variable time:
// each point gets a table of odd multiples, and one chain of doublings adds
// in every term's NAF digits as it passes them. The scalars may hold any
// 256-bit value, reduced mod L or not.
GroupElement straus(std::span<const Scalar> scalars, std::span<const GroupElement> points,
                    const Scalar* base) {
  const std::size_t n = scalars.size();
  constexpr int kVarTable = 1 << (kVarWindow - 2);
  std::vector<std::int8_t> nafs((n + 1) * kNafDigits);
  std::vector<Cached> tables(n * kVarTable);
  int top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    top = std::max(top, wnaf(nafs.data() + i * kNafDigits, scalars[i].v, kVarWindow));
    const std::vector<GroupElement> multiples = odd_multiples(points[i], kVarTable);
    for (int j = 0; j < kVarTable; ++j) tables[i * kVarTable + j] = to_cached(multiples[j]);
  }
  std::int8_t* base_naf = nafs.data() + n * kNafDigits;
  if (base != nullptr) top = std::max(top, wnaf(base_naf, base->v, kBaseWindow));
  const Niels* base_odd = base != nullptr ? base_tables().odd : nullptr;

  Projective r = to_projective(ge_identity());
  for (int bit = top - 1; bit >= 0; --bit) {
    Completed acc = dbl(r);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int8_t digit = nafs[i * kNafDigits + bit];
      if (digit == 0) continue;
      const Cached& q = tables[i * kVarTable + (digit > 0 ? digit : -digit) / 2];
      acc = add(to_extended(acc), digit > 0 ? q : negate(q));
    }
    if (const std::int8_t digit = base_naf[bit]; digit != 0) {
      const Niels& q = base_odd[(digit > 0 ? digit : -digit) / 2];
      acc = add(to_extended(acc), digit > 0 ? q : negate(q));
    }
    if (bit == 0) return to_extended(acc);
    r = to_projective(acc);
  }
  return ge_identity();  // every scalar was zero
}

}  // namespace

GroupElement ge_identity() { return GroupElement{kZero, kOne, kOne, kZero}; }

bool ge_is_identity(const GroupElement& p) {
  // x/z == 0 and y/z == 1  ⟺  x == 0 and y == z.
  return fe_is_zero(p.x) && fe_eq(p.y, p.z);
}

bool ge_eq(const GroupElement& p, const GroupElement& q) {
  return fe_eq(fe_mul(p.x, q.z), fe_mul(q.x, p.z)) &&
         fe_eq(fe_mul(p.y, q.z), fe_mul(q.y, p.z));
}

GroupElement ge_add(const GroupElement& p, const GroupElement& q) {
  return to_extended(add(p, to_cached(q)));
}

GroupElement ge_sub(const GroupElement& p, const GroupElement& q) {
  return to_extended(add(p, negate(to_cached(q))));
}

GroupElement ge_neg(const GroupElement& p) {
  return GroupElement{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

GroupElement ge_scalar_mult(const std::uint8_t scalar_le[32], const GroupElement& p) {
  Scalar k;
  std::memcpy(k.v, scalar_le, 32);  // all 256 bits, not reduced mod L
  return straus({&k, 1}, {&p, 1}, nullptr);
}

void ge_compress(std::uint8_t out[32], const GroupElement& p) {
  const FieldElement z_inv = fe_invert(p.z);
  const FieldElement x = fe_mul(p.x, z_inv);
  const FieldElement y = fe_mul(p.y, z_inv);
  fe_to_bytes(out, y);
  if (fe_is_odd(x)) out[31] |= 0x80;
}

CompressedPoint ge_compressed(const GroupElement& p) {
  CompressedPoint out;
  ge_compress(out.data(), p);
  return out;
}

std::optional<GroupElement> ge_decompress(const std::uint8_t in[32]) {
  std::uint8_t y_bytes[32];
  std::memcpy(y_bytes, in, 32);
  const bool sign = (y_bytes[31] & 0x80) != 0;
  y_bytes[31] &= 0x7f;

  const FieldElement y = fe_from_bytes(y_bytes);
  std::uint8_t canonical[32];
  fe_to_bytes(canonical, y);
  if (std::memcmp(canonical, y_bytes, 32) != 0) return std::nullopt;  // y >= p

  // x^2 = (y^2 - 1) / (d y^2 + 1)
  const FieldElement y2 = fe_sq(y);
  const FieldElement u = fe_sub(y2, kOne);
  const FieldElement v = fe_add(fe_mul(kD, y2), kOne);

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const FieldElement v3 = fe_mul(fe_sq(v), v);
  const FieldElement v7 = fe_mul(fe_sq(v3), v);
  FieldElement x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const FieldElement vx2 = fe_mul(v, fe_sq(x));
  if (fe_eq(vx2, u)) {
    // x is a root.
  } else if (fe_eq(vx2, fe_neg(u))) {
    x = fe_mul(x, kSqrtM1);
  } else {
    return std::nullopt;  // not a curve point
  }

  if (fe_is_zero(x) && sign) return std::nullopt;  // -0 is not a valid encoding
  if (fe_is_odd(x) != sign) x = fe_neg(x);

  GroupElement out;
  out.x = x;
  out.y = y;
  out.z = kOne;
  out.t = fe_mul(x, y);
  return out;
}

const GroupElement& ge_base() {
  // y = 4/5, x the even root.
  static constexpr GroupElement b = {
      {{0x62d608f25d51aULL, 0x412a4b4f6592aULL, 0x75b7171a4b31dULL, 0x1ff60527118feULL,
        0x216936d3cd6e5ULL}},
      {{0x6666666666658ULL, 0x4ccccccccccccULL, 0x1999999999999ULL, 0x3333333333333ULL,
        0x6666666666666ULL}},
      kOne,
      {{0x68ab3a5b7dda3ULL, 0x00eea2a5eadbbULL, 0x2af8df483c27eULL, 0x332b375274732ULL,
        0x67875f0fd78b7ULL}}};
  return b;
}

GroupElement ge_mul_cofactor(const GroupElement& p) {
  Projective r = to_projective(dbl(to_projective(p)));
  r = to_projective(dbl(r));
  return to_extended(dbl(r));
}

// ---------------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------------

namespace {

// L, little-endian limbs.
constexpr std::uint64_t kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0ULL,
                                 0x1000000000000000ULL};
// floor(2^512 / L), the Barrett constant.
constexpr std::uint64_t kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                                  0xffffffffffffffebULL, 0xffffffffffffffffULL, 0xfULL};

bool sc_gte_l(const Scalar& a) {
  for (int i = 3; i >= 0; --i) {
    if (a.v[i] != kL[i]) return a.v[i] > kL[i];
  }
  return true;
}

Scalar sc_sub_l(const Scalar& a) {
  Scalar out;
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 cur = static_cast<unsigned __int128>(a.v[i]) - kL[i] - borrow;
    out.v[i] = static_cast<std::uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return out;
}

// The low `nout` limbs of a * b.
void mul_limbs(const std::uint64_t* a, int na, const std::uint64_t* b, int nb,
               std::uint64_t* out, int nout) {
  std::memset(out, 0, sizeof(std::uint64_t) * nout);
  for (int i = 0; i < na && i < nout; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < nb && i + j < nout; ++j) {
      const u128 cur = u128{a[i]} * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    if (i + nb < nout) out[i + nb] = carry;
  }
}

// Reduce a 512-bit little-endian value mod L by Barrett reduction
// (HAC 14.42, base 2^64, k = 4): q = floor(floor(x / 2^192) mu / 2^320)
// undershoots floor(x / L) by at most 2, so x - qL < 3L.
Scalar sc_reduce512(const std::uint64_t x[8]) {
  std::uint64_t q2[10];
  mul_limbs(x + 3, 5, kMu, 5, q2, 10);
  std::uint64_t qL[5];
  mul_limbs(q2 + 5, 5, kL, 4, qL, 5);
  std::uint64_t r[5];
  std::uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 cur = u128{x[i]} - qL[i] - borrow;
    r[i] = static_cast<std::uint64_t>(cur);
    borrow = static_cast<std::uint64_t>(cur >> 64) & 1;
  }
  // The true remainder is below 3L < 2^255, so r[4] is zero here.
  Scalar out = {{r[0], r[1], r[2], r[3]}};
  while (sc_gte_l(out)) out = sc_sub_l(out);
  return out;
}

}  // namespace

bool Scalar::operator==(const Scalar& other) const {
  return std::memcmp(v, other.v, sizeof(v)) == 0;
}

Scalar sc_zero() { return Scalar{}; }
Scalar sc_one() { return Scalar{{1, 0, 0, 0}}; }

Scalar sc_from_u64(std::uint64_t x) { return Scalar{{x, 0, 0, 0}}; }

bool sc_is_zero(const Scalar& a) { return a == Scalar{}; }

Scalar sc_add(const Scalar& a, const Scalar& b) {
  Scalar out;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 cur = static_cast<unsigned __int128>(a.v[i]) + b.v[i] + carry;
    out.v[i] = static_cast<std::uint64_t>(cur);
    carry = cur >> 64;
  }
  // Inputs are < L < 2^253, so the sum is < 2^254: no carry out, and at most
  // one subtraction of L is needed.
  if (sc_gte_l(out)) out = sc_sub_l(out);
  return out;
}

Scalar sc_sub(const Scalar& a, const Scalar& b) { return sc_add(a, sc_neg(b)); }

Scalar sc_neg(const Scalar& a) {
  if (sc_is_zero(a)) return a;
  Scalar l = {{kL[0], kL[1], kL[2], kL[3]}};
  unsigned __int128 borrow = 0;
  Scalar out;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 cur = static_cast<unsigned __int128>(l.v[i]) - a.v[i] - borrow;
    out.v[i] = static_cast<std::uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return out;
}

Scalar sc_mul(const Scalar& a, const Scalar& b) { return sc_mul_add(a, b, Scalar{}); }

Scalar sc_mul_add(const Scalar& a, const Scalar& b, const Scalar& c) {
  // a*b + c as a 512-bit value, then reduce.
  std::uint64_t z[8];
  mul_limbs(a.v, 4, b.v, 4, z, 8);
  std::uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 cur = u128{z[i]} + (i < 4 ? c.v[i] : 0) + carry;
    z[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  return sc_reduce512(z);
}

Scalar sc_invert(const Scalar& a) {
  // Fermat: a^(L-2). L - 2 differs from L only in the low limb.
  static constexpr std::uint64_t kExp[4] = {0x5812631a5cf5d3ebULL, 0x14def9dea2f79cd6ULL,
                                            0ULL, 0x1000000000000000ULL};
  Scalar result = sc_one();
  bool started = false;
  for (int limb = 3; limb >= 0; --limb) {
    for (int bit = 63; bit >= 0; --bit) {
      if (started) result = sc_mul(result, result);
      if ((kExp[limb] >> bit) & 1) {
        result = sc_mul(result, a);
        started = true;
      }
    }
  }
  return result;
}

Scalar sc_from_bytes64(const std::uint8_t bytes[64]) {
  std::uint64_t x[8];
  std::memcpy(x, bytes, 64);
  return sc_reduce512(x);
}

Scalar sc_from_bytes32(const std::uint8_t bytes[32]) {
  std::uint64_t x[8] = {};
  std::memcpy(x, bytes, 32);
  return sc_reduce512(x);
}

std::optional<Scalar> sc_from_bytes32_strict(const std::uint8_t bytes[32]) {
  Scalar s;
  std::memcpy(s.v, bytes, 32);
  if (sc_gte_l(s)) return std::nullopt;
  return s;
}

void sc_to_bytes(std::uint8_t out[32], const Scalar& s) { std::memcpy(out, s.v, 32); }

GroupElement ge_scalar_mult(const Scalar& s, const GroupElement& p) {
  return straus({&s, 1}, {&p, 1}, nullptr);
}

GroupElement ge_scalar_mult_base(const Scalar& scalar) {
  // [s]B = [s mod L]B as B has order L. Reducing keeps s < 2^253, so in the
  // signed radix-16 digits e[i] in [-8, 8], s = sum e[i] 16^i, the last
  // carry fits e[63] and every digit indexes the table.
  Scalar s = scalar;
  while (sc_gte_l(s)) s = sc_sub_l(s);
  std::uint8_t bytes[32];
  sc_to_bytes(bytes, s);
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(bytes[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(bytes[i] >> 4);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  const BaseTables& tables = base_tables();
  const auto add_digit = [&](GroupElement& r, int i) {
    if (e[i] == 0) return;
    const Niels& q = tables.radix16[i / 2][(e[i] > 0 ? e[i] : -e[i]) - 1];
    r = to_extended(add(r, e[i] > 0 ? q : negate(q)));
  };
  // Odd digits first, scaled by 16 with four doublings, then even digits:
  // digit i of row i/2 then carries its 16^(i mod 2) factor.
  GroupElement r = ge_identity();
  for (int i = 1; i < 64; i += 2) add_digit(r, i);
  Projective p = to_projective(r);
  for (int k = 0; k < 3; ++k) p = to_projective(dbl(p));
  r = to_extended(dbl(p));
  for (int i = 0; i < 64; i += 2) add_digit(r, i);
  return r;
}

GroupElement ge_multiscalar_mult(std::span<const Scalar> scalars,
                                 std::span<const GroupElement> points,
                                 const Scalar& base_scalar) {
  return straus(scalars, points, &base_scalar);
}

}  // namespace mahimahi::crypto::curve
