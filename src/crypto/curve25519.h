// Curve25519 arithmetic shared by Ed25519 signatures (crypto/ed25519.h) and
// the threshold VRF coin (crypto/threshold_vrf.h).
//
// Three layers, each a value type with free functions:
//   * FieldElement — GF(2^255 - 19) in radix 2^51: five 64-bit limbs, limb
//     products taken in 128 bits. Carries are lazy. fe_add only adds limbs;
//     fe_mul, fe_sq, fe_sub and fe_neg return limbs just above 2^51 that may
//     still hold a value >= p. Only encoding, comparison and parity reduce
//     to the canonical value below p. Every operation accepts limbs below
//     2^54, which covers a sum of up to eight such outputs.
//   * GroupElement — the twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 in
//     extended coordinates (X : Y : Z : T). Additions use the complete law
//     with the second operand in cached form (Y+X, Y-X, Z, 2dT), or in affine
//     Niels form (y+x, y-x, 2dxy) for precomputed points; doublings use the
//     dedicated projective formula.
//   * Scalar — integers mod the prime group order L = 2^252 + δ, four 64-bit
//     limbs, wide products reduced by Barrett reduction.
//
// Scalar multiplication: [k]B reads a table of 256 affine multiples of the
// base point (signed radix-16 digits, built on first use); every other
// product, and the joint sums of ge_multiscalar_mult, walks width-w NAF
// digits against odd multiples of each point.
//
// The implementation is NOT constant time: table indices, NAF digits and
// field inversion depend on the scalars, the secret signing nonce included.
// It authenticates blocks and coin shares in a research/simulation system,
// not secrets on a production boundary.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.h"

namespace mahimahi::crypto::curve {

// ---------------------------------------------------------------------------
// Field GF(2^255 - 19)
// ---------------------------------------------------------------------------

struct FieldElement {
  std::uint64_t v[5] = {0, 0, 0, 0, 0};  // value = sum v[i] * 2^(51 i)
};

FieldElement fe_zero();
FieldElement fe_one();
// Equality, zero test and parity of the canonical representatives.
bool fe_eq(const FieldElement& a, const FieldElement& b);
bool fe_is_zero(const FieldElement& a);
bool fe_is_odd(const FieldElement& a);
FieldElement fe_add(const FieldElement& a, const FieldElement& b);
FieldElement fe_sub(const FieldElement& a, const FieldElement& b);
FieldElement fe_mul(const FieldElement& a, const FieldElement& b);
FieldElement fe_sq(const FieldElement& a);
FieldElement fe_neg(const FieldElement& a);
// a^(p-2), so fe_invert(0) == 0.
FieldElement fe_invert(const FieldElement& a);
// Little-endian decode of the low 255 bits (bit 255 is ignored). Values in
// [p, 2^255) decode to their residue; callers that must reject them compare
// fe_to_bytes of the result with the input (ge_decompress does).
FieldElement fe_from_bytes(const std::uint8_t bytes[32]);
// Canonical little-endian encoding (value < p).
void fe_to_bytes(std::uint8_t out[32], const FieldElement& a);

// ---------------------------------------------------------------------------
// Group: extended twisted Edwards coordinates, x = X/Z, y = Y/Z, T = XY/Z.
// ---------------------------------------------------------------------------

struct GroupElement {
  FieldElement x, y, z, t;
};

// Compressed encoding: 32 bytes, y with the sign of x in the top bit.
using CompressedPoint = std::array<std::uint8_t, 32>;

GroupElement ge_identity();
bool ge_is_identity(const GroupElement& p);
// Projective equality: x1 z2 == x2 z1 and y1 z2 == y2 z1.
bool ge_eq(const GroupElement& p, const GroupElement& q);
// Complete addition law (valid for all inputs including doubling).
GroupElement ge_add(const GroupElement& p, const GroupElement& q);
GroupElement ge_sub(const GroupElement& p, const GroupElement& q);
GroupElement ge_neg(const GroupElement& p);
// [k] p for a 32-byte little-endian k (all 256 bits used).
GroupElement ge_scalar_mult(const std::uint8_t scalar_le[32], const GroupElement& p);
void ge_compress(std::uint8_t out[32], const GroupElement& p);
CompressedPoint ge_compressed(const GroupElement& p);
// Rejects non-canonical y and non-curve points; accepts any valid point,
// including small-order ones (callers clear the cofactor where needed).
std::optional<GroupElement> ge_decompress(const std::uint8_t in[32]);
// The Ed25519 base point B (y = 4/5, even x), order L.
const GroupElement& ge_base();
// [8] p — clears the cofactor, landing in the order-L subgroup.
GroupElement ge_mul_cofactor(const GroupElement& p);

// ---------------------------------------------------------------------------
// Scalars mod L = 2^252 + 27742317777372353535851937790883648493 (prime).
// ---------------------------------------------------------------------------

struct Scalar {
  std::uint64_t v[4] = {0, 0, 0, 0};

  bool operator==(const Scalar& other) const;
};

Scalar sc_zero();
Scalar sc_one();
Scalar sc_from_u64(std::uint64_t x);
bool sc_is_zero(const Scalar& a);
Scalar sc_add(const Scalar& a, const Scalar& b);
Scalar sc_sub(const Scalar& a, const Scalar& b);
Scalar sc_neg(const Scalar& a);
Scalar sc_mul(const Scalar& a, const Scalar& b);
// a * b + c mod L.
Scalar sc_mul_add(const Scalar& a, const Scalar& b, const Scalar& c);
// Multiplicative inverse via Fermat (L is prime). Precondition: a != 0
// (returns 0 for 0, which no caller should rely on).
Scalar sc_invert(const Scalar& a);
// Reduce 64 little-endian bytes mod L (the RFC 8032 wide reduction).
Scalar sc_from_bytes64(const std::uint8_t bytes[64]);
// Reduce 32 little-endian bytes mod L.
Scalar sc_from_bytes32(const std::uint8_t bytes[32]);
// Strict decode: nullopt when the encoding is >= L (non-canonical).
std::optional<Scalar> sc_from_bytes32_strict(const std::uint8_t bytes[32]);
void sc_to_bytes(std::uint8_t out[32], const Scalar& s);
// [s] p for a Scalar (convenience over the raw-bytes overload).
GroupElement ge_scalar_mult(const Scalar& s, const GroupElement& p);
// [s] B from the precomputed fixed-base table. Like the other scalar
// multiplications it accepts any 256-bit value, reduced mod L or not.
GroupElement ge_scalar_mult_base(const Scalar& s);
// [base_scalar] B + sum [scalars[i]] points[i] in one pass: the doublings
// are shared by every term (Straus). Requires scalars.size() ==
// points.size().
GroupElement ge_multiscalar_mult(std::span<const Scalar> scalars,
                                 std::span<const GroupElement> points,
                                 const Scalar& base_scalar);

}  // namespace mahimahi::crypto::curve
