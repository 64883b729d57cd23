// Kernel tests for crypto/curve25519: the radix-2^51 field, the windowed and
// fixed-base scalar multiplications and the Barrett scalar reduction, each
// checked against a slow reference written here (schoolbook 4x64 field
// arithmetic, bit-serial double-and-add, bit-serial long division). Also
// pins that every small-order point gets one verdict from single and batch
// Ed25519 verification.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/curve25519.h"
#include "crypto/ed25519.h"

namespace mahimahi::crypto {
namespace {

using namespace curve;

using Bytes32 = std::array<std::uint8_t, 32>;

Bytes32 random_bytes32(Rng& rng) {
  Bytes32 out;
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

Bytes32 bytes32_from_hex(const std::string& hex) {
  const auto bytes = from_hex(hex);
  Bytes32 out{};
  std::copy(bytes->begin(), bytes->end(), out.begin());
  return out;
}

// --- Reference field: four 64-bit limbs, canonical, schoolbook multiply ----

using RefFe = std::array<std::uint64_t, 4>;

constexpr RefFe kRefP = {0xffffffffffffffedULL, 0xffffffffffffffffULL, 0xffffffffffffffffULL,
                         0x7fffffffffffffffULL};

bool ref_gte(const RefFe& a, const RefFe& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

RefFe ref_sub_raw(const RefFe& a, const RefFe& b) {
  RefFe out;
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<std::uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return out;
}

// Reduces a value below 2^256 + 2^256 * 38 by folding and subtracting p.
RefFe ref_canonical(std::uint64_t lo[4], std::uint64_t hi) {
  while (hi != 0) {
    unsigned __int128 carry = static_cast<unsigned __int128>(hi) * 38;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(lo[i]) + carry;
      lo[i] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    hi = static_cast<std::uint64_t>(carry);
  }
  RefFe out = {lo[0], lo[1], lo[2], lo[3]};
  while (ref_gte(out, kRefP)) out = ref_sub_raw(out, kRefP);
  return out;
}

RefFe ref_from_bytes(const Bytes32& bytes) {
  std::uint64_t lo[4];
  std::memcpy(lo, bytes.data(), 32);
  lo[3] &= 0x7fffffffffffffffULL;  // the field decoder ignores bit 255
  return ref_canonical(lo, 0);
}

RefFe ref_add(const RefFe& a, const RefFe& b) {
  std::uint64_t lo[4];
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a[i]) + b[i] + carry;
    lo[i] = static_cast<std::uint64_t>(cur);
    carry = cur >> 64;
  }
  return ref_canonical(lo, static_cast<std::uint64_t>(carry));
}

RefFe ref_mul(const RefFe& a, const RefFe& b) {
  std::uint64_t z[8] = {};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(a[i]) * b[j] + z[i + j] + carry;
      z[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    z[i + 4] = static_cast<std::uint64_t>(carry);
  }
  // z = lo + 2^256 hi with 2^256 ≡ 38: fold hi * 38 into lo.
  std::uint64_t lo[4] = {z[0], z[1], z[2], z[3]};
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(z[4 + i]) * 38 + lo[i] + carry;
    lo[i] = static_cast<std::uint64_t>(cur);
    carry = cur >> 64;
  }
  return ref_canonical(lo, static_cast<std::uint64_t>(carry));
}

RefFe encoded(const FieldElement& a) {
  std::uint8_t bytes[32];
  fe_to_bytes(bytes, a);
  RefFe out;
  std::memcpy(out.data(), bytes, 32);
  return out;
}

FieldElement fe_of(const Bytes32& bytes) { return fe_from_bytes(bytes.data()); }

// Edge inputs: 0, 1, p-1, and the non-canonical encodings p, p+1, 2^255-1.
std::vector<Bytes32> edge_field_inputs() {
  std::vector<Bytes32> out;
  Bytes32 zero{};
  out.push_back(zero);
  Bytes32 one{};
  one[0] = 1;
  out.push_back(one);
  for (const std::uint8_t low : {0xec, 0xed, 0xee}) {  // p - 1, p, p + 1
    Bytes32 near_p;
    near_p.fill(0xff);
    near_p[31] = 0x7f;
    near_p[0] = low;
    out.push_back(near_p);
  }
  Bytes32 top;
  top.fill(0xff);
  top[31] = 0x7f;  // 2^255 - 1 = p + 18
  out.push_back(top);
  return out;
}

TEST(Curve25519Field, EncodingIsCanonical) {
  for (const Bytes32& in : edge_field_inputs()) {
    EXPECT_EQ(encoded(fe_of(in)), ref_from_bytes(in)) << to_hex({in.data(), 32});
  }
}

TEST(Curve25519Field, MultiplyAndSquareMatchReference) {
  Rng rng(11);
  std::vector<Bytes32> inputs = edge_field_inputs();
  for (int i = 0; i < 40; ++i) inputs.push_back(random_bytes32(rng));
  for (const Bytes32& a : inputs) {
    for (const Bytes32& b : inputs) {
      ASSERT_EQ(encoded(fe_mul(fe_of(a), fe_of(b))), ref_mul(ref_from_bytes(a), ref_from_bytes(b)));
    }
    EXPECT_EQ(encoded(fe_sq(fe_of(a))), ref_mul(ref_from_bytes(a), ref_from_bytes(a)));
  }
}

TEST(Curve25519Field, LazyCarriesStayExact) {
  // Eight products summed without carrying — the widest sum the group
  // formulas feed into a multiplication — then multiplied and subtracted.
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    FieldElement sum = fe_zero();
    RefFe ref_sum = {};
    for (int i = 0; i < 8; ++i) {
      Bytes32 a = random_bytes32(rng), b = random_bytes32(rng);
      if (trial == 0) a.fill(0xff), b.fill(0xff);  // maximal limbs
      sum = fe_add(sum, fe_mul(fe_of(a), fe_of(b)));
      ref_sum = ref_add(ref_sum, ref_mul(ref_from_bytes(a), ref_from_bytes(b)));
    }
    EXPECT_EQ(encoded(sum), ref_sum);
    EXPECT_EQ(encoded(fe_sq(sum)), ref_mul(ref_sum, ref_sum));
    // sum - sum' = 0 and (0 - sum) + sum = 0 with unreduced inputs.
    EXPECT_TRUE(fe_is_zero(fe_sub(sum, sum)));
    EXPECT_TRUE(fe_is_zero(fe_add(fe_neg(sum), sum)));
  }
}

TEST(Curve25519Field, InverseTimesValueIsOne) {
  Rng rng(13);
  std::vector<Bytes32> inputs = edge_field_inputs();
  for (int i = 0; i < 30; ++i) inputs.push_back(random_bytes32(rng));
  for (const Bytes32& in : inputs) {
    const FieldElement a = fe_of(in);
    const FieldElement product = fe_mul(a, fe_invert(a));
    if (fe_is_zero(a)) {
      EXPECT_TRUE(fe_is_zero(product));  // 0^(p-2) = 0
    } else {
      EXPECT_TRUE(fe_eq(product, fe_one())) << to_hex({in.data(), 32});
    }
  }
}

// --- Group: scalar multiplications against double-and-add ------------------

GroupElement double_and_add(const std::uint8_t scalar_le[32], const GroupElement& p) {
  GroupElement r = ge_identity();
  for (int bit = 255; bit >= 0; --bit) {
    r = ge_add(r, r);
    if ((scalar_le[bit / 8] >> (bit % 8)) & 1) r = ge_add(r, p);
  }
  return r;
}

Scalar random_scalar(Rng& rng) {
  std::uint8_t wide[64];
  for (auto& b : wide) b = static_cast<std::uint8_t>(rng.next_u64());
  return sc_from_bytes64(wide);
}

std::vector<Scalar> test_scalars(Rng& rng) {
  std::vector<Scalar> out = {sc_zero(), sc_one(), sc_from_u64(2), sc_from_u64(15),
                             sc_from_u64(16), sc_neg(sc_one())};
  for (int i = 0; i < 12; ++i) out.push_back(random_scalar(rng));
  return out;
}

TEST(Curve25519Group, FixedBaseMatchesDoubleAndAdd) {
  Rng rng(21);
  for (const Scalar& s : test_scalars(rng)) {
    std::uint8_t bytes[32];
    sc_to_bytes(bytes, s);
    EXPECT_TRUE(ge_eq(ge_scalar_mult_base(s), double_and_add(bytes, ge_base())));
  }
  // Unreduced scalars up to 2^256 - 1: digits past the table's range if the
  // scalar were used without reduction.
  for (int i = 0; i < 8; ++i) {
    Bytes32 k = random_bytes32(rng);
    if (i == 0) k.fill(0xff);
    k[31] |= 0x80;
    Scalar s;
    std::memcpy(s.v, k.data(), 32);
    EXPECT_TRUE(ge_eq(ge_scalar_mult_base(s), double_and_add(k.data(), ge_base())));
  }
}

TEST(Curve25519Group, WindowedMatchesDoubleAndAdd) {
  Rng rng(22);
  const GroupElement p = double_and_add(random_bytes32(rng).data(), ge_base());
  for (int i = 0; i < 12; ++i) {
    Bytes32 k = random_bytes32(rng);  // full 256-bit scalars, not reduced
    if (i == 0) k.fill(0xff);
    EXPECT_TRUE(ge_eq(ge_scalar_mult(k.data(), p), double_and_add(k.data(), p)));
  }
}

TEST(Curve25519Group, MultiScalarMatchesSumOfProducts) {
  Rng rng(23);
  std::vector<Scalar> scalars;
  std::vector<GroupElement> points;
  GroupElement expected = ge_identity();
  for (int i = 0; i < 5; ++i) {
    scalars.push_back(random_scalar(rng));
    points.push_back(double_and_add(random_bytes32(rng).data(), ge_base()));
    std::uint8_t bytes[32];
    sc_to_bytes(bytes, scalars.back());
    expected = ge_add(expected, double_and_add(bytes, points.back()));
  }
  const Scalar base = random_scalar(rng);
  std::uint8_t base_bytes[32];
  sc_to_bytes(base_bytes, base);
  expected = ge_add(expected, double_and_add(base_bytes, ge_base()));
  EXPECT_TRUE(ge_eq(ge_multiscalar_mult(scalars, points, base), expected));
  EXPECT_TRUE(ge_is_identity(ge_multiscalar_mult({}, {}, sc_zero())));
}

TEST(Curve25519Group, OrderAndLinearity) {
  // [L]B = O through both the fixed-base table and the windowed path.
  const Scalar l = {{0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL}};
  EXPECT_TRUE(ge_is_identity(ge_scalar_mult_base(l)));
  EXPECT_TRUE(ge_is_identity(ge_scalar_mult(l, ge_base())));
  // [a]B + [b]B = [a+b]B.
  Rng rng(24);
  for (int i = 0; i < 8; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng);
    const GroupElement sum = ge_add(ge_scalar_mult_base(a), ge_scalar_mult_base(b));
    EXPECT_TRUE(ge_eq(sum, ge_scalar_mult_base(sc_add(a, b))));
    EXPECT_TRUE(ge_eq(sum, ge_scalar_mult(sc_add(a, b), ge_base())));
  }
}

// --- Scalars: Barrett reduction against long division -----------------------

Scalar reference_reduce(const std::uint8_t bytes[64]) {
  constexpr std::uint64_t kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                                   0x1000000000000000ULL};
  std::uint64_t x[8];
  std::memcpy(x, bytes, 64);
  RefFe r = {};
  const RefFe l = {kL[0], kL[1], kL[2], kL[3]};
  for (int bit = 511; bit >= 0; --bit) {
    std::uint64_t carry = (x[bit / 64] >> (bit % 64)) & 1;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t top = r[i] >> 63;
      r[i] = (r[i] << 1) | carry;
      carry = top;
    }
    if (ref_gte(r, l)) r = ref_sub_raw(r, l);
  }
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

TEST(Curve25519Scalar, WideReductionMatchesLongDivision) {
  Rng rng(31);
  std::vector<std::array<std::uint8_t, 64>> inputs;
  std::array<std::uint8_t, 64> edge{};
  inputs.push_back(edge);
  edge.fill(0xff);
  inputs.push_back(edge);
  for (int i = 0; i < 200; ++i) {
    std::array<std::uint8_t, 64> in;
    for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u64());
    if (i % 4 == 1) std::fill(in.begin() + 32, in.end(), 0);  // 256-bit inputs
    inputs.push_back(in);
  }
  // L - 1, L, L + 1, 2L, 3L - 1 as 64-byte values.
  const Scalar l_minus_1 = sc_neg(sc_one());
  for (const std::uint64_t k : {1, 2, 3}) {
    for (const std::int64_t delta : {-1, 0, 1}) {
      std::array<std::uint8_t, 64> in{};
      // k * (L - 1) + k + delta = kL + delta.
      unsigned __int128 carry = static_cast<unsigned __int128>(k) + delta;
      std::uint64_t limbs[8] = {};
      for (int i = 0; i < 4; ++i) {
        const unsigned __int128 cur = static_cast<unsigned __int128>(l_minus_1.v[i]) * k + carry;
        limbs[i] = static_cast<std::uint64_t>(cur);
        carry = cur >> 64;
      }
      limbs[4] = static_cast<std::uint64_t>(carry);
      std::memcpy(in.data(), limbs, 64);
      inputs.push_back(in);
    }
  }
  // The largest multiple of L below 2^512, and one less: the widest
  // quotients the Barrett estimate sees.
  for (const char* hex :
       {"fff063bb1ceef95bb86c7a9758e4f12f9a410ae82d8c1331c265cf83e4be66fc"
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "fef063bb1ceef95bb86c7a9758e4f12f9a410ae82d8c1331c265cf83e4be66fc"
        "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"}) {
    const auto bytes = from_hex(hex);
    std::array<std::uint8_t, 64> in;
    std::copy(bytes->begin(), bytes->end(), in.begin());
    inputs.push_back(in);
  }
  for (const auto& in : inputs) {
    EXPECT_EQ(sc_from_bytes64(in.data()), reference_reduce(in.data()))
        << to_hex({in.data(), in.size()});
  }
}

// --- Small-order points: one verdict on every path ---------------------------

// The eight points of order dividing 8, canonically encoded.
const char* const kSmallOrder[8] = {
    "0100000000000000000000000000000000000000000000000000000000000000",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
};

TEST(Ed25519SmallOrder, EncodingsDecodeToTorsionPoints) {
  for (const char* hex : kSmallOrder) {
    const auto point = ge_decompress(bytes32_from_hex(hex).data());
    ASSERT_TRUE(point.has_value()) << hex;
    EXPECT_TRUE(ge_is_identity(ge_mul_cofactor(*point))) << hex;
    EXPECT_EQ(to_hex({ge_compressed(*point).data(), 32}), hex);
  }
}

TEST(Ed25519SmallOrder, SingleAndBatchVerdictsAgree) {
  std::vector<Ed25519Keypair> companions;
  for (std::uint8_t tag = 1; tag <= 3; ++tag) {
    std::array<std::uint8_t, 32> seed{};
    seed[0] = tag;
    companions.push_back(ed25519_keypair_from_seed(seed));
  }
  const std::string companion_message = "companion";
  const std::string message = "small order";
  const Scalar s = sc_from_u64(0x1234567);
  const GroupElement sb = ge_scalar_mult_base(s);

  for (int key_index = 0; key_index < 8; ++key_index) {
    for (int r_index = 0; r_index < 8; ++r_index) {
      // A small-order public key with R = [s]B + T_r: the cofactored
      // equation [8]([s]B - R - [k]A) = [8](-T_r - [k]A) = O accepts it,
      // whatever the message.
      Ed25519PublicKey key;
      key.bytes = bytes32_from_hex(kSmallOrder[key_index]);
      const auto torsion = ge_decompress(bytes32_from_hex(kSmallOrder[r_index]).data());
      ASSERT_TRUE(torsion.has_value());
      Ed25519Signature signature;
      ge_compress(signature.bytes.data(), ge_add(sb, *torsion));
      sc_to_bytes(signature.bytes.data() + 32, s);

      const bool single = ed25519_verify(key, as_bytes_view(message), signature);
      EXPECT_TRUE(single) << "key " << key_index << " r " << r_index;

      // An honest key with a small-order R and s = 0 is rejected.
      Ed25519Signature bare;
      bare.bytes = {};
      std::copy_n(bytes32_from_hex(kSmallOrder[r_index]).begin(), 32, bare.bytes.begin());
      const bool bare_single =
          ed25519_verify(companions[0].public_key, as_bytes_view(message), bare);
      EXPECT_FALSE(bare_single);

      std::vector<Ed25519BatchItem> items;
      items.push_back({key, as_bytes_view(message), signature});
      items.push_back({companions[0].public_key, as_bytes_view(message), bare});
      for (const auto& kp : companions) {
        items.push_back({kp.public_key, as_bytes_view(companion_message),
                         ed25519_sign(kp.private_key, as_bytes_view(companion_message))});
      }
      const auto each = ed25519_verify_each(items);
      EXPECT_EQ(each[0] != 0, single);
      EXPECT_EQ(each[1] != 0, bare_single);
      for (std::size_t i = 2; i < items.size(); ++i) EXPECT_TRUE(each[i]);
      EXPECT_EQ(ed25519_verify_batch(std::span(items).first(1)), single);
      const std::vector<Ed25519BatchItem> accepted = {items[0], items[2], items[3]};
      EXPECT_EQ(ed25519_verify_batch(accepted), single);
    }
  }
}

}  // namespace
}  // namespace mahimahi::crypto
