#include "crypto/ed25519.h"

#include <algorithm>
#include <cstring>

#include "crypto/curve25519.h"
#include "crypto/sha512.h"

namespace mahimahi::crypto {

namespace {

using curve::ge_compress;
using curve::ge_decompress;
using curve::ge_scalar_mult_base;
using curve::GroupElement;
using curve::Scalar;
using curve::sc_from_bytes32;
using curve::sc_from_bytes32_strict;
using curve::sc_from_bytes64;
using curve::sc_mul_add;
using curve::sc_to_bytes;

}  // namespace

Ed25519PrivateKey::Ed25519PrivateKey(const std::array<std::uint8_t, 32>& seed)
    : seed_(seed) {
  const auto h = Sha512::hash({seed.data(), seed.size()});
  std::copy(h.begin(), h.begin() + 32, scalar_.begin());
  std::copy(h.begin() + 32, h.end(), prefix_.begin());
  scalar_[0] &= 0xf8;
  scalar_[31] &= 0x7f;
  scalar_[31] |= 0x40;
  // [a]B = [a mod L]B: B has order L.
  ge_compress(public_key_.bytes.data(), ge_scalar_mult_base(sc_from_bytes32(scalar_.data())));
}

Ed25519Keypair ed25519_keypair_from_seed(const std::array<std::uint8_t, 32>& seed) {
  const Ed25519PrivateKey key(seed);
  return Ed25519Keypair{key, key.public_key()};
}

Ed25519Signature ed25519_sign(const Ed25519PrivateKey& key, BytesView message) {
  Sha512 h1;
  h1.update({key.prefix_.data(), key.prefix_.size()});
  h1.update(message);
  const auto r_hash = h1.finish();
  const Scalar r = sc_from_bytes64(r_hash.data());

  Ed25519Signature sig;
  ge_compress(sig.bytes.data(), ge_scalar_mult_base(r));

  Sha512 h2;
  h2.update({sig.bytes.data(), 32});
  h2.update({key.public_key_.bytes.data(), key.public_key_.bytes.size()});
  h2.update(message);
  const auto k_hash = h2.finish();
  const Scalar k = sc_from_bytes64(k_hash.data());

  const Scalar a = sc_from_bytes32(key.scalar_.data());
  const Scalar s = sc_mul_add(k, a, r);
  sc_to_bytes(sig.bytes.data() + 32, s);
  return sig;
}

namespace {

// The RFC 8032 challenge k = H(R || A || M) reduced mod L.
Scalar challenge_scalar(const Ed25519Signature& signature, const Ed25519PublicKey& key,
                        BytesView message) {
  Sha512 h;
  h.update({signature.bytes.data(), 32});
  h.update({key.bytes.data(), key.bytes.size()});
  h.update(message);
  const auto k_hash = h.finish();
  return sc_from_bytes64(k_hash.data());
}

}  // namespace

bool ed25519_verify(const Ed25519PublicKey& key, BytesView message,
                    const Ed25519Signature& signature) {
  const auto a_point = ge_decompress(key.bytes.data());
  if (!a_point) return false;
  const auto r_point = ge_decompress(signature.bytes.data());
  if (!r_point) return false;

  const auto s = sc_from_bytes32_strict(signature.bytes.data() + 32);
  if (!s) return false;

  const Scalar k = challenge_scalar(signature, key, message);

  // Cofactored group equation (RFC 8032 §5.1.7): [8]([s]B - R - [k]A) == O.
  // Clearing the cofactor makes the verdict identical whether a signature is
  // checked alone or inside a random-linear-combination batch: any
  // small-order torsion component of R or A is annihilated in BOTH paths,
  // instead of flipping the batch verdict with the parity of a random
  // coefficient. A consensus protocol needs every honest validator to reach
  // the same verdict regardless of how its driver happened to batch.
  // [s]B - [k]A comes from one joint pass over both scalars' window digits.
  const GroupElement neg_a = curve::ge_neg(*a_point);
  const GroupElement sb_minus_ka = curve::ge_multiscalar_mult({&k, 1}, {&neg_a, 1}, *s);
  const auto difference = curve::ge_sub(sb_minus_ka, *r_point);
  return curve::ge_is_identity(curve::ge_mul_cofactor(difference));
}

namespace {

using curve::sc_zero;

// Derives the batch coefficients z_1..z_{n-1} (z_0 is fixed to 1) by hashing
// the whole batch. Each z_i is 128 bits: half-width scalars halve the cost of
// the per-item [z_i]R_i multiplication while keeping the forgery probability
// at ~2^-128.
std::vector<Scalar> batch_coefficients(std::span<const Ed25519BatchItem> items) {
  Sha512 transcript;
  transcript.update(as_bytes_view("mahimahi.ed25519.batch.v1"));
  for (const auto& item : items) {
    transcript.update({item.key.bytes.data(), item.key.bytes.size()});
    transcript.update({item.signature.bytes.data(), item.signature.bytes.size()});
    // Hash each message down first so variable lengths cannot alias across
    // item boundaries in the transcript.
    const auto m_hash = Sha512::hash(item.message);
    transcript.update({m_hash.data(), m_hash.size()});
  }
  const auto seed = transcript.finish();

  std::vector<Scalar> z(items.size());
  if (!items.empty()) z[0] = curve::sc_one();
  for (std::size_t i = 1; i < items.size(); ++i) {
    Sha512 h;
    h.update({seed.data(), seed.size()});
    std::uint8_t index[8];
    for (int b = 0; b < 8; ++b) index[b] = static_cast<std::uint8_t>(i >> (8 * b));
    h.update({index, sizeof(index)});
    const auto digest = h.finish();
    std::uint8_t z_bytes[32] = {};
    std::memcpy(z_bytes, digest.data(), 16);  // 128-bit coefficient
    if (std::count(z_bytes, z_bytes + 16, 0) == 16) z_bytes[0] = 1;  // never zero
    z[i] = sc_from_bytes32(z_bytes);
  }
  return z;
}

}  // namespace

bool ed25519_verify_batch(std::span<const Ed25519BatchItem> items) {
  if (items.empty()) return true;
  if (items.size() == 1) {
    return ed25519_verify(items[0].key, items[0].message, items[0].signature);
  }

  const std::vector<Scalar> z = batch_coefficients(items);

  // Distinct public keys: decompressed once, with their accumulated
  // challenge coefficients sum z_i k_i. Committees are small, so a linear
  // scan beats hashing the 32-byte keys.
  struct KeyTerm {
    Ed25519PublicKey key;
    GroupElement point;
    Scalar coefficient = sc_zero();
  };
  std::vector<KeyTerm> key_terms;
  key_terms.reserve(items.size());

  // One multi-scalar pass: sum [z_i] R_i + sum_A [c_A] A - [sum z_i s_i] B.
  std::vector<Scalar> scalars;
  std::vector<GroupElement> points;
  scalars.reserve(2 * items.size());
  points.reserve(2 * items.size());
  Scalar b_coefficient = sc_zero();  // sum z_i s_i

  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];

    const auto s = sc_from_bytes32_strict(item.signature.bytes.data() + 32);
    if (!s) return false;
    const auto r_point = ge_decompress(item.signature.bytes.data());
    if (!r_point) return false;

    KeyTerm* term = nullptr;
    for (auto& candidate : key_terms) {
      if (candidate.key == item.key) {
        term = &candidate;
        break;
      }
    }
    if (term == nullptr) {
      const auto a_point = ge_decompress(item.key.bytes.data());
      if (!a_point) return false;
      key_terms.push_back(KeyTerm{item.key, *a_point, sc_zero()});
      term = &key_terms.back();
    }

    const Scalar k = challenge_scalar(item.signature, item.key, item.message);
    b_coefficient = sc_mul_add(z[i], *s, b_coefficient);
    term->coefficient = sc_mul_add(z[i], k, term->coefficient);
    scalars.push_back(z[i]);
    points.push_back(*r_point);
  }

  for (const auto& term : key_terms) {
    scalars.push_back(term.coefficient);
    points.push_back(term.point);
  }
  const GroupElement difference =
      curve::ge_multiscalar_mult(scalars, points, curve::sc_neg(b_coefficient));
  // Cofactored, like ed25519_verify: torsion components never decide the
  // verdict, so batch and single verification agree deterministically.
  return curve::ge_is_identity(curve::ge_mul_cofactor(difference));
}

namespace {

// Binary-search the offenders: a failed batch splits in half and recurses,
// so k bad signatures cost O(k log n) batch checks instead of n single
// verifications. Without this, one Byzantine validator spraying garbage
// signatures would tax every mixed batch with a full per-item fallback —
// an adversary-controlled performance downgrade.
void verify_each_bisect(std::span<const Ed25519BatchItem> items,
                        std::span<std::uint8_t> ok) {
  if (items.empty()) return;
  if (ed25519_verify_batch(items)) {
    std::fill(ok.begin(), ok.end(), 1);
    return;
  }
  if (items.size() == 1) {
    ok[0] = 0;  // a batch of one IS the single (cofactored) verification
    return;
  }
  const std::size_t half = items.size() / 2;
  verify_each_bisect(items.first(half), ok.first(half));
  verify_each_bisect(items.subspan(half), ok.subspan(half));
}

}  // namespace

std::vector<std::uint8_t> ed25519_verify_each(std::span<const Ed25519BatchItem> items) {
  std::vector<std::uint8_t> ok(items.size(), 0);
  verify_each_bisect(items, ok);
  return ok;
}

}  // namespace mahimahi::crypto
