// Ed25519 tests: RFC 8032 vectors, independently generated cross-check
// vectors, randomized sign/verify round-trips, and rejection paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hex.h"
#include "crypto/curve25519.h"
#include "crypto/ed25519.h"
#include "crypto/sha512.h"

namespace mahimahi::crypto {
namespace {

std::array<std::uint8_t, 32> seed_from_hex(const std::string& hex) {
  const auto bytes = from_hex(hex);
  std::array<std::uint8_t, 32> out{};
  std::copy(bytes->begin(), bytes->end(), out.begin());
  return out;
}

Ed25519Signature sig_from_hex(const std::string& hex) {
  const auto bytes = from_hex(hex);
  Ed25519Signature out;
  std::copy(bytes->begin(), bytes->end(), out.bytes.begin());
  return out;
}

std::string hex_of(BytesView view) { return to_hex(view); }

TEST(Ed25519, Rfc8032Vector1EmptyMessage) {
  const auto kp = ed25519_keypair_from_seed(
      seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  EXPECT_EQ(hex_of({kp.public_key.bytes.data(), 32}),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(kp.private_key, {});
  EXPECT_EQ(hex_of({sig.bytes.data(), 64}),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33b"
            "acc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(kp.public_key, {}, sig));
}

TEST(Ed25519, Rfc8032Vector2OneByteMessage) {
  const auto kp = ed25519_keypair_from_seed(
      seed_from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  EXPECT_EQ(hex_of({kp.public_key.bytes.data(), 32}),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg = {0x72};
  const auto sig = ed25519_sign(kp.private_key, {msg.data(), msg.size()});
  EXPECT_EQ(hex_of({sig.bytes.data(), 64}),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e1599"
            "6e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(kp.public_key, {msg.data(), msg.size()}, sig));
}

struct CrossCheckVector {
  const char* seed;
  const char* pub;
  const char* msg;
  const char* sig;
};

// Generated with an independent reference implementation (see DESIGN.md).
constexpr CrossCheckVector kCrossChecks[] = {
    {"d36e527b204b8b1139f7344431ead1badfcee4f0b8cef7c5ba7904f576fb2ca4",
     "3ead76439cc73f35baa63357b6f0de2e8e545863cfc38f9e916da21d22d70152", "message-0",
     "8b0e495875a6545b81b14c4aaf43dac77432dba2e147f0637c44b628bf6ffe39c8f98485f67fc1699"
     "6c75c72e1caf2fc0803f0ee49e171d0abc2693e470ff403"},
    {"082e892f413046b383efc16f5c543cf062bbb08b644acf499b984939899ff059",
     "b895b33bb5224080b8465508b068001e3396f2ff20def63d7901b76f8bf99dca", "message-1",
     "14d75910f76e076b7413a89544a72903f68ea0ec652cecaa46647bc60595975c9eef8a5e3c3226339"
     "c56de9c39161ffac3582e4a0fdbc500271a97b4352ab20a"},
    {"84d92a0051127417a1a6524cfda1b609838ec9e1b15de188df06c3a27507ae0c",
     "8f69f5cd73d5dab2c2d0dc78da45efcf8bfa1a58df50ca4d44f81e165b6cc2bf", "message-2",
     "d1faa824465fc536a4995cdbd84fead8877b3fa27617477972013b3b00e1c76e1a085a5263698b8dd"
     "d1c7be89179118d70d41f77afdb8cf563223ec5c475810e"},
};

class Ed25519CrossCheck : public ::testing::TestWithParam<CrossCheckVector> {};

TEST_P(Ed25519CrossCheck, MatchesReferenceImplementation) {
  const auto& vec = GetParam();
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(vec.seed));
  EXPECT_EQ(hex_of({kp.public_key.bytes.data(), 32}), vec.pub);
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view(vec.msg));
  EXPECT_EQ(hex_of({sig.bytes.data(), 64}), vec.sig);
  EXPECT_TRUE(ed25519_verify(kp.public_key, as_bytes_view(vec.msg), sig));
}

INSTANTIATE_TEST_SUITE_P(Vectors, Ed25519CrossCheck, ::testing::ValuesIn(kCrossChecks));

class Ed25519RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519RoundTrip, SignVerify) {
  std::array<std::uint8_t, 32> seed{};
  seed[0] = static_cast<std::uint8_t>(GetParam());
  seed[7] = 0xa5;
  const auto kp = ed25519_keypair_from_seed(seed);
  const std::string msg = "round trip message #" + std::to_string(GetParam());
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view(msg));
  EXPECT_TRUE(ed25519_verify(kp.public_key, as_bytes_view(msg), sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519RoundTrip, ::testing::Range(0, 16));

TEST(Ed25519, RejectsTamperedMessage) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view("payload"));
  EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("Payload"), sig));
  EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("payload "), sig));
  EXPECT_FALSE(ed25519_verify(kp.public_key, {}, sig));
}

TEST(Ed25519, RejectsEveryTamperedSignatureBit) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  auto sig = ed25519_sign(kp.private_key, as_bytes_view("bit flip probe"));
  for (std::size_t byte = 0; byte < 64; byte += 5) {
    sig.bytes[byte] ^= 0x40;
    EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("bit flip probe"), sig))
        << "byte " << byte;
    sig.bytes[byte] ^= 0x40;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  std::array<std::uint8_t, 32> seed_a{}, seed_b{};
  seed_b[0] = 1;
  const auto kp_a = ed25519_keypair_from_seed(seed_a);
  const auto kp_b = ed25519_keypair_from_seed(seed_b);
  const auto sig = ed25519_sign(kp_a.private_key, as_bytes_view("msg"));
  EXPECT_FALSE(ed25519_verify(kp_b.public_key, as_bytes_view("msg"), sig));
}

TEST(Ed25519, RejectsNonCanonicalScalar) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto sig = ed25519_sign(kp.private_key, as_bytes_view("msg"));
  // Force the scalar half >= L by setting its top bits.
  sig.bytes[63] |= 0xf0;
  EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("msg"), sig));
}

TEST(Ed25519, RejectsOffCurvePublicKey) {
  Ed25519PublicKey bogus;
  bogus.bytes.fill(0x12);  // overwhelmingly likely off-curve y
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view("msg"));
  // Either decompression fails or verification fails; it must not accept.
  EXPECT_FALSE(ed25519_verify(bogus, as_bytes_view("msg"), sig));
}

TEST(Ed25519, DeterministicSignatures) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "d36e527b204b8b1139f7344431ead1badfcee4f0b8cef7c5ba7904f576fb2ca4"));
  const auto s1 = ed25519_sign(kp.private_key, as_bytes_view("same message"));
  const auto s2 = ed25519_sign(kp.private_key, as_bytes_view("same message"));
  EXPECT_EQ(s1, s2);
}

TEST(Ed25519, DistinctSeedsDistinctKeys) {
  std::array<std::uint8_t, 32> seed{};
  const auto base = ed25519_keypair_from_seed(seed);
  for (int i = 1; i < 8; ++i) {
    seed[31] = static_cast<std::uint8_t>(i);
    EXPECT_NE(ed25519_keypair_from_seed(seed).public_key, base.public_key);
  }
}

TEST(Ed25519, LargeMessage) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "082e892f413046b383efc16f5c543cf062bbb08b644acf499b984939899ff059"));
  const std::string big(100000, 'B');
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view(big));
  EXPECT_TRUE(ed25519_verify(kp.public_key, as_bytes_view(big), sig));
}

// --- Batch verification ------------------------------------------------------

namespace {

struct SignedMessage {
  Ed25519Keypair keypair;
  std::string message;
  Ed25519Signature signature;
};

SignedMessage make_signed(std::uint8_t key_tag, std::string message) {
  std::array<std::uint8_t, 32> seed{};
  seed[0] = key_tag;
  seed[17] = 0xa5;
  const Ed25519Keypair keypair = ed25519_keypair_from_seed(seed);
  const Ed25519Signature signature = ed25519_sign(keypair.private_key, as_bytes_view(message));
  return SignedMessage{keypair, std::move(message), signature};
}

std::vector<Ed25519BatchItem> as_items(const std::vector<SignedMessage>& signed_messages) {
  std::vector<Ed25519BatchItem> items;
  for (const auto& s : signed_messages) {
    items.push_back({s.keypair.public_key, as_bytes_view(s.message), s.signature});
  }
  return items;
}

}  // namespace

TEST(Ed25519Batch, AcceptsValidBatchAcrossDistinctAndRepeatedKeys) {
  std::vector<SignedMessage> signed_messages;
  // 12 signatures over 4 keys — the committee shape batch grouping exploits.
  for (int i = 0; i < 12; ++i) {
    signed_messages.push_back(
        make_signed(static_cast<std::uint8_t>(i % 4 + 1), "block-" + std::to_string(i)));
  }
  EXPECT_TRUE(ed25519_verify_batch(as_items(signed_messages)));
  const auto each = ed25519_verify_each(as_items(signed_messages));
  EXPECT_TRUE(std::all_of(each.begin(), each.end(), [](std::uint8_t ok) { return ok; }));
}

TEST(Ed25519Batch, EmptyAndSingletonBatches) {
  EXPECT_TRUE(ed25519_verify_batch({}));
  const auto one = make_signed(1, "solo");
  EXPECT_TRUE(ed25519_verify_batch(as_items({one})));
}

TEST(Ed25519Batch, RejectsBatchWithOneForgeryAndPinpointsIt) {
  std::vector<SignedMessage> signed_messages;
  for (int i = 0; i < 8; ++i) {
    signed_messages.push_back(make_signed(static_cast<std::uint8_t>(i + 1), "m" + std::to_string(i)));
  }
  signed_messages[5].signature.bytes[10] ^= 0x40;  // corrupt R of one item

  EXPECT_FALSE(ed25519_verify_batch(as_items(signed_messages)));
  const auto each = ed25519_verify_each(as_items(signed_messages));
  for (std::size_t i = 0; i < each.size(); ++i) {
    EXPECT_EQ(each[i] != 0, i != 5) << "item " << i;
  }
}

TEST(Ed25519Batch, RejectsWrongMessageAndWrongKey) {
  auto a = make_signed(1, "first");
  auto b = make_signed(2, "second");
  // Swap signatures: both individually invalid.
  std::swap(a.signature, b.signature);
  EXPECT_FALSE(ed25519_verify_batch(as_items({a, b})));
  const auto each = ed25519_verify_each(as_items({a, b}));
  EXPECT_FALSE(each[0]);
  EXPECT_FALSE(each[1]);
}

TEST(Ed25519Batch, RejectsNonCanonicalScalar) {
  auto good = make_signed(1, "canonical");
  auto bad = make_signed(2, "non-canonical");
  // s >= L: set the top bits so the strict decode fails.
  std::fill(bad.signature.bytes.begin() + 32, bad.signature.bytes.end(), 0xff);
  EXPECT_FALSE(ed25519_verify_batch(as_items({good, bad})));
  const auto each = ed25519_verify_each(as_items({good, bad}));
  EXPECT_TRUE(each[0]);
  EXPECT_FALSE(each[1]);
}

// Consensus-safety regression: a signature whose R carries a small-order
// torsion component must get the SAME verdict from single verification and
// from every batch composition. A cofactorless batch check fails this — the
// torsion defect z_i*T vanishes whenever the random 128-bit coefficient is
// even, so half of all batch groupings accept what the other half reject,
// and validators diverge based on how their driver happened to batch.
TEST(Ed25519Batch, TorsionComponentVerdictIsBatchInvariant) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const std::string message = "torsion probe";
  const auto honest = ed25519_sign(kp.private_key, as_bytes_view(message));

  // R' = R + T where T = (0, -1) has order 2.
  std::uint8_t t_bytes[32];
  std::fill(t_bytes, t_bytes + 32, 0xff);
  t_bytes[0] = 0xec;  // p - 1 in little-endian: y = -1, sign(x) = 0
  t_bytes[31] = 0x7f;
  const auto t_point = curve::ge_decompress(t_bytes);
  ASSERT_TRUE(t_point.has_value());
  const auto r_point = curve::ge_decompress(honest.bytes.data());
  ASSERT_TRUE(r_point.has_value());

  Ed25519Signature forged;
  curve::ge_compress(forged.bytes.data(), curve::ge_add(*r_point, *t_point));

  // Recompute s' = r + k'*a for the new challenge k' = H(R'||A||M), using
  // the RFC 8032 key expansion (the "attacker" here is the signer itself,
  // publishing a mangled-but-consistent signature).
  const auto h = Sha512::hash({kp.private_key.seed().data(), kp.private_key.seed().size()});
  std::uint8_t clamped[32];
  std::copy(h.data(), h.data() + 32, clamped);
  clamped[0] &= 0xf8;
  clamped[31] &= 0x7f;
  clamped[31] |= 0x40;
  const auto a = curve::sc_from_bytes32(clamped);
  Sha512 r_hash;
  r_hash.update({h.data() + 32, 32});
  r_hash.update(as_bytes_view(message));
  const auto r = curve::sc_from_bytes64(r_hash.finish().data());
  Sha512 k_hash;
  k_hash.update({forged.bytes.data(), 32});
  k_hash.update({kp.public_key.bytes.data(), 32});
  k_hash.update(as_bytes_view(message));
  const auto k = curve::sc_from_bytes64(k_hash.finish().data());
  curve::sc_to_bytes(forged.bytes.data() + 32, curve::sc_mul_add(k, a, r));

  const bool single_verdict =
      ed25519_verify(kp.public_key, as_bytes_view(message), forged);
  // Cofactored verification accepts: [8]T = O annihilates the defect.
  EXPECT_TRUE(single_verdict);

  // Every batch composition must agree with the single verdict.
  std::vector<SignedMessage> companions;
  for (int i = 0; i < 7; ++i) {
    companions.push_back(make_signed(static_cast<std::uint8_t>(i + 1),
                                     "companion-" + std::to_string(i)));
  }
  for (std::size_t companion_count : {0u, 1u, 3u, 7u}) {
    std::vector<Ed25519BatchItem> items;
    items.push_back({kp.public_key, as_bytes_view(message), forged});
    for (std::size_t i = 0; i < companion_count; ++i) {
      items.push_back({companions[i].keypair.public_key,
                       as_bytes_view(companions[i].message), companions[i].signature});
    }
    EXPECT_EQ(ed25519_verify_batch(items), single_verdict)
        << "batch of " << items.size();
    const auto each = ed25519_verify_each(items);
    EXPECT_EQ(each[0] != 0, single_verdict) << "batch of " << items.size();
  }
}

TEST(Ed25519Batch, AgreesWithSingleVerificationOnMixedBatches) {
  // Randomized mixes of valid and corrupted signatures: the batch path must
  // agree with per-item ed25519_verify everywhere.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<SignedMessage> signed_messages;
    std::vector<bool> expected;
    for (int i = 0; i < 6; ++i) {
      auto s = make_signed(static_cast<std::uint8_t>((trial + i) % 3 + 1),
                           "t" + std::to_string(trial) + "-" + std::to_string(i));
      const bool corrupt = ((trial * 7 + i * 3) % 5) == 0;
      if (corrupt) s.signature.bytes[(trial + i) % 64] ^= 0x01;
      // Corruption may still rarely yield the same point encoding? No — any
      // bit flip in R or s changes the (strictly decoded) values; record the
      // ground truth from the single verifier instead of assuming.
      expected.push_back(
          ed25519_verify(s.keypair.public_key, as_bytes_view(s.message), s.signature));
      signed_messages.push_back(std::move(s));
    }
    const auto each = ed25519_verify_each(as_items(signed_messages));
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(each[i] != 0, expected[i]) << "trial " << trial << " item " << i;
    }
  }
}

}  // namespace
}  // namespace mahimahi::crypto
