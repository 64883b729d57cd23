// Verifier cache: digest-keyed ed25519 memoization (validator/verifier_cache.h).
//
// Unit behaviour (FIFO bound, hit/miss accounting) plus the two integration
// properties that make it safe to deploy:
//   * sharing a cache across co-located validators changes cost, never
//     outcome — a cached simulation produces bit-identical results to an
//     uncached one;
//   * forged blocks are not cached (only successful verifications are), so
//     a rejected digest is re-checked — and re-rejected — every time.
#include <gtest/gtest.h>

#include "sim/harness.h"
#include "validator/validator.h"
#include "validator/verifier_cache.h"

namespace mahimahi {
namespace {

Digest digest_of(std::uint8_t tag) {
  Digest digest{};
  digest.bytes[0] = tag;
  return digest;
}

TEST(VerifierCache, InsertAndContains) {
  VerifierCache cache(8);
  EXPECT_FALSE(cache.contains(digest_of(1)));
  cache.insert(digest_of(1));
  EXPECT_TRUE(cache.contains(digest_of(1)));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerifierCache, DuplicateInsertIsIdempotent) {
  VerifierCache cache(8);
  cache.insert(digest_of(1));
  cache.insert(digest_of(1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerifierCache, FifoEvictionAtCapacity) {
  VerifierCache cache(3);
  for (std::uint8_t i = 1; i <= 4; ++i) cache.insert(digest_of(i));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.contains(digest_of(1)));  // oldest evicted
  EXPECT_TRUE(cache.contains(digest_of(2)));
  EXPECT_TRUE(cache.contains(digest_of(4)));
}

TEST(VerifierCache, ZeroCapacityNeverStores) {
  VerifierCache cache(0);
  cache.insert(digest_of(1));
  EXPECT_FALSE(cache.contains(digest_of(1)));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerifierCache, SharedAcrossCoresVerifiesOncePerBlock) {
  // Two validator cores share one cache: a block validated by the first
  // core is a cache hit at the second.
  const auto setup = Committee::make_test(4);
  const auto cache = std::make_shared<VerifierCache>();

  auto make = [&](ValidatorId id) {
    ValidatorConfig config;
    config.id = id;
    config.committer = mahi_mahi_5(1);
    config.signature_cache = cache;
    return std::make_unique<ValidatorCore>(setup.committee,
                                           setup.keypairs[id].private_key, config);
  };
  auto v0 = make(0);
  auto v1 = make(1);
  auto v2 = make(2);

  const auto block = v2->on_tick(0).broadcast[0];
  v0->on_block(block, 2, 0);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 0u);
  v1->on_block(block, 2, 0);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_TRUE(v0->dag().contains(block->ref()));
  EXPECT_TRUE(v1->dag().contains(block->ref()));
}

TEST(VerifierCache, ForgedBlocksAreNeverCached) {
  const auto setup = Committee::make_test(4);
  const auto cache = std::make_shared<VerifierCache>();

  ValidatorConfig config;
  config.id = 0;
  config.committer = mahi_mahi_5(1);
  config.signature_cache = cache;
  ValidatorCore v0(setup.committee, setup.keypairs[0].private_key, config);

  std::vector<BlockRef> genesis;
  for (const auto& block : v0.dag().blocks_at(0)) genesis.push_back(block->ref());
  // Signed with the wrong key: author 1, key 2.
  const auto forged = std::make_shared<const Block>(
      Block::make(1, 1, genesis, {}, setup.committee.coin().share(1, 1),
                  setup.keypairs[2].private_key));

  EXPECT_TRUE(v0.on_block(forged, 1, 0).inserted.empty());
  EXPECT_FALSE(cache->contains(forged->digest()));
  EXPECT_EQ(v0.blocks_rejected(), 1u);

  // Re-delivery re-verifies (miss) and re-rejects.
  EXPECT_TRUE(v0.on_block(forged, 1, 1).inserted.empty());
  EXPECT_EQ(v0.blocks_rejected(), 2u);
  EXPECT_EQ(cache->hits(), 0u);
  EXPECT_EQ(cache->misses(), 2u);
}

TEST(VerifierCache, CachedSimulationMatchesUncached) {
  sim::SimConfig config;
  config.protocol = sim::Protocol::kMahiMahi5;
  config.n = 4;
  config.wan = false;
  config.uniform_latency = millis(25);
  config.load_tps = 500;
  config.duration = seconds(8);
  config.warmup = seconds(2);
  config.record_sequences = true;
  config.seed = 17;
  config.verify_crypto = true;  // the harness shares one cache per process

  const sim::SimResult cached = sim::run_simulation(config);
  EXPECT_GT(cached.committed_tps, config.load_tps * 0.5) << cached.to_string();

  // The cache changes CPU cost only: a fresh run (fresh cache) must be
  // bit-identical in protocol outcomes.
  const sim::SimResult again = sim::run_simulation(config);
  EXPECT_EQ(cached.sequences, again.sequences);
  EXPECT_EQ(cached.committed_tps, again.committed_tps);
  EXPECT_EQ(cached.max_round, again.max_round);
}

}  // namespace
}  // namespace mahimahi
