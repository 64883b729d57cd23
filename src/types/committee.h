// The validator committee: n = 3f+1 identities, quorum thresholds, and the
// shared coin setup (§2.1).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/coin.h"
#include "crypto/ed25519.h"
#include "types/block.h"
#include "types/ids.h"

namespace mahimahi {

class Committee {
 public:
  // `public_keys[i]` authenticates validator i. The epoch seed parameterizes
  // the shared coin (stand-in for the DKG transcript; see crypto/coin.h).
  Committee(std::vector<crypto::Ed25519PublicKey> public_keys, Digest epoch_seed);

  std::uint32_t size() const { return static_cast<std::uint32_t>(public_keys_.size()); }
  // Maximum tolerated Byzantine validators: f = floor((n-1)/3).
  std::uint32_t f() const { return (size() - 1) / 3; }
  // 2f+1: blocks required to advance a round, votes for a certificate,
  // certificates for a direct commit, shares to open the coin.
  std::uint32_t quorum_threshold() const { return 2 * f() + 1; }
  // f+1: at least one honest validator.
  std::uint32_t validity_threshold() const { return f() + 1; }

  bool contains(ValidatorId id) const { return id < size(); }
  const crypto::Ed25519PublicKey& public_key(ValidatorId id) const {
    return public_keys_[id];
  }

  const Digest& epoch_seed() const { return epoch_seed_; }
  const crypto::ThresholdCoin& coin() const { return coin_; }

  // The n genesis blocks (round 0), indexed by author and built once: every
  // DAG over this committee holds these same instances.
  const std::vector<BlockPtr>& genesis() const { return genesis_; }

  struct TestSetup;
  // Deterministic test committee: n keypairs derived from `seed`. Returns the
  // committee and each validator's private key.
  static TestSetup make_test(std::uint32_t n, std::uint64_t seed = 42);

 private:
  std::vector<crypto::Ed25519PublicKey> public_keys_;
  Digest epoch_seed_;
  crypto::ThresholdCoin coin_;
  std::vector<BlockPtr> genesis_;
};

struct Committee::TestSetup {
  Committee committee;
  std::vector<crypto::Ed25519Keypair> keypairs;
};

}  // namespace mahimahi
