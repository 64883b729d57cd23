#include "types/committee.h"

#include <cstring>
#include <stdexcept>

#include "crypto/blake2b.h"
#include "serde/serde.h"

namespace mahimahi {

Committee::Committee(std::vector<crypto::Ed25519PublicKey> public_keys, Digest epoch_seed)
    : public_keys_(std::move(public_keys)),
      epoch_seed_(epoch_seed),
      coin_(static_cast<std::uint32_t>(public_keys_.size()),
            (static_cast<std::uint32_t>(public_keys_.size()) - 1) / 3, epoch_seed) {
  if (public_keys_.empty()) throw std::invalid_argument("empty committee");
  genesis_.reserve(size());
  for (ValidatorId v = 0; v < size(); ++v) {
    genesis_.push_back(std::make_shared<const Block>(Block::genesis(v, coin_)));
  }
}

Committee::TestSetup Committee::make_test(std::uint32_t n, std::uint64_t seed) {
  std::vector<crypto::Ed25519Keypair> keypairs;
  std::vector<crypto::Ed25519PublicKey> public_keys;
  keypairs.reserve(n);
  public_keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Seed each validator key from (seed, i); deterministic and distinct.
    serde::Writer w;
    w.raw(as_bytes_view("mahi-mahi/test-key/v1"));
    w.u64(seed);
    w.u32(i);
    const Bytes material = std::move(w).take();
    const Digest d = crypto::Blake2b::hash256({material.data(), material.size()});
    keypairs.push_back(crypto::ed25519_keypair_from_seed(d.bytes));
    public_keys.push_back(keypairs.back().public_key);
  }

  serde::Writer w;
  w.raw(as_bytes_view("mahi-mahi/test-epoch/v1"));
  w.u64(seed);
  const Bytes material = std::move(w).take();
  const Digest epoch_seed = crypto::Blake2b::hash256({material.data(), material.size()});

  return TestSetup{Committee(std::move(public_keys), epoch_seed), std::move(keypairs)};
}

}  // namespace mahimahi
