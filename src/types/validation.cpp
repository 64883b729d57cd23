#include "types/validation.h"

#include <cstdint>

namespace mahimahi {

std::string to_string(BlockValidity validity) {
  switch (validity) {
    case BlockValidity::kValid: return "valid";
    case BlockValidity::kUnknownAuthor: return "unknown author";
    case BlockValidity::kBadSignature: return "bad signature";
    case BlockValidity::kBadCoinShare: return "bad coin share";
    case BlockValidity::kGenesisFromNetwork: return "genesis block from network";
    case BlockValidity::kDuplicateParents: return "duplicate parent references";
    case BlockValidity::kParentFromFuture: return "parent from same or future round";
    case BlockValidity::kParentUnknownAuthor: return "parent by unknown author";
    case BlockValidity::kInsufficientParentQuorum: return "fewer than 2f+1 parents at R-1";
  }
  return "?";
}

BlockValidity validate_block_structure(const Block& block, const Committee& committee) {
  if (!committee.contains(block.author())) return BlockValidity::kUnknownAuthor;
  if (block.round() == 0) return BlockValidity::kGenesisFromNetwork;

  // Per-thread scratch, reused across calls so the check allocates nothing
  // once warm: an open-addressing set of parent positions (linear probing,
  // 0 = empty) and a bitset of previous-round authors. Parents are checked in
  // order, so the first offending parent decides the verdict.
  thread_local std::vector<std::uint32_t> seen;
  thread_local std::vector<std::uint64_t> previous_round;
  const std::vector<BlockRef>& parents = block.parents();
  std::size_t capacity = 16;
  while (capacity < 2 * parents.size()) capacity *= 2;
  seen.assign(capacity, 0);
  previous_round.assign((committee.size() + 63) / 64, 0);
  std::uint32_t previous_round_authors = 0;

  for (std::uint32_t i = 0; i < parents.size(); ++i) {
    const BlockRef& parent = parents[i];
    if (!committee.contains(parent.author)) return BlockValidity::kParentUnknownAuthor;
    if (parent.round >= block.round()) return BlockValidity::kParentFromFuture;
    std::size_t at = DigestHasher{}(parent.digest) & (capacity - 1);
    for (; seen[at] != 0; at = (at + 1) & (capacity - 1)) {
      if (parents[seen[at] - 1].digest == parent.digest) {
        return BlockValidity::kDuplicateParents;
      }
    }
    seen[at] = i + 1;
    if (parent.round == block.round() - 1) {
      std::uint64_t& word = previous_round[parent.author / 64];
      const std::uint64_t bit = std::uint64_t{1} << (parent.author % 64);
      if ((word & bit) == 0) ++previous_round_authors;
      word |= bit;
    }
  }
  if (previous_round_authors < committee.quorum_threshold()) {
    return BlockValidity::kInsufficientParentQuorum;
  }
  return BlockValidity::kValid;
}

BlockValidity validate_block_crypto(const Block& block, const Committee& committee,
                                    const ValidationOptions& options) {
  if (options.verify_coin_share &&
      !committee.coin().verify_share(block.author(), block.round(), block.coin_share())) {
    return BlockValidity::kBadCoinShare;
  }

  if (options.verify_signature &&
      !crypto::ed25519_verify(committee.public_key(block.author()),
                              block.digest().view(), block.signature())) {
    return BlockValidity::kBadSignature;
  }

  return BlockValidity::kValid;
}

std::vector<BlockValidity> validate_blocks_crypto(std::span<const BlockPtr> blocks,
                                                  const Committee& committee,
                                                  const ValidationOptions& options) {
  std::vector<BlockValidity> verdicts(blocks.size(), BlockValidity::kValid);
  if (blocks.empty()) return verdicts;

  if (options.verify_coin_share) {
    std::vector<crypto::ThresholdCoin::ShareQuery> queries;
    queries.reserve(blocks.size());
    for (const auto& block : blocks) {
      queries.push_back({block->author(), block->round(), block->coin_share()});
    }
    const auto ok = committee.coin().verify_shares(queries);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (!ok[i]) verdicts[i] = BlockValidity::kBadCoinShare;
    }
  }

  if (options.verify_signature) {
    // Only blocks that survived the coin stage reach the signature batch;
    // indices map batch positions back to block positions.
    std::vector<crypto::Ed25519BatchItem> items;
    std::vector<std::size_t> indices;
    items.reserve(blocks.size());
    indices.reserve(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (verdicts[i] != BlockValidity::kValid) continue;
      items.push_back({committee.public_key(blocks[i]->author()),
                       blocks[i]->digest().view(), blocks[i]->signature()});
      indices.push_back(i);
    }
    const auto ok = crypto::ed25519_verify_each(items);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      if (!ok[j]) verdicts[indices[j]] = BlockValidity::kBadSignature;
    }
  }

  return verdicts;
}

BlockValidity validate_block(const Block& block, const Committee& committee,
                             const ValidationOptions& options) {
  const BlockValidity structural = validate_block_structure(block, committee);
  if (structural != BlockValidity::kValid) return structural;
  return validate_block_crypto(block, committee, options);
}

}  // namespace mahimahi
