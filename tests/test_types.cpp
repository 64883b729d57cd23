// Tests for blocks, committees and the §2.3 validity rules.
#include <gtest/gtest.h>

#include "types/block.h"
#include "types/committee.h"
#include "types/validation.h"

namespace mahimahi {
namespace {

class BlockTest : public ::testing::Test {
 protected:
  BlockTest() : setup_(Committee::make_test(4)) {}

  // A valid round-1 block by `author` referencing all four genesis blocks.
  Block make_round1(ValidatorId author, std::vector<TxBatch> batches = {}) {
    return Block::make(author, 1, genesis_refs(), std::move(batches),
                       coin().share(author, 1), setup_.keypairs[author].private_key);
  }

  std::vector<BlockRef> genesis_refs() {
    std::vector<BlockRef> refs;
    for (ValidatorId v = 0; v < 4; ++v) {
      refs.push_back(Block::genesis(v, coin()).ref());
    }
    return refs;
  }

  const Committee& committee() const { return setup_.committee; }
  const crypto::ThresholdCoin& coin() const { return setup_.committee.coin(); }

  Committee::TestSetup setup_;
};

TEST_F(BlockTest, CommitteeThresholds) {
  EXPECT_EQ(committee().size(), 4u);
  EXPECT_EQ(committee().f(), 1u);
  EXPECT_EQ(committee().quorum_threshold(), 3u);
  EXPECT_EQ(committee().validity_threshold(), 2u);

  const auto big = Committee::make_test(10);
  EXPECT_EQ(big.committee.f(), 3u);
  EXPECT_EQ(big.committee.quorum_threshold(), 7u);

  const auto fifty = Committee::make_test(50);
  EXPECT_EQ(fifty.committee.f(), 16u);
  EXPECT_EQ(fifty.committee.quorum_threshold(), 33u);
}

TEST_F(BlockTest, MakeTestIsDeterministic) {
  const auto a = Committee::make_test(4, 7);
  const auto b = Committee::make_test(4, 7);
  const auto c = Committee::make_test(4, 8);
  EXPECT_EQ(a.committee.public_key(0), b.committee.public_key(0));
  EXPECT_EQ(a.committee.epoch_seed(), b.committee.epoch_seed());
  EXPECT_NE(a.committee.public_key(0), c.committee.public_key(0));
}

TEST_F(BlockTest, GenesisIsDeterministic) {
  const Block g1 = Block::genesis(2, coin());
  const Block g2 = Block::genesis(2, coin());
  EXPECT_EQ(g1.digest(), g2.digest());
  EXPECT_EQ(g1.round(), 0u);
  EXPECT_TRUE(g1.parents().empty());
  EXPECT_NE(g1.digest(), Block::genesis(3, coin()).digest());
}

TEST_F(BlockTest, DigestCommitsToContent) {
  const Block a = make_round1(0);
  TxBatch batch;
  batch.id = 9;
  const Block b = make_round1(0, {batch});
  EXPECT_NE(a.digest(), b.digest());
}

TEST_F(BlockTest, SerializeDeserializeRoundTrip) {
  TxBatch batch;
  batch.id = 77;
  batch.submitted_at = 123456;
  batch.count = 100;
  batch.tx_bytes = 512;
  batch.payload = to_bytes("actual payload bytes");
  const Block original = make_round1(1, {batch});

  const Bytes wire = original.serialize();
  const Block decoded = Block::deserialize({wire.data(), wire.size()});

  EXPECT_EQ(decoded.digest(), original.digest());
  EXPECT_EQ(decoded.author(), original.author());
  EXPECT_EQ(decoded.round(), original.round());
  EXPECT_EQ(decoded.parents(), original.parents());
  ASSERT_EQ(decoded.batches().size(), 1u);
  EXPECT_EQ(decoded.batches()[0], original.batches()[0]);
  EXPECT_EQ(decoded.signature(), original.signature());
}

TEST_F(BlockTest, DeserializeRejectsGarbage) {
  const Bytes garbage = to_bytes("definitely not a block");
  EXPECT_THROW(Block::deserialize({garbage.data(), garbage.size()}), serde::SerdeError);
}

TEST_F(BlockTest, DeserializeRejectsTruncation) {
  const Bytes wire = make_round1(0).serialize();
  for (const std::size_t cut : {1ul, 10ul, 63ul, wire.size() - 1}) {
    EXPECT_THROW(Block::deserialize({wire.data(), wire.size() - cut}), serde::SerdeError)
        << "cut " << cut;
  }
}

TEST_F(BlockTest, DeserializeRejectsTrailingBytes) {
  Bytes wire = make_round1(0).serialize();
  wire.push_back(0x00);
  EXPECT_THROW(Block::deserialize({wire.data(), wire.size()}), serde::SerdeError);
}

TEST_F(BlockTest, TransactionAndWireAccounting) {
  TxBatch simulated;
  simulated.count = 50;
  simulated.tx_bytes = 512;
  TxBatch real;
  real.count = 1;
  real.payload = Bytes(100, 0xaa);
  const Block b = make_round1(2, {simulated, real});
  EXPECT_EQ(b.transaction_count(), 51u);
  EXPECT_GE(b.wire_bytes(), 50u * 512 + 100);
}

// --- Validation rules (§2.3) -----------------------------------------------

TEST_F(BlockTest, ValidBlockPasses) {
  EXPECT_EQ(validate_block(make_round1(0), committee()), BlockValidity::kValid);
}

TEST_F(BlockTest, RejectsUnknownAuthor) {
  // An author index outside the committee.
  const Block b = Block::make(9, 1, genesis_refs(), {}, coin().share(9, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kUnknownAuthor);
}

TEST_F(BlockTest, RejectsNetworkGenesis) {
  const Block g = Block::genesis(0, coin());
  EXPECT_EQ(validate_block(g, committee()), BlockValidity::kGenesisFromNetwork);
}

TEST_F(BlockTest, RejectsBadSignature) {
  // Signed with validator 1's key but claims author 0.
  const Block forged = Block::make(0, 1, genesis_refs(), {}, coin().share(0, 1),
                                   setup_.keypairs[1].private_key);
  EXPECT_EQ(validate_block(forged, committee()), BlockValidity::kBadSignature);
}

TEST_F(BlockTest, RejectsBadCoinShare) {
  // Coin share for the wrong round.
  const Block b = Block::make(0, 1, genesis_refs(), {}, coin().share(0, 5),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kBadCoinShare);
}

TEST_F(BlockTest, RejectsDuplicateParents) {
  auto refs = genesis_refs();
  refs.push_back(refs[0]);
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kDuplicateParents);
}

TEST_F(BlockTest, RejectsInsufficientParentQuorum) {
  auto refs = genesis_refs();
  refs.resize(2);  // 2 < 2f+1 = 3
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kInsufficientParentQuorum);
}

TEST_F(BlockTest, RejectsParentFromFutureRound) {
  auto refs = genesis_refs();
  refs[0].round = 1;  // same round as the block
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kParentFromFuture);
}

TEST_F(BlockTest, RejectsParentByUnknownAuthor) {
  auto refs = genesis_refs();
  refs[0].author = 17;
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kParentUnknownAuthor);
}

TEST_F(BlockTest, FirstOffendingParentDecidesTheVerdict) {
  // One block carrying several parent faults: the first offending parent,
  // in order, decides; within one parent, an unknown author outranks a
  // future round, which outranks a duplicate. Every per-parent fault
  // outranks the quorum rule.
  const auto base = genesis_refs();
  BlockRef duplicate = base[0];
  BlockRef future = base[1];
  future.round = 1;
  future.digest.bytes[0] ^= 0x5a;  // a fresh digest: only the round is wrong
  BlockRef unknown = base[2];
  unknown.author = 17;
  unknown.digest.bytes[0] ^= 0xa5;

  const auto verdict = [&](std::vector<BlockRef> extra, std::size_t keep = 4) {
    std::vector<BlockRef> parents(base.begin(), base.begin() + keep);
    parents.insert(parents.end(), extra.begin(), extra.end());
    const Block b = Block::make(0, 1, parents, {}, coin().share(0, 1),
                                setup_.keypairs[0].private_key);
    return validate_block_structure(b, committee());
  };

  EXPECT_EQ(verdict({duplicate, future}), BlockValidity::kDuplicateParents);
  EXPECT_EQ(verdict({future, duplicate}), BlockValidity::kParentFromFuture);
  EXPECT_EQ(verdict({unknown, future}), BlockValidity::kParentUnknownAuthor);
  EXPECT_EQ(verdict({future, unknown}), BlockValidity::kParentFromFuture);
  EXPECT_EQ(verdict({duplicate, unknown}), BlockValidity::kDuplicateParents);
  EXPECT_EQ(verdict({unknown, duplicate}), BlockValidity::kParentUnknownAuthor);
  EXPECT_EQ(verdict({future, unknown, duplicate}), BlockValidity::kParentFromFuture);

  // Several faults on one parent.
  BlockRef duplicate_future = base[0];
  duplicate_future.round = 1;
  BlockRef duplicate_unknown = base[0];
  duplicate_unknown.author = 17;
  BlockRef unknown_future = unknown;
  unknown_future.round = 1;
  EXPECT_EQ(verdict({duplicate_future}), BlockValidity::kParentFromFuture);
  EXPECT_EQ(verdict({duplicate_unknown}), BlockValidity::kParentUnknownAuthor);
  EXPECT_EQ(verdict({unknown_future}), BlockValidity::kParentUnknownAuthor);

  // Too few previous-round authors, plus a parent fault: the fault wins.
  EXPECT_EQ(verdict({}, 2), BlockValidity::kInsufficientParentQuorum);
  EXPECT_EQ(verdict({duplicate}, 2), BlockValidity::kDuplicateParents);
  EXPECT_EQ(verdict({future}, 2), BlockValidity::kParentFromFuture);
}

TEST_F(BlockTest, QuorumCountsDistinctAuthorsNotRefs) {
  // Three refs but only two distinct round-0 authors (one from an older
  // round): must fail the 2f+1 rule at round-1... constructed at round 2.
  const Block base = make_round1(0);
  auto refs = genesis_refs();
  std::vector<BlockRef> parents = {refs[0], refs[1]};  // round 0: 2 authors? -> used at round 1
  parents.push_back(base.ref());                       // round 1 ref for a round-2 block
  const Block b = Block::make(0, 2, parents, {}, coin().share(0, 2),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kInsufficientParentQuorum);
}

TEST_F(BlockTest, ValidationOptionsSkipExpensiveChecks) {
  const Block forged = Block::make(0, 1, genesis_refs(), {}, coin().share(0, 5),
                                   setup_.keypairs[1].private_key);
  ValidationOptions lax;
  lax.verify_signature = false;
  lax.verify_coin_share = false;
  EXPECT_EQ(validate_block(forged, committee(), lax), BlockValidity::kValid);
}

TEST_F(BlockTest, ToStringSmoke) {
  EXPECT_EQ(to_string(BlockValidity::kValid), "valid");
  EXPECT_FALSE(to_string(BlockValidity::kBadSignature).empty());
  const BlockRef ref = make_round1(3).ref();
  EXPECT_NE(ref.to_string().find("v3"), std::string::npos);
}

}  // namespace
}  // namespace mahimahi
