// Tests for the DAG store: insertion, slots, equivocation, causal queries,
// pruning, and the DagBuilder utilities.
#include <gtest/gtest.h>

#include "dag/dag.h"
#include "sim/dag_builder.h"

namespace mahimahi {
namespace {

TEST(Dag, StartsWithGenesis) {
  DagBuilder b(4);
  const Dag& dag = b.dag();
  EXPECT_EQ(dag.block_count(), 4u);
  EXPECT_EQ(dag.highest_round(), 0u);
  EXPECT_EQ(dag.distinct_authors_at(0), 4u);
  for (ValidatorId v = 0; v < 4; ++v) {
    ASSERT_EQ(dag.slot(0, v).size(), 1u);
    EXPECT_EQ(dag.slot(0, v).front()->author(), v);
  }
}

TEST(Dag, InsertAndLookup) {
  DagBuilder b(4);
  const auto blocks = b.add_full_round(1);
  EXPECT_EQ(b.dag().block_count(), 8u);
  EXPECT_EQ(b.dag().highest_round(), 1u);
  for (const auto& block : blocks) {
    EXPECT_TRUE(b.dag().contains(block->ref()));
    EXPECT_EQ(b.dag().get(block->ref())->digest(), block->digest());
  }
  BlockRef unknown{.round = 1, .author = 0, .digest = {}};
  unknown.digest.bytes.fill(0xee);
  EXPECT_FALSE(b.dag().contains(unknown));
  EXPECT_EQ(b.dag().get(unknown), nullptr);
}

TEST(Dag, DuplicateInsertIsNoOp) {
  DagBuilder b(4);
  const auto blocks = b.add_full_round(1);
  Dag& dag = b.dag();
  EXPECT_FALSE(dag.insert(blocks[0]));
  EXPECT_EQ(dag.block_count(), 8u);
}

TEST(Dag, MissingParentThrows) {
  DagBuilder b(4);
  // A block referencing a parent that is not in the DAG.
  BlockRef bogus;
  bogus.round = 0;
  bogus.author = 0;
  bogus.digest.bytes.fill(0x77);
  auto setup = Committee::make_test(4);
  const auto block = std::make_shared<const Block>(
      Block::make(0, 1, {bogus}, {}, setup.committee.coin().share(0, 1),
                  setup.keypairs[0].private_key));
  EXPECT_THROW(b.dag().insert(block), std::logic_error);
}

TEST(Dag, InsertWithMissingParentReportsItAndInsertsNothing) {
  DagBuilder b(4);
  b.add_full_round(1);
  auto setup = Committee::make_test(4);
  const BlockRef absent{.round = 1, .author = 2, .digest = {}};
  std::vector<BlockRef> parents;
  for (const auto& parent : b.dag().blocks_at(1)) parents.push_back(parent->ref());
  parents[2] = absent;
  parents[2].digest.bytes.fill(0x55);
  const auto block = std::make_shared<const Block>(
      Block::make(0, 2, parents, {}, setup.committee.coin().share(0, 2),
                  setup.keypairs[0].private_key));
  std::vector<BlockRef> missing;
  EXPECT_FALSE(b.dag().insert(block, &missing));
  EXPECT_EQ(missing, std::vector<BlockRef>{parents[2]});
  EXPECT_EQ(b.dag().block_count(), 8u);
  EXPECT_EQ(b.dag().highest_round(), 1u);
  EXPECT_FALSE(b.dag().contains(block->ref()));
  EXPECT_THROW(b.dag().insert(block), std::logic_error);
}

TEST(Dag, GenesisIsSharedAcrossDags) {
  const auto setup = Committee::make_test(4);
  const Dag first(setup.committee);
  const Dag second(setup.committee);
  for (ValidatorId v = 0; v < 4; ++v) {
    ASSERT_EQ(first.slot(0, v).size(), 1u);
    EXPECT_EQ(first.slot(0, v).front().get(), second.slot(0, v).front().get());
    EXPECT_EQ(first.slot(0, v).front()->digest(),
              Block::genesis(v, setup.committee.coin()).digest());
  }
}

TEST(Dag, EquivocationsShareSlot) {
  DagBuilder b(4);
  b.add_full_round(1);
  // Author 0 equivocates at round 2: two different blocks.
  const auto parents = b.dag().blocks_at(1);
  TxBatch marker;
  marker.id = 1;
  std::vector<BlockRef> refs;
  for (const auto& parent : parents) refs.push_back(parent->ref());
  const auto b1 = b.add_block(0, 2, refs);
  const auto b2 = b.add_block(0, 2, refs, {marker});
  EXPECT_NE(b1->digest(), b2->digest());
  EXPECT_EQ(b.dag().slot(2, 0).size(), 2u);
  EXPECT_EQ(b.dag().distinct_authors_at(2), 1u);
  EXPECT_EQ(b.dag().blocks_at(2).size(), 2u);
}

TEST(Dag, EquivocatingSiblingsAreFoundByTheirRefs) {
  DagBuilder b(4);
  b.add_full_round(1);
  std::vector<BlockRef> refs;
  for (const auto& parent : b.dag().blocks_at(1)) refs.push_back(parent->ref());
  TxBatch marker;
  marker.id = 1;
  const auto first = b.add_block(0, 2, refs);
  const auto second = b.add_block(0, 2, refs, {marker});
  const Dag& dag = b.dag();
  EXPECT_EQ(dag.find(first->ref()), first.get());
  EXPECT_EQ(dag.find(second->ref()), second.get());
  EXPECT_EQ(dag.get(second->ref()), second);
  EXPECT_TRUE(dag.contains(first->ref()));
  EXPECT_TRUE(dag.contains(second->ref()));
  EXPECT_EQ(dag.block_count(), 10u);
  // A third digest in the same cell matches neither sibling.
  BlockRef other = second->ref();
  other.digest.bytes.fill(0x31);
  EXPECT_FALSE(dag.contains(other));
}

TEST(Dag, RefWithRightDigestButWrongSlotIsAbsent) {
  DagBuilder b(4);
  b.build_fully_connected(2);
  const Dag& dag = b.dag();
  const BlockPtr block = dag.slot(1, 2).front();
  BlockRef wrong_round = block->ref();
  wrong_round.round = 2;
  BlockRef wrong_author = block->ref();
  wrong_author.author = 3;
  for (const BlockRef& ref : {wrong_round, wrong_author}) {
    EXPECT_EQ(dag.find(ref), nullptr) << ref.to_string();
    EXPECT_EQ(dag.get(ref), nullptr) << ref.to_string();
    EXPECT_FALSE(dag.contains(ref)) << ref.to_string();
  }
  EXPECT_EQ(dag.find(block->ref()), block.get());
}

TEST(Dag, ZeroDigestRefToEmptyCellIsAbsent) {
  DagBuilder b(4);
  b.add_full_round(1, {1, 2, 3});  // author 0 is silent at round 1
  const Dag& dag = b.dag();
  ASSERT_TRUE(dag.slot(1, 0).empty());
  const BlockRef empty_cell{.round = 1, .author = 0, .digest = {}};
  EXPECT_EQ(dag.find(empty_cell), nullptr);
  EXPECT_FALSE(dag.contains(empty_cell));
  // Past the table and outside the committee as well.
  EXPECT_FALSE(dag.contains(BlockRef{.round = 7, .author = 1, .digest = {}}));
  EXPECT_FALSE(dag.contains(BlockRef{.round = 1, .author = 9, .digest = {}}));
}

TEST(Dag, DistinctAuthorCounting) {
  DagBuilder b(7);
  b.add_full_round(1, {0, 1, 2, 3, 4});
  EXPECT_EQ(b.dag().distinct_authors_at(1), 5u);
  EXPECT_EQ(b.dag().distinct_authors_at(2), 0u);
  EXPECT_EQ(b.dag().distinct_authors_at(99), 0u);
}

TEST(Dag, IsLinkDirectAndTransitive) {
  DagBuilder b(4);
  b.build_fully_connected(3);
  const Dag& dag = b.dag();
  const BlockPtr top = dag.slot(3, 0).front();
  // Fully connected: everything below is linked.
  for (Round r = 0; r < 3; ++r) {
    for (ValidatorId v = 0; v < 4; ++v) {
      EXPECT_TRUE(dag.is_link(dag.slot(r, v).front()->ref(), *top))
          << "r" << r << " v" << v;
    }
  }
  // Self-link.
  EXPECT_TRUE(dag.is_link(top->ref(), *top));
  // No link to a same-round sibling or to a higher round.
  EXPECT_FALSE(dag.is_link(dag.slot(3, 1).front()->ref(), *top));
  EXPECT_FALSE(dag.is_link(top->ref(), *dag.slot(2, 0).front()));
}

TEST(Dag, IsLinkRespectsPartialReferences) {
  DagBuilder b(4);
  // Round 1: only 3 validators produce blocks (0 is silent).
  const auto round1 = b.add_full_round(1, {1, 2, 3});
  // Round 2 by validator 1, referencing only those three blocks.
  const auto round2 = b.add_block_from(1, 2, round1);
  // Genesis of validator 0 is reachable (via round-1 parents referencing all
  // genesis blocks), but no round-1 block of validator 0 exists.
  EXPECT_TRUE(b.dag().is_link(b.dag().slot(0, 0).front()->ref(), *round2));
  // A round-1 block NOT referenced is unreachable: build one now.
  const auto late = b.add_full_round(1, {0});
  EXPECT_FALSE(b.dag().is_link(late.front()->ref(), *round2));
}

TEST(Dag, PruneDropsOldRounds) {
  DagBuilder b(4);
  b.build_fully_connected(5);
  Dag& dag = b.dag();
  const auto victim = dag.slot(1, 0).front();
  dag.prune_below(3);
  EXPECT_EQ(dag.pruned_below(), 3u);
  EXPECT_FALSE(dag.contains(victim->ref()));
  EXPECT_TRUE(dag.slot(1, 0).empty());
  EXPECT_EQ(dag.distinct_authors_at(2), 0u);
  EXPECT_TRUE(dag.contains(dag.slot(3, 0).front()->ref()));
  EXPECT_EQ(dag.highest_round(), 5u);
  // Idempotent / monotonic.
  dag.prune_below(2);
  EXPECT_EQ(dag.pruned_below(), 3u);
}

TEST(Dag, LookupsAndCountFollowThePrunedTable) {
  DagBuilder b(4);
  b.build_fully_connected(6);
  Dag& dag = b.dag();
  std::vector<BlockPtr> kept;
  for (Round r = 4; r <= 6; ++r) {
    for (const auto& block : dag.blocks_at(r)) kept.push_back(block);
  }
  const BlockPtr dropped = dag.slot(3, 1).front();
  dag.prune_below(4);
  EXPECT_EQ(dag.block_count(), kept.size());
  for (const auto& block : kept) EXPECT_EQ(dag.find(block->ref()), block.get());
  EXPECT_FALSE(dag.contains(dropped->ref()));
  EXPECT_EQ(dag.round_at(3), nullptr);

  // A horizon above every held round empties the table; it then refills
  // upward from the horizon, starting with a block whose parents all lie
  // below it.
  dag.prune_below(9);
  EXPECT_EQ(dag.block_count(), 0u);
  for (const auto& block : kept) EXPECT_FALSE(dag.contains(block->ref()));
  EXPECT_TRUE(dag.blocks_at(6).empty());
  std::vector<BlockRef> old_parents;
  for (const auto& block : kept) {
    if (block->round() == 6) old_parents.push_back(block->ref());
  }
  auto setup = Committee::make_test(4);
  const auto at_horizon = std::make_shared<const Block>(
      Block::make(1, 9, old_parents, {}, setup.committee.coin().share(1, 9),
                  setup.keypairs[1].private_key));
  EXPECT_TRUE(dag.insert(at_horizon));
  EXPECT_EQ(dag.block_count(), 1u);
  EXPECT_EQ(dag.find(at_horizon->ref()), at_horizon.get());
  EXPECT_EQ(dag.distinct_authors_at(9), 1u);
  // Below the horizon nothing inserts.
  const auto stale = std::make_shared<const Block>(
      Block::make(2, 8, old_parents, {}, setup.committee.coin().share(2, 8),
                  setup.keypairs[2].private_key));
  EXPECT_FALSE(dag.insert(stale));
  EXPECT_EQ(dag.block_count(), 1u);
}

TEST(DagBuilder, FullRoundsSatisfyQuorum) {
  DagBuilder b(10);
  b.build_fully_connected(4);
  EXPECT_EQ(b.dag().distinct_authors_at(4), 10u);
  // Every block references all 10 previous-round blocks.
  for (const auto& block : b.dag().blocks_at(4)) {
    EXPECT_EQ(block->parents().size(), 10u);
  }
}

TEST(DagBuilder, RandomNetworkRoundSamplesQuorum) {
  DagBuilder b(10, /*seed=*/1);
  Rng rng(5);
  b.add_full_round(1);
  const auto round2 = b.add_random_network_round(2, rng);
  EXPECT_EQ(round2.size(), 10u);
  for (const auto& block : round2) {
    // 2f+1 = 7 sampled parents, plus possibly the author's own block.
    EXPECT_GE(block->parents().size(), 7u);
    EXPECT_LE(block->parents().size(), 8u);
    // All parents distinct.
    std::set<Digest> digests;
    for (const auto& parent : block->parents()) digests.insert(parent.digest);
    EXPECT_EQ(digests.size(), block->parents().size());
  }
}

TEST(DagBuilder, AdversarialRoundSuppressesTargets) {
  DagBuilder b(10, /*seed=*/2);
  b.add_full_round(1);
  // Suppress validators 0 and 1: with 10 authors alive, the remaining 8 >=
  // quorum 7, so nobody references the suppressed blocks.
  const auto round2 = b.add_adversarial_round(2, {0, 1});
  for (const auto& block : round2) {
    for (const auto& parent : block->parents()) {
      EXPECT_NE(parent.author, 0u);
      EXPECT_NE(parent.author, 1u);
    }
  }
}

TEST(DagBuilder, AdversarialRoundYieldsWhenQuorumNeedsTargets) {
  DagBuilder b(4, /*seed=*/3);
  b.add_full_round(1);
  // Suppressing 2 of 4 would leave 2 < quorum 3: the adversary must let one
  // suppressed block through.
  const auto round2 = b.add_adversarial_round(2, {0, 1});
  for (const auto& block : round2) {
    EXPECT_GE(block->parents().size(), 3u);
  }
}

}  // namespace
}  // namespace mahimahi
