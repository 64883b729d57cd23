// The local DAG: every valid block a validator knows, indexed by its slot
// (round, author) (§2.3).
//
// One index. Rounds live in a dense table that starts at the GC horizon
// (pruned_below()) and loses rounds from its front as the horizon moves. A
// round holds one cell per author, and a cell holds that author's blocks at
// that round in arrival order: one for an honest author, several under
// equivocation (`slot()` returns all of them). A cell keeps its first block's
// digest inline, so resolving a reference is an index computation plus one
// digest compare that touches no Block; equivocating siblings are compared
// one by one.
//
// A reference resolves only at its own slot. find(ref) returns the block of
// cell (ref.round, ref.author) whose digest is ref.digest, and nothing else;
// an empty cell never matches, whatever the digest. A reference whose round
// or author disagrees with the block that has its digest is as absent as a
// reference to an unknown digest, so a block citing one never inserts. Every
// honest validator reaches that same verdict.
//
// Rounds are dense. insert() admits a block only when each parent is present
// or below the horizon, and validation (types/validation.h) requires 2f+1
// parents at round r-1. So a validated block above the horizon has a present
// parent at r-1, whose round is already in the table; a block at the horizon
// opens the table's first round. Each insertion grows the table by at most
// one round, upward from the horizon: a block claiming a huge round cannot
// force it to grow.
//
// Invariants maintained by the inserter (the validator's synchronizer):
//   * a block is only inserted after its entire causal history is present
//     ("causal completeness") and it passed validation;
//   * genesis blocks (round 0) are the committee's shared instances,
//     inserted at construction.
#pragma once

#include <vector>

#include "types/block.h"
#include "types/committee.h"

namespace mahimahi {

class Dag {
 public:
  // Constructs the DAG holding the committee's genesis blocks (round 0).
  explicit Dag(const Committee& committee);

  std::uint32_t committee_size() const { return n_; }

  // The block `ref` names: the block of cell (ref.round, ref.author) whose
  // digest is ref.digest; nullptr otherwise. Without the shared-pointer copy
  // (two atomic refcount updates), for hot read-only lookups that do not
  // outlive the block's presence.
  const Block* find(const BlockRef& ref) const;
  // As find(); nullptr when absent.
  BlockPtr get(const BlockRef& ref) const;
  bool contains(const BlockRef& ref) const { return find(ref) != nullptr; }

  // One author's blocks at one round.
  struct Cell {
    Digest first;                  // digest of blocks.front(); unused while empty
    std::vector<BlockPtr> blocks;  // arrival order; siblings are equivocations
  };

  // One round's blocks, by author.
  struct RoundSlots {
    std::vector<Cell> by_author;  // size n
    std::uint32_t distinct_authors = 0;
    // Blocks at the round, equivocations included. Slots only grow (until
    // pruned), so an unchanged count means no block was added.
    std::size_t block_count = 0;
  };

  // The round's slots, or nullptr when no block exists at `round`. Hot paths
  // fetch a round once and index its authors, instead of calling slot() per
  // author. The pointer is valid until the next insert() or prune_below();
  // the cells it reaches live as long as their round.
  const RoundSlots* round_at(Round round) const;

  // All known blocks by `author` at `round` (empty / one / several under
  // equivocation).
  const std::vector<BlockPtr>& slot(Round round, ValidatorId author) const;

  // Every block at `round`, all authors, equivocations included.
  std::vector<BlockPtr> blocks_at(Round round) const;

  // Number of distinct authors with at least one block at `round` (the
  // quorum measure used for round advancement and coin opening).
  std::uint32_t distinct_authors_at(Round round) const;

  // Highest round with at least one block (0 at genesis).
  Round highest_round() const { return highest_round_; }

  std::size_t block_count() const { return block_count_; }

  // True if every parent reference of `block` is present or below the GC
  // horizon.
  bool parents_present(const Block& block) const;

  // Inserts `block` when every parent is present or below the GC horizon:
  // the one presence check each insertion makes. Returns false (no-op) for a
  // duplicate or a block below the horizon. A missing parent also returns
  // false without inserting, after appending every absent reference to
  // `*missing`; with `missing` null it throws std::logic_error instead, as
  // it then indicates a synchronizer bug, not bad input.
  bool insert(BlockPtr block, std::vector<BlockRef>* missing = nullptr);

  // Is `old_ref` in the causal history of `from` (inclusive of `from`)?
  // Depth-first over parents, pruned by round; allocation-free once warm.
  bool is_link(const BlockRef& old_ref, const Block& from) const;

  // Drops all blocks with round < `round`. The caller must only prune
  // history that is already delivered (or will never be queried).
  void prune_below(Round round);
  Round pruned_below() const { return pruned_below_; }

 private:
  // The cell of (round, author); nullptr outside the table.
  const Cell* cell_at(Round round, ValidatorId author) const;
  // The block of `cell` whose digest is `digest`; nullptr if none.
  static const BlockPtr* match(const Cell& cell, const Digest& digest);
  // The block `ref` names, within its cell; nullptr if none.
  const BlockPtr* locate(const BlockRef& ref) const;

  std::uint32_t n_;
  std::vector<RoundSlots> rounds_;  // rounds_[i] holds round pruned_below_ + i
  std::size_t block_count_ = 0;
  Round highest_round_ = 0;
  Round pruned_below_ = 0;
  std::vector<BlockPtr> empty_;
};

}  // namespace mahimahi
