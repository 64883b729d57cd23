// Causal-completeness enforcement (§2.3, Lemma 8).
//
// Honest validators only admit a block to the DAG once its entire causal
// history is present and valid. Blocks whose parents are missing wait in a
// bounded buffer while the missing ancestors are fetched from the sender
// (who, having referenced them, must hold them).
#pragma once

#include <unordered_map>
#include <vector>

#include "dag/dag.h"
#include "types/block.h"

namespace mahimahi {

class Synchronizer {
 public:
  Synchronizer(Dag& dag, std::size_t max_pending) : dag_(dag), max_pending_(max_pending) {}

  struct Outcome {
    // Blocks inserted into the DAG by this step (the argument block and any
    // pending blocks it unblocked), in insertion order.
    std::vector<BlockPtr> inserted;
    // Parents that are still unknown and should be fetched.
    std::vector<BlockRef> missing;
  };

  // Offers a structurally valid block. Inserts it (and cascades) when its
  // parents are present; otherwise parks it and reports what is missing.
  // The DAG's insert makes the one presence check per parent. Blocks below
  // the DAG's GC horizon are dropped.
  Outcome offer(BlockPtr block);

  bool is_pending(const BlockRef& ref) const { return pending_.contains(ref); }
  std::size_t pending_count() const { return pending_.size(); }

  // Refs currently being waited for (for retry logic).
  std::vector<BlockRef> outstanding() const;

  // GC: missing refs below `round` count as satisfied (their blocks can
  // never be delivered — see Dag::parents_present), so pending blocks
  // waiting only on them unblock and insert; returns the blocks inserted.
  // Pending blocks that are themselves below `round` are dropped as stale.
  std::vector<BlockPtr> prune_below(Round round);

 private:
  // Counts `ref` as present for the pending blocks waiting on it; returns
  // (and unparks) those with nothing left to wait for.
  std::vector<BlockPtr> release(const BlockRef& ref);
  // inserted.back() just entered the DAG: inserts every pending block it
  // unblocks, transitively, appending each to `inserted`.
  void cascade(std::vector<BlockPtr>& inserted);

  Dag& dag_;
  std::size_t max_pending_;

  struct Pending {
    BlockPtr block;
    std::size_t missing_count = 0;
  };
  std::unordered_map<BlockRef, Pending, BlockRefHasher> pending_;
  // Missing parent ref -> refs of the pending blocks waiting on it. A block
  // satisfies only the key that names its own slot and digest.
  std::unordered_map<BlockRef, std::vector<BlockRef>, BlockRefHasher> waiters_;
  std::vector<BlockRef> unknown_;  // offer()'s missing parents, reused
};

}  // namespace mahimahi
