#include "core/linearize.h"

#include <algorithm>

namespace mahimahi {

CommittedSubDag linearize_sub_dag(const Dag& dag, SlotId slot, BlockPtr leader,
                                  DeliveredMap& delivered, CommitStats& stats,
                                  Round min_round) {
  CommittedSubDag sub_dag;
  sub_dag.slot = slot;
  sub_dag.leader = leader;

  // A block is marked delivered when it is discovered, so `delivered` is
  // also the traversal's visited set. sub_dag.blocks doubles as the work
  // list; the sort below fixes the order.
  delivered.emplace(leader->digest(), leader->round());
  sub_dag.blocks.push_back(std::move(leader));
  for (std::size_t next = 0; next < sub_dag.blocks.size(); ++next) {
    for (const BlockRef& parent : sub_dag.blocks[next]->parents()) {
      // The GC cut: references below min_round are deterministically
      // excluded, whether or not the local DAG still holds them.
      if (parent.round < min_round || delivered.contains(parent.digest)) continue;
      if (BlockPtr block = dag.get(parent)) {
        delivered.emplace(parent.digest, parent.round);
        sub_dag.blocks.push_back(std::move(block));
      }
    }
  }

  std::sort(sub_dag.blocks.begin(), sub_dag.blocks.end(),
            [](const BlockPtr& a, const BlockPtr& b) {
              if (a->round() != b->round()) return a->round() < b->round();
              if (a->author() != b->author()) return a->author() < b->author();
              return a->digest() < b->digest();
            });

  for (const BlockPtr& block : sub_dag.blocks) {
    ++stats.delivered_blocks;
    stats.delivered_transactions += block->transaction_count();
  }
  return sub_dag;
}

}  // namespace mahimahi
