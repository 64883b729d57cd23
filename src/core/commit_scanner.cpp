#include "core/commit_scanner.h"

namespace mahimahi {

CommitScanner::CommitScanner(const Dag& seed, SlotId head, const Committee& committee,
                             CommitterOptions options)
    : replica_(seed), scanner_(replica_, committee, options) {
  scanner_.fast_forward(head);
}

void CommitScanner::ingest(const std::vector<BlockPtr>& blocks) {
  for (const BlockPtr& block : blocks) {
    // A block below the replica's horizon (the owner admitted it before its
    // own, lagging GC caught up with ours) is not inserted. Sub-horizon
    // blocks can never influence a pending slot — every pending slot's
    // vote/certify rounds sit at or above the consumption head, strictly
    // above the horizon — and the owner linearizes against its full DAG, so
    // skipping is safe.
    if (replica_.insert(block)) ++blocks_ingested_;
  }
}

std::vector<SlotDecision> CommitScanner::scan() {
  ++scans_run_;
  std::vector<SlotDecision> decisions = scanner_.scan();
  if (decisions.empty()) return decisions;
  // Consume without delivering: the owner's apply() does the linearization.
  scanner_.apply(decisions, /*deliver=*/false);
  // Mirror the owner's GC (ValidatorCore::maybe_gc): once the head passes
  // gc_depth, rounds below head - gc_depth can never be scanned again.
  const Round depth = scanner_.options().gc_depth;
  const Round head = scanner_.next_pending_slot().round;
  if (depth > 0 && head > depth) {
    const Round horizon = head - depth;
    if (horizon > replica_.pruned_below()) {
      replica_.prune_below(horizon);
      scanner_.prune_below(horizon);
    }
  }
  return decisions;
}

}  // namespace mahimahi
