#include "validator/synchronizer.h"

#include "common/log.h"

namespace mahimahi {

Synchronizer::Outcome Synchronizer::offer(BlockPtr block) {
  Outcome outcome;
  const BlockRef ref = block->ref();
  if (pending_.contains(ref)) return outcome;

  // References below the DAG's GC horizon are satisfied by definition (they
  // can never be delivered; see Dag::parents_present) and are not fetched.
  unknown_.clear();
  if (dag_.insert(block, &unknown_)) {
    outcome.inserted.push_back(std::move(block));
    cascade(outcome.inserted);
    return outcome;
  }
  if (unknown_.empty()) return outcome;  // duplicate, or below the horizon

  if (pending_.size() >= max_pending_) {
    // Bounded buffer: drop the offer; the block will be re-fetched later if
    // it matters (it stays referenced by descendants).
    MM_LOG(kWarn) << "synchronizer pending buffer full; dropping block";
    return outcome;
  }

  pending_.emplace(ref, Pending{std::move(block), unknown_.size()});
  for (const BlockRef& parent : unknown_) {
    waiters_[parent].push_back(ref);
    // A parent might itself be pending (known but not insertable); only ask
    // the network for parents we have never seen. The caller de-duplicates
    // in-flight fetches.
    if (!pending_.contains(parent)) outcome.missing.push_back(parent);
  }
  return outcome;
}

std::vector<BlockPtr> Synchronizer::release(const BlockRef& ref) {
  std::vector<BlockPtr> ready;
  const auto it = waiters_.find(ref);
  if (it == waiters_.end()) return ready;
  const std::vector<BlockRef> dependents = std::move(it->second);
  waiters_.erase(it);
  for (const BlockRef& dependent : dependents) {
    const auto pending_it = pending_.find(dependent);
    if (pending_it == pending_.end()) continue;
    if (--pending_it->second.missing_count == 0) {
      ready.push_back(std::move(pending_it->second.block));
      pending_.erase(pending_it);
    }
  }
  return ready;
}

void Synchronizer::cascade(std::vector<BlockPtr>& inserted) {
  // Iteratively resolve waiters (a stack, to avoid recursion).
  std::vector<BlockRef> arrived{inserted.back()->ref()};
  while (!arrived.empty()) {
    const BlockRef ref = arrived.back();
    arrived.pop_back();
    for (BlockPtr& unblocked : release(ref)) {
      dag_.insert(unblocked);
      arrived.push_back(unblocked->ref());
      inserted.push_back(std::move(unblocked));
    }
  }
}

std::vector<BlockPtr> Synchronizer::prune_below(Round round) {
  std::vector<BlockPtr> inserted;

  // Drop pending blocks that are themselves below the horizon.
  std::erase_if(pending_,
                [round](const auto& entry) { return entry.first.round < round; });

  // Missing refs below the horizon are satisfied by definition: resolve
  // their waiters exactly as if the block had arrived.
  std::vector<BlockRef> satisfied;
  for (const auto& [ref, dependents] : waiters_) {
    if (ref.round < round) satisfied.push_back(ref);
  }
  for (const BlockRef& ref : satisfied) {
    for (BlockPtr& unblocked : release(ref)) {
      dag_.insert(unblocked);
      inserted.push_back(std::move(unblocked));
      cascade(inserted);
    }
  }
  return inserted;
}

std::vector<BlockRef> Synchronizer::outstanding() const {
  std::vector<BlockRef> out;
  out.reserve(waiters_.size());
  for (const auto& [ref, dependents] : waiters_) {
    if (!dag_.contains(ref) && !pending_.contains(ref)) out.push_back(ref);
  }
  return out;
}

}  // namespace mahimahi
