#include "core/committer.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/linearize.h"

namespace mahimahi {

std::string SlotDecision::to_string() const {
  std::string out = slot.to_string() + "=";
  switch (kind) {
    case Kind::kUndecided: out += "undecided"; break;
    case Kind::kCommit: out += "commit(" + ref.to_string() + ")"; break;
    case Kind::kSkip: out += "skip"; break;
  }
  if (via == Via::kDirect) out += "/direct";
  if (via == Via::kIndirect) out += "/indirect";
  return out;
}

Committer::Committer(const Dag& dag, const Committee& committee,
                     CommitterOptions options)
    : dag_(dag), committee_(committee), options_(options), votes_(dag) {
  if (!options_.valid()) throw std::invalid_argument("invalid CommitterOptions");
  if (options_.leaders_per_round > committee_.size()) {
    // A validator may lead at most one slot per round; otherwise one block
    // could occupy two slots and be delivered twice.
    throw std::invalid_argument("leaders_per_round exceeds committee size");
  }
  next_pending_ = SlotId{options_.first_slot_round, 0};
}

SlotId Committer::successor(SlotId slot) const {
  if (slot.leader_offset + 1 < options_.leaders_per_round) {
    return SlotId{slot.round, slot.leader_offset + 1};
  }
  return SlotId{slot.round + options_.wave_stride, 0};
}

Round Committer::highest_propose_round() const {
  const Round highest = dag_.highest_round();
  if (highest < options_.first_slot_round) return 0;  // no slots exist yet
  const Round offset = (highest - options_.first_slot_round) % options_.wave_stride;
  return highest - offset;
}

std::optional<ValidatorId> Committer::slot_leader(SlotId slot) const {
  const Round certify = options_.certify_round(slot.round);
  // The coin for a wave opens once 2f+1 distinct authors contributed their
  // certify-round shares (§3.2 step 1); shares travel inside blocks, so this
  // is a condition on the DAG.
  if (dag_.distinct_authors_at(certify) < committee_.quorum_threshold()) {
    return std::nullopt;
  }
  const std::uint64_t coin = committee_.coin().value(certify);
  return static_cast<ValidatorId>((coin + slot.leader_offset) % committee_.size());
}

SlotDecision Committer::evaluate(std::size_t index) {
  Pending& entry = pending_[index];
  const SlotId slot = entry.decision.slot;
  SlotDecision decision = SlotDecision::undecided(slot);

  if (!entry.leader.has_value()) {
    entry.leader = slot_leader(slot);
    if (!entry.leader.has_value()) return decision;  // coin not yet reconstructible
  }
  const ValidatorId leader = *entry.leader;
  decision.leader = leader;

  const Round vote_round = options_.vote_round(slot.round);
  const Round certify_round = options_.certify_round(slot.round);
  const std::uint32_t quorum = committee_.quorum_threshold();
  const auto& candidates = dag_.slot(slot.round, leader);
  const Dag::RoundSlots* votes = dag_.round_at(vote_round);
  const Dag::RoundSlots* certify = dag_.round_at(certify_round);
  VoteIndex::Target& target = votes_.target(slot.round, leader);

  // --- Direct decision rule (§3.2 step 2). ---
  // Commit evidence: 2f+1 distinct certify-round authors each holding a
  // certificate block over the candidate.
  if (certify != nullptr) {
    for (const BlockPtr& candidate : candidates) {
      if (votes_.certifying_authors(target, *candidate, *certify, vote_round, quorum) >=
          quorum) {
        decision.kind = SlotDecision::Kind::kCommit;
        decision.via = SlotDecision::Via::kDirect;
        decision.block = candidate;
        decision.ref = candidate->ref();
        decision.final_decision = true;
        return decision;
      }
    }
  }
  // Skip evidence for one candidate: 2f+1 distinct vote-round authors with a
  // block that does not vote for it. Such a candidate can never gather a
  // certificate (Lemma 3's quorum intersection).
  if (options_.direct_skip && votes != nullptr && votes->distinct_authors >= quorum) {
    bool all_candidates_dead = true;
    for (const BlockPtr& candidate : candidates) {
      if (votes_.non_voting_authors(target, *candidate, *votes, quorum) < quorum) {
        all_candidates_dead = false;
        break;
      }
    }
    if (all_candidates_dead) {
      decision.kind = SlotDecision::Kind::kSkip;
      decision.via = SlotDecision::Via::kDirect;
      decision.final_decision = true;
      return decision;
    }
  }

  // --- Indirect decision rule (§3.2 step 3). ---
  // Anchor: the earliest slot of a later wave (round > certify round, i.e.
  // round >= propose + wave_length) that is not skipped.
  const SlotId first_later{slot.round + options_.wave_length, 0};
  const SlotDecision* anchor = nullptr;
  for (std::size_t j = index + 1; j < pending_.size(); ++j) {
    const SlotDecision& later = pending_[j].decision;
    if (later.slot < first_later) continue;
    if (later.kind != SlotDecision::Kind::kSkip) {
      anchor = &later;
      break;
    }
  }
  if (anchor == nullptr || anchor->kind == SlotDecision::Kind::kUndecided) {
    return decision;  // undecided, for now
  }

  assert(anchor->kind == SlotDecision::Kind::kCommit);
  // Commit iff the anchor's causal history contains a certificate over a
  // candidate (at most one candidate can be certified, Lemma 2).
  const auto linked_certificate = [&](const Block& candidate) {
    if (certify == nullptr) return false;
    for (const Dag::Cell& cell : certify->by_author) {
      for (const BlockPtr& cert : cell.blocks) {
        if (votes_.is_cert(target, *cert, candidate, vote_round, quorum) &&
            dag_.is_link(cert->ref(), *anchor->block)) {
          return true;
        }
      }
    }
    return false;
  };
  for (const BlockPtr& candidate : candidates) {
    if (linked_certificate(*candidate)) {
      decision.kind = SlotDecision::Kind::kCommit;
      decision.via = SlotDecision::Via::kIndirect;
      decision.block = candidate;
      decision.ref = candidate->ref();
      decision.final_decision = true;
      return decision;
    }
  }
  decision.kind = SlotDecision::Kind::kSkip;
  decision.via = SlotDecision::Via::kIndirect;
  decision.final_decision = true;
  return decision;
}

void Committer::evaluate_pending() {
  // Extend the window to every slot whose propose round exists.
  const Round highest = highest_propose_round();
  SlotId next = pending_.empty() ? next_pending_ : successor(pending_.back().decision.slot);
  for (; next.round <= highest; next = successor(next)) {
    pending_.push_back(Pending{.decision = SlotDecision::undecided(next), .leader = {}});
  }
  // Descending over pending slots (Algorithm 1, TryDecide): later slots are
  // evaluated first so the indirect rule can consult them. Final decisions
  // never change and are not re-evaluated.
  for (std::size_t i = pending_.size(); i-- > 0;) {
    if (pending_[i].decision.final_decision) continue;
    pending_[i].decision = evaluate(i);
  }
}

std::vector<SlotDecision> Committer::scan() {
  evaluate_pending();
  // The decided prefix in slot order, stopping at the first undecided slot
  // (Algorithm 1, ExtendCommitSequence). Consumption is apply()'s job.
  std::vector<SlotDecision> out;
  for (const Pending& entry : pending_) {
    if (entry.decision.kind == SlotDecision::Kind::kUndecided) break;
    out.push_back(entry.decision);
  }
  return out;
}

void Committer::pop_pending() {
  const Pending& front = pending_.front();
  if (front.leader.has_value()) votes_.forget(front.decision.slot.round, *front.leader);
  pending_.pop_front();
}

std::vector<CommittedSubDag> Committer::apply(
    const std::vector<SlotDecision>& decisions, bool deliver) {
  std::vector<CommittedSubDag> out;
  for (const SlotDecision& decision : decisions) {
    if (decision.slot < next_pending_) continue;  // consumed by an earlier apply
    if (decision.slot != next_pending_) break;    // gap: scanned ahead of our head
    assert(decision.final_decision);

    decided_log_.push_back(decision);
    if (decision.kind == SlotDecision::Kind::kCommit) {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_commits
                                                 : ++stats_.indirect_commits;
      if (deliver) {
        const Round leader_round = decision.block->round();
        const Round min_round =
            options_.gc_depth > 0 && leader_round > options_.gc_depth
                ? leader_round - options_.gc_depth
                : 0;
        out.push_back(linearize_sub_dag(dag_, decision.slot, decision.block,
                                        delivered_, stats_, min_round));
      }
    } else {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_skips
                                                 : ++stats_.indirect_skips;
    }
    if (!pending_.empty()) {
      assert(pending_.front().decision.slot == decision.slot);
      pop_pending();
    }
    next_pending_ = successor(decision.slot);
  }
  return out;
}

void Committer::fast_forward(SlotId head) {
  if (head <= next_pending_) return;
  next_pending_ = head;
  // Pending slots below the head can never be consumed now.
  while (!pending_.empty() && pending_.front().decision.slot < head) pop_pending();
}

std::vector<std::pair<Digest, Round>> Committer::delivered_snapshot(
    Round min_round) const {
  std::vector<std::pair<Digest, Round>> out;
  for (const auto& [digest, round] : delivered_) {
    if (round >= min_round) out.emplace_back(digest, round);
  }
  // The map iterates in hash order; a checkpoint must encode
  // deterministically (two captures of the same cut are byte-identical).
  std::sort(out.begin(), out.end());
  return out;
}

void Committer::restore(std::vector<SlotDecision> decided, SlotId head,
                        const std::vector<std::pair<Digest, Round>>& delivered) {
  decided_log_ = std::move(decided);
  next_pending_ = head;
  // Memoized evaluations predate the installed DAG; drop them rather than
  // reason about which survive (they are a cache, re-deriving is cheap).
  pending_.clear();
  votes_.clear();
  delivered_.clear();
  for (const auto& [digest, round] : delivered) delivered_.emplace(digest, round);
  delivered_pruned_below_ = 0;
  stats_ = {};
  for (const SlotDecision& decision : decided_log_) {
    if (decision.kind == SlotDecision::Kind::kCommit) {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_commits
                                                 : ++stats_.indirect_commits;
    } else if (decision.kind == SlotDecision::Kind::kSkip) {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_skips
                                                 : ++stats_.indirect_skips;
    }
  }
}

std::vector<CommittedSubDag> Committer::try_commit() { return apply(scan()); }

void Committer::prune_below(Round round) {
  votes_.forget_below(round);
  // Delivered entries below the GC cut are never consulted again (linearize
  // skips sub-cut parents before the delivered check). Rescan the map only
  // every 16 rounds of horizon progress to amortize the O(map) sweep.
  if (round >= delivered_pruned_below_ + 16) {
    delivered_pruned_below_ = round;
    std::erase_if(delivered_,
                  [round](const auto& entry) { return entry.second < round; });
  }
}

}  // namespace mahimahi
