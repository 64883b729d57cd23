#include "core/vote_index.h"

namespace mahimahi {

VoteIndex::Target& VoteIndex::target(Round round, ValidatorId author) {
  const auto [it, created] = targets_.try_emplace({round, author});
  if (created) {
    it->second.round = round;
    it->second.author = author;
  }
  return it->second;
}

const VoteIndex::Vote* VoteIndex::lookup(const Target& target, Round round,
                                         ValidatorId author, const Digest& digest) const {
  const std::uint32_t n = dag_.committee_size();
  if (round >= target.round && round - target.round < target.rows && author < n) {
    const Target::Entry& entry = target.grid[(round - target.round) * n + author];
    // Only an occupied cell spills, so an empty one is a miss. (A block
    // spilled before the grid grew to cover it is recomputed: same result.)
    if (!entry.filled) return nullptr;
    if (entry.digest == digest) return &entry.vote;
  }
  if (target.spill.empty()) return nullptr;
  const auto it = target.spill.find(digest);
  return it == target.spill.end() ? nullptr : &it->second;
}

void VoteIndex::remember(Target& target, const Block& block, Vote vote) {
  const std::uint32_t n = dag_.committee_size();
  const Round round = block.round();
  if (round >= target.round && round - target.round < target.rows &&
      block.author() < n) {
    Target::Entry& entry = target.grid[(round - target.round) * n + block.author()];
    if (!entry.filled) {
      entry = Target::Entry{.digest = block.digest(), .vote = vote, .filled = true};
      return;
    }
  }
  // An equivocating sibling of the cell's block, or a block outside the grid.
  target.spill.emplace(block.digest(), vote);
}

VoteIndex::Vote VoteIndex::resolve(Target& target, const Block& from) {
  // Algorithm 3, VotedBlock: the target round must be strictly below the
  // traversal root; otherwise nothing can be found.
  if (target.round >= from.round()) return {};
  if (const Vote* memo = lookup(target, from.round(), from.author(), from.digest())) {
    return *memo;
  }
  if (from.round() - target.round >= target.rows) {
    // Rows are appended above the existing ones, so filled cells keep their
    // index.
    target.rows = from.round() - target.round + 1;
    target.grid.resize(static_cast<std::size_t>(target.rows) * dag_.committee_size());
  }

  // Iterative ordered depth-first traversal with an explicit frame stack.
  // In parallel-commit mode this runs inside worker-pool tasks, where an
  // unmemoized ancestor chain as deep as the unpruned DAG must not overflow
  // a thread stack the way head recursion could. Raw Block pointers are safe
  // while the owning DAG is not mutated, which the single-threaded-use
  // contract of the committer guarantees.
  stack_.clear();
  stack_.push_back(Frame{.block = &from, .next_parent = 0, .vote = {}});
  Vote propagated;
  bool child_returned = false;

  while (!stack_.empty()) {
    Frame& frame = stack_.back();
    if (child_returned) {
      child_returned = false;
      if (propagated.found) frame.vote = propagated;
    }

    bool descended = false;
    const std::vector<BlockRef>& parents = frame.block->parents();
    while (!frame.vote.found && frame.next_parent < parents.size()) {
      const BlockRef& parent = parents[frame.next_parent++];
      if (parent.round < target.round) continue;  // cannot contain the target
      if (parent.round == target.round && parent.author == target.author) {
        frame.vote = Vote{.found = true, .target = dag_.find(parent)};
        break;
      }
      // The reference names the block's cell, so a memo hit costs no DAG
      // lookup (a block is only ever found at the cell its refs name).
      if (const Vote* memo = lookup(target, parent.round, parent.author, parent.digest)) {
        if (memo->found) frame.vote = *memo;
        continue;
      }
      const Block* block = dag_.find(parent);
      if (block == nullptr) continue;  // pruned history; treated as absent
      // Invalidates `frame`.
      stack_.push_back(Frame{.block = block, .next_parent = 0, .vote = {}});
      descended = true;
      break;
    }
    if (descended) continue;

    // Frame exhausted (or found the target): memoize and propagate upward.
    remember(target, *frame.block, frame.vote);
    propagated = frame.vote;
    child_returned = true;
    stack_.pop_back();
  }
  return propagated;
}

bool VoteIndex::vote_of(Target& target, const BlockRef& ref, Vote& out) {
  if (const Vote* memo = lookup(target, ref.round, ref.author, ref.digest)) {
    out = *memo;
    return true;
  }
  const Block* block = dag_.find(ref);
  if (block == nullptr) return false;
  out = resolve(target, *block);
  return true;
}

bool VoteIndex::is_cert(Target& target, const Block& cert, const Block& leader,
                        Round vote_round, std::uint32_t quorum) {
  // Distinct voting authors, as a bitset over the committee. Validated
  // blocks reference committee members only (validate_block_structure).
  const std::uint32_t n = dag_.committee_size();
  voters_.assign((n + 63) / 64, 0);
  std::uint32_t voters = 0;
  for (const BlockRef& parent : cert.parents()) {
    if (parent.round != vote_round || parent.author >= n) continue;
    std::uint64_t& word = voters_[parent.author / 64];
    const std::uint64_t bit = std::uint64_t{1} << (parent.author % 64);
    if ((word & bit) != 0) continue;
    Vote vote;
    if (!vote_of(target, parent, vote)) continue;
    if (vote.found && vote.target == &leader) {
      word |= bit;
      if (++voters >= quorum) return true;
    }
  }
  return voters >= quorum;
}

template <typename Pred>
std::uint32_t VoteIndex::tally(AuthorTally& tally, const Dag::RoundSlots& round,
                               std::uint32_t quorum, Pred matches) {
  // Slots only grow, so a round whose block count did not move since the
  // last complete pass has nothing new to test.
  if (tally.authors >= quorum || round.block_count == tally.blocks_seen) {
    return tally.authors;
  }
  if (tally.tested.empty()) tally.tested.resize(round.by_author.size(), 0);
  for (std::size_t a = 0; a < round.by_author.size(); ++a) {
    std::uint32_t& tested = tally.tested[a];
    if (tested == AuthorTally::kCounted) continue;
    const std::vector<BlockPtr>& cell = round.by_author[a].blocks;
    for (; tested < cell.size(); ++tested) {
      if (matches(*cell[tested])) {
        tested = AuthorTally::kCounted;  // one matching block per author suffices
        ++tally.authors;
        break;
      }
    }
    if (tally.authors >= quorum) return tally.authors;
  }
  tally.blocks_seen = round.block_count;
  return tally.authors;
}

VoteIndex::Target::Tally& VoteIndex::tally_of(Target& target, const Block& candidate) {
  for (Target::Tally& tally : target.tallies) {
    if (tally.candidate == &candidate) return tally;
  }
  return target.tallies.emplace_back(
      Target::Tally{.candidate = &candidate, .certificates = {}, .non_votes = {}});
}

std::uint32_t VoteIndex::certifying_authors(Target& target, const Block& candidate,
                                            const Dag::RoundSlots& certify,
                                            Round vote_round, std::uint32_t quorum) {
  return tally(tally_of(target, candidate).certificates, certify, quorum,
               [&](const Block& cert) {
                 return is_cert(target, cert, candidate, vote_round, quorum);
               });
}

std::uint32_t VoteIndex::non_voting_authors(Target& target, const Block& candidate,
                                            const Dag::RoundSlots& votes,
                                            std::uint32_t quorum) {
  return tally(tally_of(target, candidate).non_votes, votes, quorum,
               [&](const Block& vote) {
                 const Vote v = resolve(target, vote);
                 return !(v.found && v.target == &candidate);
               });
}

}  // namespace mahimahi
