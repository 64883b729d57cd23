// Vote interpretation over the uncertified DAG (Algorithm 3).
//
// A block `v` votes for leader block `b` at (author, round) if `b` is the
// FIRST block authored by (author, round) encountered in the ordered
// depth-first traversal of v's causal references (Observation 1: this makes
// "vote" single-valued per voter even under equivocation). The traversal is
// a pure function of block content, so its results are memoized; it is
// implemented iteratively (a reused explicit frame stack) because in
// parallel-commit mode it runs on worker-pool threads, whose stacks must
// survive arbitrarily deep unmemoized ancestor chains.
//
// Memo layout and lifetime. The memo is grouped by TARGET slot (round,
// author): one bucket per pending leader slot the committer evaluates. A
// bucket holds
//   * the vote resolutions toward its target: a grid with one cell per
//     (round, author) from the target round up to the deepest traversal
//     root, holding the first block seen in that cell (equivocating siblings
//     and blocks outside the grid spill into a digest-keyed map). A lookup
//     is an index computation and one digest compare — no hashing and no
//     DAG lookup on a hit;
//   * the certificate verdicts of its candidate blocks, as per-author
//     tallies: which certify-round (resp. vote-round) blocks were already
//     tested against each candidate, and how many distinct authors hold a
//     certificate for it (resp. a block that does not vote for it). A
//     re-scan tests only blocks that arrived since the previous one.
// The committer drops a bucket as soon as its slot is consumed (apply,
// fast_forward, restore), so the memo never holds more buckets than there
// are pending slots, whatever the DAG's GC depth. prune_below() drops whole
// buckets below a round in O(buckets).
//
// Blocks are referenced by raw pointer. That is safe because every block a
// bucket points to sits at or above its target round, and a DAG never
// prunes a round that still hosts a pending slot.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dag/dag.h"

namespace mahimahi {

class VoteIndex {
 public:
  // The result of one VotedBlock resolution.
  struct Vote {
    bool found = false;            // a (round, author) block was reached
    const Block* target = nullptr;  // that block; nullptr if not in the DAG
  };

  // Distinct authors of one round with at least one block satisfying a
  // per-candidate predicate, brought up to date incrementally.
  struct AuthorTally {
    static constexpr std::uint32_t kCounted = UINT32_MAX;
    std::vector<std::uint32_t> tested;  // per author: cell blocks tested, or kCounted
    std::uint32_t authors = 0;
    std::size_t blocks_seen = 0;  // the round's block_count when last complete
  };

  // The memo bucket of one target slot (see the file comment).
  struct Target {
    struct Entry {
      Digest digest;  // the traversal root memoized in this cell
      Vote vote;
      bool filled = false;
    };
    struct Tally {
      const Block* candidate;
      AuthorTally certificates;  // certify-round authors certifying it
      AuthorTally non_votes;     // vote-round authors not voting for it
    };

    Round round = 0;
    ValidatorId author = 0;
    Round rows = 0;              // grid covers rounds round .. round+rows-1
    std::vector<Entry> grid;     // rows x n, row-major
    std::unordered_map<Digest, Vote, DigestHasher> spill;
    std::vector<Tally> tallies;  // one per candidate block tested so far
  };

  explicit VoteIndex(const Dag& dag) : dag_(dag) {}

  // The bucket of target slot (round, author), created on first use.
  Target& target(Round round, ValidatorId author);

  // Algorithm 3 IsCert: `cert` carries >= 2f+1 distinct-author vote-round
  // parents that vote for `leader` (the target's block). Quorums count
  // distinct authors (not raw blocks), which is what the Appendix C
  // quorum-intersection arguments rely on under equivocation.
  bool is_cert(Target& target, const Block& cert, const Block& leader, Round vote_round,
               std::uint32_t quorum);

  // Distinct `certify`-round authors with a block that is a certificate over
  // `candidate` (direct commit evidence). Stops counting at `quorum`.
  std::uint32_t certifying_authors(Target& target, const Block& candidate,
                                   const Dag::RoundSlots& certify, Round vote_round,
                                   std::uint32_t quorum);

  // Distinct `votes`-round authors with a block that does not vote for
  // `candidate` (direct skip evidence). Stops counting at `quorum`.
  std::uint32_t non_voting_authors(Target& target, const Block& candidate,
                                   const Dag::RoundSlots& votes, std::uint32_t quorum);

  // Drops the bucket of a consumed slot.
  void forget(Round round, ValidatorId author) { targets_.erase({round, author}); }
  // Drops every bucket whose target round is below `round`.
  void forget_below(Round round) {
    targets_.erase(targets_.begin(), targets_.lower_bound({round, 0}));
  }
  void clear() { targets_.clear(); }

  // Cached target buckets (bounded by the committer's pending slots).
  std::size_t size() const { return targets_.size(); }

 private:
  // The first (target.round, target.author) block in the ordered DFS from
  // `from`, exclusive of `from` itself.
  Vote resolve(Target& target, const Block& from);
  // The memoized resolution from the block `digest`, looked up in the cell
  // (round, author); nullptr on a miss.
  const Vote* lookup(const Target& target, Round round, ValidatorId author,
                     const Digest& digest) const;
  void remember(Target& target, const Block& block, Vote vote);
  // Resolution from the block `ref` names: memo first, then the DAG. False
  // when the block is absent (pruned history).
  bool vote_of(Target& target, const BlockRef& ref, Vote& out);
  Target::Tally& tally_of(Target& target, const Block& candidate);
  template <typename Pred>
  std::uint32_t tally(AuthorTally& tally, const Dag::RoundSlots& round,
                      std::uint32_t quorum, Pred matches);

  struct Frame {
    const Block* block;
    std::size_t next_parent = 0;
    Vote vote;
  };

  const Dag& dag_;
  std::map<std::pair<Round, ValidatorId>, Target> targets_;
  std::vector<Frame> stack_;           // resolve()'s DFS frames, reused
  std::vector<std::uint64_t> voters_;  // is_cert()'s author bitset, reused
};

}  // namespace mahimahi
