// The shipped commit rule against a reference oracle.
//
// The oracle is Algorithms 1-3 written as plainly as possible: VotedBlock is
// an ordered depth-first search with no memo beyond the search's own visited
// set, IsVote/IsCert count distinct authors in std::set, and the direct,
// skip and indirect rules re-evaluate every unconsumed slot from scratch
// after every block. After every single block insertion, the serial
// Committer::try_commit and the off-loop CommitScanner + Committer::apply
// split must have consumed exactly the slots the oracle consumed, with the
// same outcomes — over random-network, adversarial, crashed and equivocating
// DAGs, n in {4, 10, 50}, MM-4 and MM-5, with and without GC pruning.
//
// The file also bounds the committer's vote memo: with gc_depth = 0 it may
// hold no more target buckets than there are pending slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/env.h"
#include "core/commit_scanner.h"
#include "core/committer.h"
#include "sim/dag_builder.h"

namespace mahimahi {
namespace {

class Oracle {
 public:
  Oracle(const Dag& dag, const Committee& committee, CommitterOptions options)
      : dag_(dag), committee_(committee), options_(options),
        head_{options.first_slot_round, 0} {}

  // Algorithm 1: evaluate every unconsumed slot, latest first, then consume
  // the decided prefix.
  void step() {
    std::map<SlotId, SlotDecision> pass;
    for (SlotId slot = head_; slot.round <= dag_.highest_round(); slot = successor(slot)) {
      pass.emplace(slot, SlotDecision::undecided(slot));
    }
    for (auto it = pass.rbegin(); it != pass.rend(); ++it) {
      it->second = decide(it->first, pass);
    }
    for (const auto& [slot, decision] : pass) {
      if (decision.kind == SlotDecision::Kind::kUndecided) break;
      decided_.push_back(decision);
      head_ = successor(slot);
    }
  }

  const std::vector<SlotDecision>& decided() const { return decided_; }

 private:
  SlotId successor(SlotId slot) const {
    if (slot.leader_offset + 1 < options_.leaders_per_round) {
      return {slot.round, slot.leader_offset + 1};
    }
    return {slot.round + options_.wave_stride, 0};
  }

  std::uint32_t authors_at(Round round) const {
    std::uint32_t count = 0;
    for (ValidatorId a = 0; a < committee_.size(); ++a) {
      count += dag_.slot(round, a).empty() ? 0 : 1;
    }
    return count;
  }

  // Algorithm 3 VotedBlock: the first (author, round) block reached by the
  // ordered DFS over `block`'s references.
  std::optional<Digest> voted(const Block& block, ValidatorId author, Round round,
                              std::set<Digest>& visited) const {
    for (const BlockRef& parent : block.parents()) {
      if (parent.round < round) continue;
      if (parent.round == round && parent.author == author) return parent.digest;
      const BlockPtr next = dag_.get(parent);
      if (next == nullptr || !visited.insert(parent.digest).second) continue;
      if (auto found = voted(*next, author, round, visited)) return found;
    }
    return std::nullopt;
  }
  std::optional<Digest> voted(const Block& from, const Block& leader) const {
    std::set<Digest> visited;
    return voted(from, leader.author(), leader.round(), visited);
  }

  bool is_cert(const Block& cert, const Block& leader, Round vote_round) const {
    std::set<ValidatorId> voters;
    for (const BlockRef& parent : cert.parents()) {
      if (parent.round != vote_round) continue;
      const BlockPtr vote = dag_.get(parent);
      if (vote != nullptr && voted(*vote, leader) == leader.digest()) {
        voters.insert(parent.author);
      }
    }
    return voters.size() >= committee_.quorum_threshold();
  }

  // Distinct authors at `round` with at least one block matching `pred`.
  template <typename Pred>
  std::uint32_t authors_with(Round round, Pred pred) const {
    std::uint32_t count = 0;
    for (ValidatorId a = 0; a < committee_.size(); ++a) {
      const auto& cell = dag_.slot(round, a);
      count += std::any_of(cell.begin(), cell.end(),
                           [&](const BlockPtr& b) { return pred(*b); })
                   ? 1
                   : 0;
    }
    return count;
  }

  // Is `target` in the causal history of `from`?
  bool reaches(const Block& from, const Block& target) const {
    std::set<Digest> visited;
    std::vector<const Block*> stack{&from};
    while (!stack.empty()) {
      const Block* block = stack.back();
      stack.pop_back();
      if (block->digest() == target.digest()) return true;
      for (const BlockRef& parent : block->parents()) {
        if (parent.round < target.round()) continue;
        if (!visited.insert(parent.digest).second) continue;
        if (const BlockPtr next = dag_.get(parent)) stack.push_back(next.get());
      }
    }
    return false;
  }

  SlotDecision decide(SlotId slot, const std::map<SlotId, SlotDecision>& pass) const {
    SlotDecision d = SlotDecision::undecided(slot);
    const Round vote_round = options_.vote_round(slot.round);
    const Round certify_round = options_.certify_round(slot.round);
    const std::uint32_t quorum = committee_.quorum_threshold();
    if (authors_at(certify_round) < quorum) return d;  // coin closed
    d.leader = static_cast<ValidatorId>(
        (committee_.coin().value(certify_round) + slot.leader_offset) % committee_.size());
    const auto& candidates = dag_.slot(slot.round, d.leader);
    const auto commit = [&](const BlockPtr& block, SlotDecision::Via via) {
      d.kind = SlotDecision::Kind::kCommit;
      d.via = via;
      d.block = block;
      d.ref = block->ref();
      d.final_decision = true;
      return d;
    };
    const auto skip = [&](SlotDecision::Via via) {
      d.kind = SlotDecision::Kind::kSkip;
      d.via = via;
      d.final_decision = true;
      return d;
    };

    // Direct commit, then direct skip.
    for (const BlockPtr& candidate : candidates) {
      const auto certifies = [&](const Block& cert) {
        return is_cert(cert, *candidate, vote_round);
      };
      if (authors_with(certify_round, certifies) >= quorum) {
        return commit(candidate, SlotDecision::Via::kDirect);
      }
    }
    if (options_.direct_skip && authors_at(vote_round) >= quorum &&
        std::all_of(candidates.begin(), candidates.end(), [&](const BlockPtr& candidate) {
          const auto not_voting = [&](const Block& vote) {
            return voted(vote, *candidate) != candidate->digest();
          };
          return authors_with(vote_round, not_voting) >= quorum;
        })) {
      return skip(SlotDecision::Via::kDirect);
    }

    // Indirect: the first non-skipped slot of a later wave is the anchor.
    const SlotDecision* anchor = nullptr;
    for (auto it = pass.lower_bound({slot.round + options_.wave_length, 0});
         it != pass.end(); ++it) {
      if (it->second.kind != SlotDecision::Kind::kSkip) {
        anchor = &it->second;
        break;
      }
    }
    if (anchor == nullptr || anchor->kind == SlotDecision::Kind::kUndecided) return d;
    for (const BlockPtr& candidate : candidates) {
      for (const BlockPtr& cert : dag_.blocks_at(certify_round)) {
        if (is_cert(*cert, *candidate, vote_round) &&
            reaches(*anchor->block, *cert)) {
          return commit(candidate, SlotDecision::Via::kIndirect);
        }
      }
    }
    return skip(SlotDecision::Via::kIndirect);
  }

  const Dag& dag_;
  const Committee& committee_;
  CommitterOptions options_;
  SlotId head_;
  std::vector<SlotDecision> decided_;
};

enum class Shape { kRandom, kCrashed, kAdversarial, kEquivocating };

struct OracleCase {
  std::uint32_t n;
  std::uint32_t wave_length;
  Shape shape;
  Round gc_depth;
  Round rounds;
  // Off: every skip must come from the indirect rule.
  bool direct_skip = true;

  std::string label() const {
    static const char* const kShapes[] = {"rand", "crash", "adv", "equiv"};
    return "n" + std::to_string(n) + "_w" + std::to_string(wave_length) + "_" +
           kShapes[static_cast<int>(shape)] + "_gc" + std::to_string(gc_depth) +
           (direct_skip ? "" : "_nodirectskip");
  }
};

// Round r of an equivocating random network: every author references 2f+1
// random previous-round authors, picking one of each cell's equivocations at
// random; validators below min(f, 3) propose two blocks per round.
void add_equivocating_round(DagBuilder& builder, Round round, Rng& rng) {
  const Dag& dag = builder.dag();
  std::vector<ValidatorId> previous;
  for (ValidatorId a = 0; a < builder.n(); ++a) {
    if (!dag.slot(round - 1, a).empty()) previous.push_back(a);
  }
  const auto random_refs = [&] {
    std::shuffle(previous.begin(), previous.end(), rng);
    std::vector<BlockRef> refs;
    for (std::size_t i = 0; i < builder.quorum(); ++i) {
      const auto& cell = dag.slot(round - 1, previous[i]);
      refs.push_back(cell[rng.uniform(cell.size())]->ref());
    }
    return refs;
  };
  for (ValidatorId author = 0; author < builder.n(); ++author) {
    builder.add_block(author, round, random_refs());
    if (author < std::min<std::uint32_t>(builder.f(), 3)) {
      // The sibling has its own parents, so the two can vote differently.
      builder.add_block(author, round, random_refs());
    }
  }
}

std::unique_ptr<DagBuilder> build_dag(const OracleCase& c, const CommitterOptions& options,
                                      std::uint64_t seed) {
  auto builder = std::make_unique<DagBuilder>(c.n, seed);
  Rng rng(seed);
  std::vector<ValidatorId> alive;
  for (ValidatorId v = 0; v < c.n; ++v) {
    if (c.shape != Shape::kCrashed || v >= builder->f()) alive.push_back(v);
  }
  for (Round r = 1; r <= c.rounds; ++r) {
    switch (c.shape) {
      case Shape::kRandom:
      case Shape::kCrashed:
        builder->add_random_network_round(r, rng, alive);
        break;
      case Shape::kAdversarial: {
        // Leader delay: withhold the just-elected leaders' blocks from every
        // proposer that can form its quorum without them.
        std::vector<ValidatorId> suppressed;
        for (std::uint32_t o = 0; o < options.leaders_per_round; ++o) {
          suppressed.push_back(builder->leader_of({r - 1, o}, options));
        }
        builder->add_adversarial_round(r, suppressed);
        break;
      }
      case Shape::kEquivocating:
        add_equivocating_round(*builder, r, rng);
        break;
    }
  }
  return builder;
}

// Prunes like ValidatorCore::maybe_gc once the head passes gc_depth.
void maybe_gc(Dag& dag, Committer& committer) {
  const Round depth = committer.options().gc_depth;
  const Round head = committer.next_pending_slot().round;
  if (depth == 0 || head <= depth || head - depth <= dag.pruned_below()) return;
  dag.prune_below(head - depth);
  committer.prune_below(head - depth);
}

class CommitOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CommitOracle, EveryInsertionMatchesTheReference) {
  const OracleCase c = GetParam();
  CommitterOptions options = c.wave_length == 4 ? mahi_mahi_4(2) : mahi_mahi_5(2);
  options.gc_depth = c.gc_depth;
  options.direct_skip = c.direct_skip;
  CommitStats coverage;

  for (std::uint64_t seed = 1; seed <= property_iters(1); ++seed) {
    const auto global = build_dag(c, options, seed * 31 + c.n);
    const Committee& committee = global->committee();
    Rng rng(seed);

    // Causal order: rounds ascending, shuffled within a round.
    std::vector<BlockPtr> stream;
    for (Round r = 1; r <= c.rounds; ++r) {
      auto blocks = global->dag().blocks_at(r);
      std::shuffle(blocks.begin(), blocks.end(), rng);
      stream.insert(stream.end(), blocks.begin(), blocks.end());
    }

    Dag oracle_dag(committee);
    Oracle oracle(oracle_dag, committee, options);
    Dag serial_dag(committee);
    Committer serial(serial_dag, committee, options);
    Dag live(committee);
    Committer core(live, committee, options);
    CommitScanner scanner(live, core.next_pending_slot(), committee, options);

    for (std::size_t i = 0; i < stream.size(); ++i) {
      const BlockPtr& block = stream[i];
      oracle_dag.insert(block);
      oracle.step();

      serial_dag.insert(block);
      serial.try_commit();
      maybe_gc(serial_dag, serial);

      if (block->round() >= live.pruned_below()) live.insert(block);
      scanner.ingest({block});
      core.apply(scanner.scan());
      maybe_gc(live, core);

      const auto& expected = oracle.decided();
      for (const Committer* committer : {&serial, &core}) {
        const auto& got = committer->decided_sequence();
        ASSERT_EQ(got.size(), expected.size())
            << c.label() << " seed " << seed << " after block " << i << " ("
            << block->ref().to_string() << "), "
            << (committer == &serial ? "serial" : "split");
        for (std::size_t k = 0; k < got.size(); ++k) {
          ASSERT_TRUE(same_outcome(got[k], expected[k]) &&
                      got[k].leader == expected[k].leader)
              << c.label() << " seed " << seed << " after block " << i << ": "
              << got[k].to_string() << " vs oracle " << expected[k].to_string();
        }
      }
    }
    const CommitStats& stats = serial.stats();
    coverage.direct_commits += stats.direct_commits;
    coverage.indirect_commits += stats.indirect_commits;
    coverage.direct_skips += stats.direct_skips;
    coverage.indirect_skips += stats.indirect_skips;
  }

  // Each shape reaches the rules it exists for.
  EXPECT_GT(coverage.committed_slots() + coverage.skipped_slots(), 0u) << c.label();
  switch (c.shape) {
    case Shape::kRandom:
      EXPECT_GT(coverage.committed_slots(), 0u) << c.label();
      break;
    case Shape::kCrashed:
    case Shape::kAdversarial:
      EXPECT_GT(coverage.skipped_slots(), 0u) << c.label();
      break;
    case Shape::kEquivocating:
      EXPECT_GT(coverage.indirect_commits + coverage.indirect_skips, 0u) << c.label();
      break;
  }
  if (!c.direct_skip) {
    EXPECT_GT(coverage.indirect_skips, 0u) << c.label();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CommitOracle,
    ::testing::Values(OracleCase{4, 5, Shape::kRandom, 0, 30},
                      OracleCase{4, 4, Shape::kCrashed, 3, 30},
                      OracleCase{4, 5, Shape::kAdversarial, 0, 30},
                      OracleCase{4, 4, Shape::kEquivocating, 2, 30},
                      OracleCase{10, 4, Shape::kRandom, 2, 24},
                      OracleCase{10, 5, Shape::kCrashed, 0, 24},
                      OracleCase{10, 4, Shape::kAdversarial, 3, 24},
                      OracleCase{10, 5, Shape::kEquivocating, 0, 24},
                      OracleCase{10, 5, Shape::kCrashed, 0, 24, false},
                      OracleCase{4, 4, Shape::kAdversarial, 2, 30, false},
                      OracleCase{50, 5, Shape::kRandom, 2, 12},
                      OracleCase{50, 4, Shape::kCrashed, 0, 12},
                      OracleCase{50, 4, Shape::kAdversarial, 3, 8}),
    [](const ::testing::TestParamInfo<OracleCase>& info) { return info.param.label(); });

// The vote memo holds one bucket per pending slot at most: consumed slots
// drop theirs, so with gc_depth = 0 (nothing is ever pruned) it stays
// bounded instead of growing with the DAG.
TEST(CommitterMemo, BucketsStayBoundedByPendingSlotsWithoutGc) {
  const CommitterOptions options = mahi_mahi_5(2);
  ASSERT_EQ(options.gc_depth, 0u);
  DagBuilder builder(10);
  Committer committer(builder.dag(), builder.committee(), options);
  Rng rng(5);
  std::size_t peak = 0;
  for (Round r = 1; r <= 200; ++r) {
    builder.add_random_network_round(r, rng);
    committer.try_commit();
    std::size_t pending = 0;
    for (SlotId s = committer.next_pending_slot(); s.round <= r;
         s = s.leader_offset + 1 < options.leaders_per_round
                 ? SlotId{s.round, s.leader_offset + 1}
                 : SlotId{s.round + 1, 0}) {
      ++pending;
    }
    ASSERT_LE(committer.cached_targets(), pending) << "round " << r;
    peak = std::max(peak, committer.cached_targets());
  }
  EXPECT_GT(committer.stats().committed_slots(), 300u);
  EXPECT_LE(peak, 2u * options.wave_length * options.leaders_per_round);
}

}  // namespace
}  // namespace mahimahi
