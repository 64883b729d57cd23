#include "dag/dag.h"

#include <algorithm>
#include <stdexcept>

namespace mahimahi {

Dag::Dag(const Committee& committee) : n_(committee.size()) {
  for (const BlockPtr& block : committee.genesis()) insert(block);
}

const Dag::Cell* Dag::cell_at(Round round, ValidatorId author) const {
  if (round < pruned_below_ || author >= n_) return nullptr;
  const Round row = round - pruned_below_;
  if (row >= rounds_.size()) return nullptr;
  return &rounds_[row].by_author[author];
}

const BlockPtr* Dag::match(const Cell& cell, const Digest& digest) {
  if (cell.blocks.empty()) return nullptr;
  if (cell.first == digest) return &cell.blocks.front();
  for (std::size_t i = 1; i < cell.blocks.size(); ++i) {
    if (cell.blocks[i]->digest() == digest) return &cell.blocks[i];
  }
  return nullptr;
}

const BlockPtr* Dag::locate(const BlockRef& ref) const {
  const Cell* cell = cell_at(ref.round, ref.author);
  return cell == nullptr ? nullptr : match(*cell, ref.digest);
}

const Block* Dag::find(const BlockRef& ref) const {
  const BlockPtr* block = locate(ref);
  return block == nullptr ? nullptr : block->get();
}

BlockPtr Dag::get(const BlockRef& ref) const {
  const BlockPtr* block = locate(ref);
  return block == nullptr ? nullptr : *block;
}

const Dag::RoundSlots* Dag::round_at(Round round) const {
  if (round < pruned_below_ || round - pruned_below_ >= rounds_.size()) return nullptr;
  const RoundSlots& slots = rounds_[round - pruned_below_];
  return slots.block_count == 0 ? nullptr : &slots;
}

const std::vector<BlockPtr>& Dag::slot(Round round, ValidatorId author) const {
  const Cell* cell = cell_at(round, author);
  return cell == nullptr ? empty_ : cell->blocks;
}

std::vector<BlockPtr> Dag::blocks_at(Round round) const {
  std::vector<BlockPtr> out;
  const RoundSlots* slots = round_at(round);
  if (slots == nullptr) return out;
  for (const Cell& cell : slots->by_author) {
    out.insert(out.end(), cell.blocks.begin(), cell.blocks.end());
  }
  return out;
}

std::uint32_t Dag::distinct_authors_at(Round round) const {
  const RoundSlots* slots = round_at(round);
  return slots == nullptr ? 0 : slots->distinct_authors;
}

bool Dag::parents_present(const Block& block) const {
  // References below the GC horizon count as satisfied: the deterministic
  // delivery cut (CommitterOptions::gc_depth) guarantees no future leader
  // will deliver them, so their absence cannot affect the commit sequence.
  return std::all_of(block.parents().begin(), block.parents().end(),
                     [this](const BlockRef& parent) {
                       return parent.round < pruned_below_ || contains(parent);
                     });
}

bool Dag::insert(BlockPtr block, std::vector<BlockRef>* missing) {
  const Round round = block->round();
  if (round < pruned_below_) return false;  // stale: can never be delivered
  if (locate(block->ref()) != nullptr) return false;  // duplicate
  // The presence check, as in parents_present(), naming what is absent.
  bool complete = true;
  for (const BlockRef& parent : block->parents()) {
    if (parent.round < pruned_below_ || contains(parent)) continue;
    if (missing == nullptr) {
      throw std::logic_error("Dag::insert: missing parent (synchronizer bug)");
    }
    missing->push_back(parent);
    complete = false;
  }
  if (!complete) return false;

  // Grown only now, by a block whose parents are present (see the header).
  while (rounds_.size() <= round - pruned_below_) {
    rounds_.emplace_back().by_author.resize(n_);
  }
  RoundSlots& slots = rounds_[round - pruned_below_];
  Cell& cell = slots.by_author.at(block->author());
  if (cell.blocks.empty()) {
    cell.first = block->digest();
    ++slots.distinct_authors;
  }
  cell.blocks.push_back(std::move(block));
  ++slots.block_count;
  ++block_count_;
  highest_round_ = std::max(highest_round_, round);
  return true;
}

bool Dag::is_link(const BlockRef& old_ref, const Block& from) const {
  if (from.ref() == old_ref) return true;
  if (from.round() <= old_ref.round) return false;

  // Parent rounds strictly decrease along every path, so a parent at or
  // below old_ref.round other than old_ref itself cannot lead to it. Visited
  // blocks are marked in a bitmap over the cells of rounds
  // (old_ref.round, from.round()) — first block of a cell — plus a short
  // list for equivocating siblings. The scratch is per thread (committers
  // run on worker threads) and reused across calls.
  struct Scratch {
    std::vector<std::uint64_t> visited;
    std::vector<const Block*> visited_siblings;
    std::vector<const Block*> stack;
  };
  thread_local Scratch scratch;
  const Round base = old_ref.round + 1;
  const std::size_t cells = static_cast<std::size_t>(from.round() - base) * n_;
  scratch.visited.assign((cells + 63) / 64, 0);
  scratch.visited_siblings.clear();
  scratch.stack.clear();
  scratch.stack.push_back(&from);
  while (!scratch.stack.empty()) {
    const Block* current = scratch.stack.back();
    scratch.stack.pop_back();
    for (const BlockRef& parent : current->parents()) {
      if (parent == old_ref) return true;
      if (parent.round <= old_ref.round || parent.round >= from.round()) continue;
      const Cell* cell = cell_at(parent.round, parent.author);
      if (cell == nullptr) continue;
      const BlockPtr* block = match(*cell, parent.digest);
      if (block == nullptr) continue;  // pruned history; treated as absent
      if (block == &cell->blocks.front()) {
        const std::size_t at = (parent.round - base) * n_ + parent.author;
        std::uint64_t& word = scratch.visited[at / 64];
        const std::uint64_t bit = std::uint64_t{1} << (at % 64);
        if ((word & bit) != 0) continue;
        word |= bit;
      } else {
        auto& siblings = scratch.visited_siblings;
        if (std::find(siblings.begin(), siblings.end(), block->get()) != siblings.end()) {
          continue;
        }
        siblings.push_back(block->get());
      }
      scratch.stack.push_back(block->get());
    }
  }
  return false;
}

void Dag::prune_below(Round round) {
  if (round <= pruned_below_) return;
  const auto drop = static_cast<std::ptrdiff_t>(
      std::min<Round>(round - pruned_below_, rounds_.size()));
  for (auto it = rounds_.begin(); it != rounds_.begin() + drop; ++it) {
    block_count_ -= it->block_count;
  }
  rounds_.erase(rounds_.begin(), rounds_.begin() + drop);
  pruned_below_ = round;
}

}  // namespace mahimahi
