// Segmented WAL layout: the same record stream as FileWal, rolled across
// bounded segment files so checkpointing can retire history.
//
// A monolithic log grows without bound — a long-running validator pays
// unbounded replay time and disk. This layout splits the identical byte
// stream (shared wal_encode_* framing, so a segmented log concatenates to
// exactly what FileWal would have written) into `seg-<index>.wal` files
// under one directory:
//
//   * appends go to the highest-index (active) segment; when the active
//     segment exceeds the byte/record budget, it is sealed (flush + optional
//     fsync) and the next index opens — a record never splits across files;
//   * a MANIFEST file names the lowest live segment. It is only rewritten
//     (crash-atomically: tmp + fsync + rename) by retire_segments_below(),
//     BEFORE the retired files are unlinked — a crash mid-retire leaves
//     stale files below the manifest base, which replay ignores and the next
//     retire removes. Which segments may retire is SegmentRetention's rule
//     (below): checkpoint cuts carry no blocks, so a segment lives as long as
//     it may hold a block a kept checkpoint chain's recovery would replay;
//   * replay walks segments base..max in order with one shared scratch
//     buffer. A torn tail is expected only in the LAST segment (crashes tear
//     the active file) and truncates exactly like FileWal's; a corrupt
//     record in an earlier segment is disk damage — replay stops there and
//     reports it so the caller can fall back to an older checkpoint.
//
// Thread safety: unlike FileWal, all mutating members take an internal
// mutex: the checkpoint writer retires segments from a worker thread while
// the group-commit writer thread is appending groups. active_segment() is
// lock-free, so a cut on the loop thread never waits on a group's fsync.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "types/ids.h"
#include "wal/wal.h"

namespace mahimahi {

struct SegmentedWalOptions {
  // Seal the active segment once it holds at least this many bytes. A single
  // oversized record (or group-commit group) still lands whole — segments
  // may exceed the budget by one append.
  std::uint64_t segment_bytes = 4 << 20;
  // Record-count budget tripping a roll before the byte budget (0 = none).
  std::uint64_t segment_records = 0;
  // Same meaning as FileWal: upgrade sync() from fflush to fflush + fsync.
  bool fsync_on_sync = false;
};

class SegmentedWal : public FramedWal {
 public:
  // Opens (creating the directory if needed) the segmented log at `dir`.
  // Appends resume on the highest existing segment. Throws on failure.
  explicit SegmentedWal(std::string dir, SegmentedWalOptions options = {});
  ~SegmentedWal() override;

  SegmentedWal(const SegmentedWal&) = delete;
  SegmentedWal& operator=(const SegmentedWal&) = delete;

  void append_block(const Block& block, bool own) override;
  void append_commit(SlotId slot) override;
  void sync() override;
  void append_framed(BytesView framed) override;

  // With an attached ring (and fsync_on_sync set), lands the group as one
  // linked write→fsync submission into the active segment — after the usual
  // roll check, so segment budgets behave exactly as on the classic path.
  void append_group_durable(BytesView group) override;
  void attach_wal_ring(WalUring* ring) override;
  bool wal_ring_active() const override;
  std::uint64_t group_flush_syscalls() const override {
    return group_flush_syscalls_.load(std::memory_order_relaxed);
  }
  std::uint64_t groups_durable() const override {
    return groups_durable_.load(std::memory_order_relaxed);
  }

  // Deletes sealed segments with index < keep_from after atomically
  // rewriting the manifest base. Never touches the active segment
  // (keep_from is clamped to it).
  void retire_segments_below(std::uint64_t keep_from);

  // Lock-free; may lag a concurrent roll, which only makes a retention mark
  // (SegmentRetention::note_cut) more conservative.
  std::uint64_t active_segment() const {
    return active_index_.load(std::memory_order_acquire);
  }
  std::uint64_t base_segment() const;
  std::uint64_t bytes_written() const;
  std::uint64_t segments_retired() const;

  struct ReplayResult {
    std::uint64_t records = 0;
    std::uint64_t segments = 0;   // files visited
    bool corrupt_tail = false;    // torn tail (last segment) or mid-log damage
  };

  // Replays segments manifest-base..max in index order. A gap in the index
  // sequence or a corrupt record in a non-final segment stops the replay
  // with corrupt_tail set (the caller falls back to an older checkpoint); a
  // torn tail of the final segment truncates like FileWal's.
  static ReplayResult replay(const std::string& dir, const FileWal::Visitor& visitor,
                             bool truncate_corrupt_tail = true);

  static std::string segment_path(const std::string& dir, std::uint64_t index);
  // Lowest live segment per the manifest; 0 when the manifest is absent or
  // unreadable (replay then starts at the lowest file present).
  static std::uint64_t read_manifest(const std::string& dir);
  // Sorted indexes of the segment files present on disk.
  static std::vector<std::uint64_t> list_segments(const std::string& dir);

 private:
  void open_active_locked(std::uint64_t index);
  void seal_active_locked();
  void roll_if_over_budget_locked(std::size_t incoming_bytes);
  void write_locked(BytesView framed);
  void write_manifest_locked(std::uint64_t base);

  const std::string dir_;
  const SegmentedWalOptions options_;

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;           // the active segment
  std::atomic<std::uint64_t> active_index_{0};  // written under mutex_
  std::uint64_t base_index_ = 0;
  std::uint64_t active_bytes_ = 0;      // size of the active segment file
  std::uint64_t active_records_ = 0;    // records appended to it this session
  std::uint64_t bytes_written_ = 0;     // this session, across segments
  std::uint64_t segments_retired_ = 0;
  WalUring* ring_ = nullptr;            // non-owning; see attach_wal_ring
  std::atomic<std::uint64_t> group_flush_syscalls_{0};
  std::atomic<std::uint64_t> groups_durable_{0};
};

// Horizon-based segment retention: the one rule every checkpoint writer
// (NodeRuntime, SimHarness, tests, benches) uses to pick which sealed
// segments may retire.
//
// Recovery installs a blockless cut and replays the retained segments, so
// every block at or above the horizon of the oldest chain the checkpoint
// store keeps (its keep-2 fallback) must stay on disk. At each cut the
// writer notes (highest block round handed to the WAL so far, active
// segment index): every segment below that index was sealed before the
// note, so it holds only blocks of rounds <= that round. Once a fallback
// horizon exceeds the round, those segments hold only sub-horizon blocks.
class SegmentRetention {
 public:
  void note_cut(Round logged_round, std::uint64_t active_segment);
  // The lowest segment index that may hold a block at or above
  // `fallback_horizon` (pass it to SegmentedWal::retire_segments_below).
  // Fallback horizons never decrease, so marks older than the answer are
  // forgotten.
  std::uint64_t keep_from(Round fallback_horizon);

 private:
  struct Mark {
    Round logged_round = 0;
    std::uint64_t active_segment = 0;
  };
  std::vector<Mark> marks_;  // oldest first; both fields non-decreasing
};

}  // namespace mahimahi
