// Write-ahead log tailored to the consensus protocol (§4).
//
// Record framing: [u32 payload_len][u32 crc32(payload)][payload], where the
// payload is [u8 type][body]. Recovery scans from the start and stops at the
// first truncated or corrupt record (torn writes at the tail are expected
// after a crash and are discarded).
//
// Logged state is exactly what a validator needs to rejoin safely: every
// block admitted to its DAG (in insertion = causal order) with an own/remote
// marker, so replay rebuilds the DAG and the proposer round without
// re-equivocating.
//
// Durability model: append_* calls stage a record; sync() makes everything
// staged durable. The inline implementations here (NullWal, FileWal) complete
// on_durable() synchronously — append, sync, ack, all on the caller's thread.
// wal/group_commit_wal.h adds the off-thread variant: appends stage into a
// buffer, a writer thread flushes groups, and the ack arrives later. Drivers
// that must not send an own block before it is durable (the non-equivocation
// contract) gate the send on on_durable() and work with either.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "types/block.h"

namespace mahimahi {

class WalUring;  // wal/wal_ring.h

enum class WalRecordType : std::uint8_t {
  kReceivedBlock = 1,
  kOwnBlock = 2,
  kCommittedSlot = 3,
};

// Record encoding, shared by every WAL implementation so that a log is
// byte-identical no matter which of them wrote it (group-commit recovery
// equivalence rests on this). Each helper returns one fully framed record:
// [u32 len][u32 crc][payload].
Bytes wal_frame_record(BytesView payload);
// In-place framing for encoders that build the payload themselves:
// wal_begin_record reserves the header at the start of an empty writer, and
// wal_finish_record fills in the length and CRC of everything written after
// it, so the payload is never copied into a second buffer.
void wal_begin_record(serde::Writer& w);
Bytes wal_finish_record(serde::Writer&& w);
Bytes wal_encode_block_record(const Block& block, bool own);
Bytes wal_encode_commit_record(SlotId slot);

class Wal {
 public:
  virtual ~Wal() = default;
  virtual void append_block(const Block& block, bool own) = 0;
  virtual void append_commit(SlotId slot) = 0;
  virtual void sync() = 0;

  // Runs `done` once every record appended before this call is durable.
  // Inline implementations sync and invoke it before returning — so a driver
  // gating its proposal broadcast on the ack degenerates to the classic
  // append → sync → send sequence, and a NullWal (no persistence, nothing to
  // wait for) can never wedge the proposal path. A group-commit WAL
  // completes the ack from its writer thread after the covering flush.
  virtual void on_durable(std::function<void()> done) {
    sync();
    done();
  }
};

// A WAL whose physical layout accepts pre-framed records verbatim. The two
// layouts — FileWal (one monolithic file) and checkpoint/segmented_wal.h
// (rolling segment files) — both implement this, and the group-commit
// decorator stages records and lands whole groups through it, so group
// commit composes with either layout.
class FramedWal : public Wal {
 public:
  // Writes one pre-framed buffer (one or more records produced by the
  // wal_encode_* helpers) verbatim.
  virtual void append_framed(BytesView framed) = 0;

  // Lands one group durably: on return the bytes are written and synced.
  // Semantically identical to append_framed + sync — the default is exactly
  // that — but overridable so a layout with an attached WAL ring
  // (wal/wal_ring.h) can land the group as one linked write→fsync
  // submission. The group-commit writer flushes through this seam.
  virtual void append_group_durable(BytesView group) {
    append_framed(group);
    sync();
  }

  // Adopts a (non-owning) submission ring for group flushes; nullptr
  // detaches. Call before concurrent appends start. Layouts that cannot use
  // a ring ignore it.
  virtual void attach_wal_ring(WalUring* ring) { (void)ring; }
  virtual bool wal_ring_active() const { return false; }

  // Syscall accounting for the group-flush path: kernel entries spent inside
  // append_group_durable (write/fsync classically, ring enters otherwise)
  // and groups landed. The pair behind the syscalls-per-committed-block
  // columns in bench_wal/bench_io_plane.
  virtual std::uint64_t group_flush_syscalls() const { return 0; }
  virtual std::uint64_t groups_durable() const { return 0; }
};

// No-op WAL for tests and the simulator. on_durable acks synchronously
// (inherited default with a no-op sync): with nothing persisted there is
// nothing to wait for.
class NullWal : public Wal {
 public:
  void append_block(const Block&, bool) override {}
  void append_commit(SlotId) override {}
  void sync() override {}
};

class FileWal : public FramedWal {
 public:
  // Opens (creating or appending) the log at `path`. Throws on failure.
  // fsync_on_sync upgrades sync() from fflush (durable across a process
  // crash — the page cache survives) to fflush + fsync (durable across a
  // machine crash). fsync costs milliseconds on real disks, which is exactly
  // the latency the group-commit decorator amortizes and moves off the
  // appender's thread.
  explicit FileWal(std::string path, bool fsync_on_sync = false);
  ~FileWal() override;

  FileWal(const FileWal&) = delete;
  FileWal& operator=(const FileWal&) = delete;

  void append_block(const Block& block, bool own) override;
  void append_commit(SlotId slot) override;
  void sync() override;

  // Writes one pre-framed buffer (one or more records produced by the
  // wal_encode_* helpers) verbatim. The group-commit writer uses this to
  // land a whole group as a single write.
  void append_framed(BytesView framed) override;

  // With an attached ring (and fsync_on_sync set), lands the group as one
  // linked write→fsync submission — byte-identical to the classic path, one
  // syscall instead of two. Falls back to append_framed + sync otherwise.
  void append_group_durable(BytesView group) override;
  void attach_wal_ring(WalUring* ring) override { ring_ = ring; }
  bool wal_ring_active() const override;
  std::uint64_t group_flush_syscalls() const override {
    return group_flush_syscalls_.load(std::memory_order_relaxed);
  }
  std::uint64_t groups_durable() const override {
    return groups_durable_.load(std::memory_order_relaxed);
  }

  std::uint64_t bytes_written() const { return bytes_written_; }

  // Kernel entries spent inside sync(): fflush's write, plus the fsync when
  // fsync_on_sync is set. The inline-append half of the syscalls-per-record
  // accounting (the group-flush half lives in group_flush_syscalls()).
  std::uint64_t sync_syscalls() const {
    return sync_syscalls_.load(std::memory_order_relaxed);
  }

  // Replay visitor: called per intact record in log order.
  struct Visitor {
    std::function<void(BlockPtr block, bool own)> on_block;
    std::function<void(SlotId slot)> on_commit;
  };

  struct ReplayResult {
    std::uint64_t records = 0;
    std::uint64_t valid_bytes = 0;   // log prefix that parsed cleanly
    bool corrupt_tail = false;       // a torn/corrupt record was discarded
  };

  // Reads `path` and feeds intact records to the visitor. If
  // `truncate_corrupt_tail` is set, the file is truncated to the valid
  // prefix so subsequent appends produce a clean log.
  static ReplayResult replay(const std::string& path, const Visitor& visitor,
                             bool truncate_corrupt_tail = true);

  // Same scan, but the record payload buffer is caller-supplied: replaying a
  // multi-file log (the segmented layout) shares ONE scratch buffer across
  // every file, so replay pays no per-record heap allocation once the buffer
  // warmed up to the largest record. replay() wraps this with a local
  // scratch.
  static ReplayResult replay_with_scratch(const std::string& path,
                                          const Visitor& visitor,
                                          bool truncate_corrupt_tail, Bytes& scratch);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool fsync_on_sync_ = false;
  std::uint64_t bytes_written_ = 0;
  WalUring* ring_ = nullptr;  // non-owning; see attach_wal_ring
  std::atomic<std::uint64_t> sync_syscalls_{0};
  std::atomic<std::uint64_t> group_flush_syscalls_{0};
  std::atomic<std::uint64_t> groups_durable_{0};
};

}  // namespace mahimahi
