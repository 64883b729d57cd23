#include "checkpoint/segmented_wal.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <stdexcept>

#include "common/fsio.h"
#include "common/log.h"
#include "serde/serde.h"
#include "wal/wal_ring.h"

namespace mahimahi {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr std::uint32_t kManifestMagic = 0x4d4d5347;  // "MMSG"

}  // namespace

std::string SegmentedWal::segment_path(const std::string& dir, std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".wal", index);
  return (std::filesystem::path(dir) / name).string();
}

std::uint64_t SegmentedWal::read_manifest(const std::string& dir) {
  const auto path = std::filesystem::path(dir) / kManifestName;
  std::FILE* file = std::fopen(path.string().c_str(), "rb");
  if (file == nullptr) return 0;
  std::uint8_t buffer[64];
  const std::size_t n = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  try {
    serde::Reader r({buffer, n});
    if (r.u32() != kManifestMagic) return 0;
    return r.varint();
  } catch (const serde::SerdeError&) {
    return 0;  // a torn manifest rewrite: fall back to "everything is live"
  }
}

std::vector<std::uint64_t> SegmentedWal::list_segments(const std::string& dir) {
  std::vector<std::uint64_t> indexes;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto index = parse_indexed_name(entry.path().filename().string(), "seg-",
                                          ".wal", /*pad_width=*/8);
    if (index.has_value()) indexes.push_back(*index);
  }
  std::sort(indexes.begin(), indexes.end());
  return indexes;
}

SegmentedWal::SegmentedWal(std::string dir, SegmentedWalOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::filesystem::create_directories(dir_);
  std::lock_guard<std::mutex> lock(mutex_);
  base_index_ = read_manifest(dir_);
  const auto existing = list_segments(dir_);
  std::uint64_t active = base_index_;
  for (const std::uint64_t index : existing) active = std::max(active, index);
  open_active_locked(active);
}

SegmentedWal::~SegmentedWal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

void SegmentedWal::open_active_locked(std::uint64_t index) {
  const std::string path = segment_path(dir_, index);
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) throw std::runtime_error("SegmentedWal: cannot open " + path);
  active_index_.store(index, std::memory_order_release);
  active_records_ = 0;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  active_bytes_ = ec ? 0 : size;
}

void SegmentedWal::seal_active_locked() {
  std::fflush(file_);
  if (options_.fsync_on_sync) ::fsync(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
}

void SegmentedWal::roll_if_over_budget_locked(std::size_t incoming_bytes) {
  if (active_bytes_ == 0) return;  // never roll an empty segment
  const bool over_bytes = active_bytes_ + incoming_bytes > options_.segment_bytes;
  const bool over_records =
      options_.segment_records > 0 && active_records_ >= options_.segment_records;
  if (!over_bytes && !over_records) return;
  seal_active_locked();
  open_active_locked(active_segment() + 1);
}

void SegmentedWal::write_locked(BytesView framed) {
  roll_if_over_budget_locked(framed.size());
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    throw std::runtime_error("SegmentedWal: short write to " +
                             segment_path(dir_, active_segment()));
  }
  active_bytes_ += framed.size();
  ++active_records_;
  bytes_written_ += framed.size();
}

void SegmentedWal::append_framed(BytesView framed) {
  std::lock_guard<std::mutex> lock(mutex_);
  write_locked(framed);
}

void SegmentedWal::append_block(const Block& block, bool own) {
  const Bytes framed = wal_encode_block_record(block, own);
  append_framed({framed.data(), framed.size()});
}

void SegmentedWal::append_commit(SlotId slot) {
  const Bytes framed = wal_encode_commit_record(slot);
  append_framed({framed.data(), framed.size()});
}

void SegmentedWal::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fflush(file_);
  if (options_.fsync_on_sync) ::fsync(::fileno(file_));
}

void SegmentedWal::attach_wal_ring(WalUring* ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_ = ring;
}

bool SegmentedWal::wal_ring_active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_ != nullptr && options_.fsync_on_sync;
}

void SegmentedWal::append_group_durable(BytesView group) {
  // Held across the I/O, like sync(): a cut worker must not retire segments
  // under a landing group.
  std::lock_guard<std::mutex> lock(mutex_);
  groups_durable_.fetch_add(1, std::memory_order_relaxed);
  if (ring_ != nullptr && options_.fsync_on_sync) {
    roll_if_over_budget_locked(group.size());
    std::fflush(file_);  // order stdio-buffered bytes ahead of the ring write
    const std::uint64_t spent = ring_->append_fsync(::fileno(file_), group);
    group_flush_syscalls_.fetch_add(spent, std::memory_order_relaxed);
    active_bytes_ += group.size();
    ++active_records_;
    bytes_written_ += group.size();
    return;
  }
  write_locked(group);
  std::fflush(file_);
  if (options_.fsync_on_sync) ::fsync(::fileno(file_));
  group_flush_syscalls_.fetch_add(options_.fsync_on_sync ? 2 : 1,
                                  std::memory_order_relaxed);
}

void SegmentedWal::retire_segments_below(std::uint64_t keep_from) {
  std::lock_guard<std::mutex> lock(mutex_);
  keep_from = std::min(keep_from, active_segment());
  if (keep_from <= base_index_) return;
  // Manifest first: once it is durable, replay never looks below keep_from,
  // so a crash between here and the unlinks only strands dead files.
  write_manifest_locked(keep_from);
  bool removed_any = false;
  for (std::uint64_t index = base_index_; index < keep_from; ++index) {
    std::error_code ec;
    if (std::filesystem::remove(segment_path(dir_, index), ec)) {
      ++segments_retired_;
      removed_any = true;
    }
    if (ec) {
      MM_LOG(kWarn) << "SegmentedWal: failed to retire segment " << index << ": "
                    << ec.message();
    }
  }
  // Persist the unlinks too (the manifest rename above is already durable):
  // a resurrected dead segment would be harmless to replay, but repeatedly
  // losing the removals would defeat the disk-bound the retirement exists
  // for.
  if (removed_any) fsync_dir(dir_);
  base_index_ = keep_from;
}

void SegmentedWal::write_manifest_locked(std::uint64_t base) {
  serde::Writer w;
  w.u32(kManifestMagic);
  w.varint(base);
  // The shared helper fsyncs file AND directory: the manifest must be
  // durably in place before any segment it retires is unlinked.
  write_file_atomic((std::filesystem::path(dir_) / kManifestName).string(),
                    {w.data().data(), w.data().size()}, "SegmentedWal");
}

std::uint64_t SegmentedWal::base_segment() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return base_index_;
}

std::uint64_t SegmentedWal::bytes_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_written_;
}

std::uint64_t SegmentedWal::segments_retired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_retired_;
}

SegmentedWal::ReplayResult SegmentedWal::replay(const std::string& dir,
                                                const FileWal::Visitor& visitor,
                                                bool truncate_corrupt_tail) {
  ReplayResult result;
  const std::uint64_t base = read_manifest(dir);
  std::vector<std::uint64_t> indexes = list_segments(dir);
  std::erase_if(indexes, [base](std::uint64_t index) { return index < base; });
  if (indexes.empty()) return result;

  Bytes scratch;  // shared across segments: one warm buffer for the whole log
  std::uint64_t expected = indexes.front();
  for (std::size_t i = 0; i < indexes.size(); ++i, ++expected) {
    if (indexes[i] != expected) {
      // A hole in the sequence: everything past it is unreachable history
      // (mid-log damage, not a crash artifact — crashes only tear the tail).
      MM_LOG(kWarn) << "SegmentedWal: segment " << expected << " missing in " << dir;
      result.corrupt_tail = true;
      return result;
    }
    const bool last = i + 1 == indexes.size();
    const auto file_result = FileWal::replay_with_scratch(
        segment_path(dir, indexes[i]), visitor,
        /*truncate_corrupt_tail=*/last && truncate_corrupt_tail, scratch);
    result.records += file_result.records;
    ++result.segments;
    if (file_result.corrupt_tail) {
      result.corrupt_tail = true;
      if (!last) {
        MM_LOG(kWarn) << "SegmentedWal: corrupt record mid-log in segment "
                      << indexes[i] << " of " << dir;
        return result;  // do not replay past the damage
      }
    }
  }
  return result;
}

void SegmentRetention::note_cut(Round logged_round, std::uint64_t active_segment) {
  marks_.push_back({logged_round, active_segment});
}

std::uint64_t SegmentRetention::keep_from(Round fallback_horizon) {
  // The newest mark whose logged blocks all lie below the horizon.
  std::size_t usable = 0;
  while (usable < marks_.size() && marks_[usable].logged_round < fallback_horizon) {
    ++usable;
  }
  if (usable == 0) return 0;
  const std::uint64_t keep = marks_[usable - 1].active_segment;
  marks_.erase(marks_.begin(), marks_.begin() + static_cast<std::ptrdiff_t>(usable - 1));
  return keep;
}

}  // namespace mahimahi
