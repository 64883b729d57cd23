#include "checkpoint/delta.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "app/kv_store.h"
#include "serde/serde.h"
#include "wal/wal.h"

namespace mahimahi {

namespace {

// Distinct from the earlier block-carrying format's "MMCD" (see
// checkpoint.cpp).
constexpr std::uint32_t kDeltaMagic = 0x4d4d4432;  // "MMD2"
constexpr std::uint8_t kDeltaVersion = 1;

}  // namespace

Bytes encode_checkpoint_delta(const CheckpointDelta& delta) {
  serde::Writer w(checkpoint_record_capacity(delta.decided_suffix.size(),
                                             delta.delivered.size(),
                                             delta.app_delta.size()));
  wal_begin_record(w);
  w.u32(kDeltaMagic);
  w.u8(kDeltaVersion);
  w.u64(delta.sequence);
  w.u64(delta.prev_sequence);
  w.u64(delta.base_sequence);
  w.u32(delta.author);
  w.varint(delta.horizon);
  write_slot(w, delta.prev_head);
  write_slot(w, delta.head);
  w.varint(delta.last_proposed_round);
  write_decided_log(w, delta.decided_suffix);
  write_delivered_marks(w, delta.delivered);
  w.bytes({delta.app_delta.data(), delta.app_delta.size()});
  w.digest(delta.app_digest);
  return wal_finish_record(std::move(w));
}

CheckpointDelta decode_checkpoint_delta(BytesView encoded) {
  serde::Reader r(open_checkpoint_record(encoded, kDeltaMagic, "delta"));
  if (r.u8() != kDeltaVersion) throw serde::SerdeError("delta: bad version");
  CheckpointDelta delta;
  delta.sequence = r.u64();
  delta.prev_sequence = r.u64();
  delta.base_sequence = r.u64();
  delta.author = r.u32();
  delta.horizon = r.varint();
  delta.prev_head = read_slot(r);
  delta.head = read_slot(r);
  delta.last_proposed_round = r.varint();
  delta.decided_suffix = read_decided_log(r);
  delta.delivered = read_delivered_marks(r);
  delta.app_delta = r.bytes();
  delta.app_digest = r.digest();
  r.expect_done();
  return delta;
}

CheckpointDelta make_checkpoint_delta(const CheckpointData& prev,
                                      const CheckpointData& next,
                                      std::uint64_t base_sequence,
                                      Bytes app_delta) {
  if (prev.author != next.author) {
    throw std::invalid_argument("delta: author mismatch");
  }
  if (next.head < prev.head || next.horizon < prev.horizon) {
    throw std::invalid_argument("delta: cut regressed");
  }
  if (next.decided.size() < prev.decided.size()) {
    throw std::invalid_argument("delta: decided log shrank");
  }
  for (std::size_t i = 0; i < prev.decided.size(); ++i) {
    const auto& a = prev.decided[i];
    const auto& b = next.decided[i];
    if (a.slot != b.slot || a.kind != b.kind ||
        (a.kind == SlotDecision::Kind::kCommit &&
         a.block.digest != b.block.digest)) {
      throw std::invalid_argument("delta: decided log is not an extension");
    }
  }

  CheckpointDelta delta;
  delta.sequence = next.sequence;
  delta.prev_sequence = prev.sequence;
  delta.base_sequence = base_sequence;
  delta.author = next.author;
  delta.horizon = next.horizon;
  delta.prev_head = prev.head;
  delta.head = next.head;
  delta.last_proposed_round = next.last_proposed_round;
  delta.decided_suffix.assign(next.decided.begin() + prev.decided.size(),
                              next.decided.end());
  delta.delivered = next.delivered;
  delta.app_delta = std::move(app_delta);
  delta.app_digest = next.app_digest;
  return delta;
}

void apply_checkpoint_delta(CheckpointData& data, const CheckpointDelta& delta) {
  if (delta.author != data.author) {
    throw std::invalid_argument("delta apply: author mismatch");
  }
  if (delta.prev_sequence != data.sequence) {
    throw std::invalid_argument("delta apply: sequence linkage mismatch");
  }
  if (delta.prev_head != data.head) {
    throw std::invalid_argument("delta apply: head linkage mismatch");
  }
  if (delta.head < delta.prev_head || delta.horizon < data.horizon) {
    throw std::invalid_argument("delta apply: link regressed");
  }

  data.sequence = delta.sequence;
  data.horizon = delta.horizon;
  data.head = delta.head;
  data.last_proposed_round = delta.last_proposed_round;
  data.decided.insert(data.decided.end(), delta.decided_suffix.begin(),
                      delta.decided_suffix.end());
  data.delivered = delta.delivered;

  if (delta.app_delta.empty()) {
    if (!data.app_state.empty()) {
      throw std::invalid_argument("delta apply: app delta missing");
    }
  } else {
    app::KvStore store = data.app_state.empty()
                             ? app::KvStore{}
                             : app::KvStore::restore(
                                   {data.app_state.data(), data.app_state.size()});
    store.apply_delta({delta.app_delta.data(), delta.app_delta.size()});
    data.app_state = store.snapshot_bytes();
  }
  data.app_digest = delta.app_digest;
}

void truncate_checkpoint(CheckpointData& data, SlotId boundary,
                         std::span<const Digest> delivered_after_boundary) {
  const auto cut = std::lower_bound(
      data.decided.begin(), data.decided.end(), boundary,
      [](const CheckpointData::DecidedSlot& d, SlotId b) { return d.slot < b; });
  data.decided.erase(cut, data.decided.end());
  data.head = boundary;

  if (!delivered_after_boundary.empty()) {
    std::unordered_set<Digest, DigestHasher> drop(
        delivered_after_boundary.begin(), delivered_after_boundary.end());
    std::erase_if(data.delivered,
                  [&](const auto& mark) { return drop.contains(mark.first); });
  }
}

// --- Chain wire frame --------------------------------------------------------

Bytes encode_checkpoint_chain_frame(
    const std::vector<std::pair<BytesView, BytesView>>& links,
    std::span<const BlockPtr> suffix) {
  std::size_t size = 2 * 10;
  for (const auto& [record, cert] : links) size += 2 * 10 + record.size() + cert.size();
  for (const BlockPtr& block : suffix) size += 10 + block->encoded_size();
  serde::Writer w(size);
  w.varint(links.size());
  for (const auto& [record, cert] : links) {
    w.bytes(record);
    w.bytes(cert);
  }
  w.varint(suffix.size());
  for (const BlockPtr& block : suffix) {
    w.varint(block->encoded_size());
    block->serialize_into(w);
  }
  return std::move(w).take();
}

CheckpointChainFrame decode_checkpoint_chain_frame(BytesView payload) {
  serde::Reader r(payload);
  // Each link costs at least its two length varints; the records themselves
  // re-validate under their own CRC framing.
  const std::uint64_t count = r.count(2, "chain frame: link");
  CheckpointChainFrame frame;
  frame.links.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointChainFrame::Link link;
    link.record = r.bytes();
    link.cert = r.bytes();
    frame.links.push_back(std::move(link));
  }
  // Each suffix block costs at least its length varint.
  const std::uint64_t blocks = r.count(1, "chain frame: suffix block");
  frame.suffix.reserve(blocks);
  for (std::uint64_t i = 0; i < blocks; ++i) {
    const std::uint64_t length = r.varint();
    if (length > r.remaining()) {
      throw serde::SerdeError("chain frame: block length exceeds payload");
    }
    frame.suffix.push_back(std::make_shared<const Block>(
        Block::deserialize(r.raw(static_cast<std::size_t>(length)))));
  }
  r.expect_done();
  return frame;
}

}  // namespace mahimahi
