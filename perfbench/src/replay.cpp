#include "replay.h"

#include <filesystem>
#include <future>
#include <memory>

#include "core/commit_scanner.h"
#include "core/committer.h"
#include "dag/dag.h"
#include "exec/engine.h"
#include "mempool/mempool.h"
#include "types/validation.h"
#include "validator/crypto_stage.h"
#include "wal/group_commit_wal.h"
#include "wal/wal.h"

namespace perfbench {

using namespace mahimahi;

namespace {

// Synthetic admission load for inputs that carry no batches (the DagBuilder
// DAG): the simulator's own shape, 8 transactions of 512 B per batch.
constexpr std::size_t kSyntheticBatches = 16384;
// Bounds the fsync-per-group WAL replay so one traced run stays short.
constexpr std::size_t kMaxWalGroups = 200;

void replay_ingest(const ReplayInput& input, SpanRecorder& spans, ReplayOutput& out,
                   std::vector<BlockPtr>& decoded) {
  std::vector<Bytes> wire;
  for (const auto& group : input.groups) {
    for (const auto& block : group) wire.push_back(block->serialize());
  }
  {
    ScopedSpan span(spans, "types.decode", wire.size());
    for (const Bytes& bytes : wire) {
      decoded.push_back(std::make_shared<const Block>(Block::deserialize(bytes)));
    }
  }
  std::size_t i = 0;
  for (const auto& group : input.groups) {
    for (const auto& block : group) {
      if (decoded[i++]->digest() != block->digest()) out.decode_roundtrip_ok = false;
    }
  }
  {
    ScopedSpan span(spans, "types.structural", decoded.size());
    for (const auto& block : decoded) {
      if (validate_block_structure(*block, *input.committee) != BlockValidity::kValid) {
        out.structure_ok = false;
      }
    }
  }
  for (const std::size_t batch : {std::size_t{8}, std::size_t{64}}) {
    const char* name = batch == 8 ? "crypto.verify_b8" : "crypto.verify_b64";
    ScopedSpan span(spans, name, decoded.size());
    for (std::size_t start = 0; start < decoded.size(); start += batch) {
      const std::size_t count = std::min(batch, decoded.size() - start);
      const auto result = run_crypto_stage(
          std::span<const BlockPtr>(decoded.data() + start, count), *input.committee,
          ValidationOptions{}, nullptr);
      for (const BlockValidity verdict : result.verdicts) {
        if (verdict != BlockValidity::kValid) out.crypto_ok = false;
      }
    }
  }
}

void replay_consensus(const ReplayInput& input, SpanRecorder& spans, ReplayOutput& out) {
  Dag dag(*input.committee);
  Committer committer(dag, *input.committee, input.committer);
  CommitScanner scanner(dag, committer.next_pending_slot(), *input.committee,
                        input.committer);
  for (const auto& group : input.groups) {
    ScopedSpan group_span(spans, "replay.group", group.size());
    std::vector<BlockPtr> inserted;
    {
      ScopedSpan span(spans, "dag.insert", group.size());
      for (const auto& block : group) {
        // Blocks whose parents were never delivered (below the GC cut) have
        // no place in a delivered-only DAG.
        if (dag.parents_present(*block) && dag.insert(block)) inserted.push_back(block);
      }
    }
    out.blocks_inserted += inserted.size();
    {
      ScopedSpan span(spans, "core.ingest", inserted.size());
      scanner.ingest(inserted);
    }
    std::vector<SlotDecision> decisions;
    {
      ScopedSpan span(spans, "core.scan", inserted.size());
      decisions = scanner.scan();
    }
    for (const SlotDecision& d : decisions) {
      if (d.kind == SlotDecision::Kind::kCommit) {
        ++out.commits;
        if (d.via == SlotDecision::Via::kDirect) ++out.direct_commits;
      }
    }
    ScopedSpan span(spans, "core.apply", 0);
    span.set_items(committer.apply(decisions).size());
  }
}

void replay_wal(const ReplayInput& input, SpanRecorder& spans) {
  std::filesystem::create_directories(input.wal_dir);
  GroupCommitWalOptions options;
  options.flush_interval = millis(1);
  GroupCommitWal wal(std::make_unique<FileWal>(input.wal_dir + "/replay.wal", true), options);
  const std::size_t groups = std::min(input.groups.size(), kMaxWalGroups);
  for (std::size_t g = 0; g < groups; ++g) {
    const auto& group = input.groups[g];
    ScopedSpan span(spans, "wal.append", group.size());
    for (const auto& block : group) wal.append_block(*block, block->author() == input.own);
    std::promise<void> durable;
    wal.on_durable([&durable] { durable.set_value(); });
    durable.get_future().wait();
  }
}

void replay_mempool(const ReplayInput& input, SpanRecorder& spans, ReplayOutput& out) {
  std::vector<TxBatch> batches;
  for (const auto& group : input.groups) {
    for (const auto& block : group) {
      for (const auto& batch : block->batches()) batches.push_back(batch);
    }
  }
  if (batches.empty()) {
    for (std::size_t i = 0; i < kSyntheticBatches; ++i) {
      TxBatch batch;
      batch.id = (static_cast<std::uint64_t>(i % 50) << 40) | i;
      batch.count = 8;
      batches.push_back(std::move(batch));
    }
  }
  const std::size_t total = batches.size();
  ShardedMempool pool;
  std::size_t accepted = 0;
  {
    ScopedSpan span(spans, "mempool.submit", total);
    for (auto& batch : batches) accepted += admitted(pool.submit(std::move(batch)));
  }
  std::size_t drained = 0;
  {
    ScopedSpan span(spans, "mempool.drain", total);
    while (!pool.empty()) drained += pool.drain(4096, 8ull << 20).size();
  }
  out.mempool_roundtrip_ok = accepted == total && drained == total;
}

void replay_exec(const ReplayInput& input, SpanRecorder& spans, ReplayOutput& out) {
  if (input.subdags.empty()) return;
  std::uint64_t txs = 0;
  for (const auto& subdag : input.subdags) txs += subdag.transaction_count();
  exec::SerialExecutor serial;
  {
    ScopedSpan span(spans, "exec.serial_apply", txs);
    for (const auto& subdag : input.subdags) serial.apply_subdag(subdag);
  }
  exec::ExecutionEngine engine(exec::ExecutionEngine::Options{.threads = 2});
  {
    ScopedSpan span(spans, "exec.engine", txs);
    for (const auto& subdag : input.subdags) engine.execute(subdag, steady_now_micros());
    engine.drain();
  }
  out.serial_engine_digests_equal = serial.state_digest() == engine.state_digest();
}

}  // namespace

ReplayOutput replay_layers(const ReplayInput& input) {
  ReplayOutput out;
  SpanRecorder spans;
  for (const auto& group : input.groups) out.blocks += group.size();
  {
    // Single-threaded layers run on a rotating core, so their self times do
    // not depend on which core the scheduler picked. The WAL writer and the
    // execution engine start threads of their own, which would inherit a
    // one-core affinity mask, so they replay outside the rotation.
    CoreRotator rotator;
    std::vector<BlockPtr> decoded;
    replay_ingest(input, spans, out, decoded);
    replay_consensus(input, spans, out);
    replay_mempool(input, spans, out);
  }
  replay_wal(input, spans);
  replay_exec(input, spans, out);
  out.spans = spans.totals();
  return out;
}

double self_us_per_item(const ReplayOutput& output, const std::string& name) {
  const auto it = output.spans.find(name);
  return it == output.spans.end() ? 0 : it->second.self_us_per_item();
}

}  // namespace perfbench
