// The traced run's layer replay: blocks captured from a live run (or built by
// DagBuilder for the 50-validator DAG) are pushed once more through each
// layer's public entry points on one thread, with a span around every call,
// so each layer's self time can be read without the other threads' noise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/decision.h"
#include "core/options.h"
#include "report.h"
#include "types/committee.h"

namespace perfbench {

struct ReplayInput {
  const mahimahi::Committee* committee = nullptr;
  mahimahi::CommitterOptions committer;
  // Blocks in causal order, grouped as they reached the validator together
  // (one committed sub-DAG, or one DAG round).
  std::vector<std::vector<mahimahi::BlockPtr>> groups;
  // Committed sub-DAGs for the execution replay (empty: exec not replayed).
  std::vector<mahimahi::CommittedSubDag> subdags;
  // The validator whose blocks count as its own in the WAL replay.
  mahimahi::ValidatorId own = 0;
  // Directory for the replayed (fsync) WAL file.
  std::string wal_dir;
};

struct ReplayOutput {
  std::map<std::string, SpanRecorder::Totals> spans;
  std::uint64_t blocks = 0;
  std::uint64_t blocks_inserted = 0;
  std::uint64_t direct_commits = 0;
  std::uint64_t commits = 0;
  // Correctness of the replay itself.
  bool decode_roundtrip_ok = true;
  bool structure_ok = true;
  bool crypto_ok = true;
  bool serial_engine_digests_equal = true;
  bool mempool_roundtrip_ok = true;
};

ReplayOutput replay_layers(const ReplayInput& input);

// Self time per item of span `name` (0 when the span never ran).
double self_us_per_item(const ReplayOutput& output, const std::string& name);

}  // namespace perfbench
