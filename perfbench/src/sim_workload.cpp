// sim-wan50: the discrete-event simulator at n=50 over the five-region WAN
// latency model, MM-5 with two leaders, 50k tx/s, crypto off. No sockets,
// crypto or WAL: nearly all CPU lands in dag, core, mempool and sim, which
// barely register at n=4. Finality is virtual time and repeats exactly for a
// seed, so only protocol changes move it.
#include <cstdio>

#include "common/log.h"
#include "common/rng.h"
#include "replay.h"
#include "report.h"
#include "sim/dag_builder.h"
#include "sim/harness.h"

namespace perfbench {

using namespace mahimahi;
using namespace mahimahi::sim;

namespace {

constexpr std::uint32_t kValidators = 50;
constexpr double kLoadTps = 50'000;
constexpr std::uint32_t kTxPerBatch = 8;
// Virtual seconds of load before the measured window opens.
constexpr double kWarmupS = 3.0;
// SimHarness constructions per run; setup_s is their median.
constexpr int kSetups = 8;
// Rounds of the random-network DAG the traced run replays at n=50.
constexpr Round kReplayRounds = 30;

SimConfig make_config(const Options& options) {
  SimConfig config;
  config.protocol = Protocol::kMahiMahi5;
  config.n = kValidators;
  config.leaders_per_round = 2;
  config.wan = true;
  config.load_tps = kLoadTps;
  // One batch per validator per interval averaging 8 transactions.
  config.client_interval = static_cast<TimeMicros>(1e6 * kTxPerBatch * kValidators / kLoadTps);
  config.verify_crypto = false;
  config.seed = options.seed;
  config.warmup = seconds(kWarmupS);
  config.duration = seconds(kWarmupS + options.seconds);
  return config;
}

}  // namespace

Result run_sim_workload(const Options& options) {
  set_log_level(LogLevel::kWarn);
  const SimConfig config = make_config(options);
  const double window_s = options.seconds;

  std::vector<double> setup_s;
  SimResult r;
  double wall_s = 0;
  double cpu_us_per_tx = 0;
  {
    // The simulator is single-threaded, so it runs on a rotating core, and
    // set-up is timed several times for its median.
    CoreRotator rotator;
    for (int i = 0; i < kSetups; ++i) {
      const double start = now_s();
      const SimHarness harness(config);
      setup_s.push_back(now_s() - start);
    }
    SimHarness harness(config);
    const double cpu_start = process_cpu_s();
    const double wall_start = now_s();
    r = harness.run();
    wall_s = now_s() - wall_start;
    // run() cannot be timed per window, so CPU covers the whole simulated
    // run and is divided by every transaction validator 0 delivered in it.
    cpu_us_per_tx = ratio((process_cpu_s() - cpu_start) * 1e6,
                          static_cast<double>(r.commit_stats.delivered_transactions));
  }
  Result result;
  const double submitted_batches = r.submitted_tps * window_s / kTxPerBatch;
  result.attempted = static_cast<std::uint64_t>(submitted_batches + 0.5);
  result.failed = r.mempool_rejected;
  result.check(r.equivocation_cells == 0, "sim: equivocation_cells != 0");
  result.check(r.exec_order_violations == 0, "sim: exec_order_violations != 0");
  result.check(r.exec_serial_mismatches == 0, "sim: exec_serial_mismatches != 0");
  result.check(r.committed_tps > 0 && r.latency_samples > 0, "sim: nothing committed");
  std::printf("load: sim-wan50, open loop %.0f tx/s offered (%.0f injected), %llu finality "
              "samples (tx), %.2f s wall for %.0f virtual s, setups",
              kLoadTps, r.submitted_tps, static_cast<unsigned long long>(r.latency_samples),
              wall_s, to_seconds(config.duration));
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s\n%s\n", r.to_string().c_str());

  if (!options.trace) {
    result.add("finality_p50_ms", r.p50_latency_s * 1000.0, "ms");
    result.add("finality_p99_ms", r.p99_latency_s * 1000.0, "ms");
    result.add("committed_tps", r.committed_tps, "tx/s");
    result.add("tx_committed_ratio", ratio(r.committed_tps, r.submitted_tps), "ratio");
    result.add("cpu_us_per_tx", cpu_us_per_tx, "us");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    result.add("setup_s", median(setup_s), "s");
    return result;
  }

  // Traced: the n=50 layer replay over a DagBuilder random-network DAG.
  DagBuilder builder(kValidators, options.seed);
  Rng rng(options.seed);
  ReplayInput input;
  input.committee = &builder.committee();
  input.committer = mahi_mahi_5(2);
  for (Round round = 1; round <= kReplayRounds; ++round) {
    input.groups.push_back(builder.add_random_network_round(round, rng));
  }
  input.wal_dir = options.workdir + "/replay-wal";
  const ReplayOutput replay = replay_layers(input);
  result.check(replay.decode_roundtrip_ok && replay.structure_ok && replay.crypto_ok &&
                   replay.mempool_roundtrip_ok && replay.blocks_inserted == replay.blocks,
               "replay: the n=50 DAG failed a layer check");

  std::printf("\nreplay self time (%llu blocks at n=%u)\n",
              static_cast<unsigned long long>(replay.blocks), kValidators);
  for (const auto& [name, t] : replay.spans) {
    std::printf("  %-20s %10.1f us self over %llu items = %8.3f us/item\n", name.c_str(),
                t.self_us, static_cast<unsigned long long>(t.items), t.self_us_per_item());
  }

  const auto& m = r.metrics;
  const auto& stats = r.commit_stats;
  const double slots = static_cast<double>(stats.committed_slots() + stats.skipped_slots());
  // Layers the simulator does not run (sockets, WAL, execution, checkpoints,
  // the client submit() call) report 0.
  result.add("net.syscalls_per_block", 0, "count");
  result.add("net.loop_busy_us_per_block", 0, "us");
  result.add("net.bytes_sent_per_tx", 0, "B");
  result.add("net.verify_frames_dropped", 0, "count");
  result.add("net.loop_max_tick_ms", 0, "ms");
  result.add("net.loop_stalls", 0, "count");
  result.add("net.epoll.syscalls_per_block", 0, "count");
  result.add("net.epoll.bytes_sent_per_tx", 0, "B");
  result.add("net.uring.syscalls_per_block", 0, "count");
  result.add("net.uring.bytes_sent_per_tx", 0, "B");
  result.add("types.decode_us_per_block", self_us_per_item(replay, "types.decode"), "us");
  result.add("types.structural_us_per_block", self_us_per_item(replay, "types.structural"),
             "us");
  result.add("crypto.verify_us_per_block", self_us_per_item(replay, "crypto.verify_b8"), "us");
  result.add("crypto.verify_us_per_block_b64", self_us_per_item(replay, "crypto.verify_b64"),
             "us");
  result.add("ingest.decode_wait_us", m.histogram("mm_stage_decode_micros").mean(), "us");
  result.add("validator.insert_queue_wait_us", m.histogram("mm_stage_insert_queue_micros").mean(),
             "us");
  result.add("dag.insert_us_per_block", self_us_per_item(replay, "dag.insert"), "us");
  result.add("core.scan_us_per_block", self_us_per_item(replay, "core.scan"), "us");
  result.add("core.apply_us_per_commit", self_us_per_item(replay, "core.apply"), "us");
  result.add("core.commit_wait_ms", m.histogram("mm_stage_commit_wait_micros").mean() / 1000.0,
             "ms");
  result.add("core.direct_commit_ratio",
             ratio(static_cast<double>(stats.direct_commits),
                   static_cast<double>(stats.committed_slots())),
             "ratio");
  result.add("core.skipped_slot_ratio", ratio(static_cast<double>(stats.skipped_slots()), slots),
             "ratio");
  result.add("wal.durable_wait_us", m.histogram("mm_stage_wal_durable_micros").mean(), "us");
  result.add("wal.records_per_group", 0, "count");
  result.add("wal.flush_syscalls_per_block", 0, "count");
  result.add("wal.append_us_per_block", self_us_per_item(replay, "wal.append"), "us");
  result.add("mempool.submit_us_per_batch", 0, "us");
  result.add("mempool.admit_us_per_batch", self_us_per_item(replay, "mempool.submit"), "us");
  result.add("mempool.drain_us_per_batch", self_us_per_item(replay, "mempool.drain"), "us");
  result.add("mempool.rejected_ratio",
             ratio(static_cast<double>(r.mempool_rejected), submitted_batches), "ratio");
  result.add("mempool.tx_per_block",
             ratio(static_cast<double>(stats.delivered_transactions),
                   static_cast<double>(stats.delivered_blocks)),
             "count");
  result.add("exec.apply_us_per_tx", 0, "us");
  result.add("exec.engine_us_per_tx", 0, "us");
  result.add("exec.delivery_lag_ms", 0, "ms");
  result.add("exec.waves_per_subdag", 0, "count");
  result.add("exec.early_delivery_ratio", 0, "ratio");
  result.add("exec.access_violations", 0, "count");
  result.add("checkpoint.cuts", static_cast<double>(r.checkpoints_written), "count");
  result.add("checkpoint.cert_ratio",
             ratio(static_cast<double>(r.checkpoint_certs_formed),
                   static_cast<double>(r.checkpoints_written)),
             "ratio");
  result.add("sim.wall_s_per_virtual_s", wall_s / to_seconds(config.duration), "ratio");
  result.add("sim.fetch_requests", static_cast<double>(r.fetch_requests), "count");
  // Nothing inside the simulated run is traced: both runs are the same run.
  result.add("obs.trace_overhead_pct", 0, "%");
  result.add("bench.gen_late_p99_ms", 0, "ms");
  result.add("bench.finality_samples", static_cast<double>(r.latency_samples), "count");
  return result;
}

}  // namespace perfbench
