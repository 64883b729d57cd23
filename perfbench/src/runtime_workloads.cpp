// The loopback-committee workloads: a NodeRuntime committee in this process
// over loopback TCP, driven by one generator thread calling submit().
//
// Every runtime workload uses the deployment-grade configuration: crypto
// verification on, an fsync group-commit WAL on disk, the parallel
// committer, gc_depth > 0 with certified delta checkpoints, MM-5 with two
// leaders per round, 20 ms minimum round spacing and the kAuto I/O backend.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/kv_batches.h"
#include "common/log.h"
#include "common/rng.h"
#include "net/node_runtime.h"
#include "net/tcp.h"
#include "replay.h"
#include "report.h"

namespace perfbench {

using namespace mahimahi;
using namespace mahimahi::net;

namespace {

constexpr std::uint32_t kTxPerBatch = 8;
constexpr std::uint32_t kTxBytes = 512;
constexpr std::uint32_t kLeadersPerRound = 2;
constexpr Round kGcDepth = 50;
constexpr Round kCheckpointInterval = 5;
// Load runs this long before the measured window opens.
constexpr double kWarmupS = 1.0;
// Longest wait after the window for every admitted batch to commit.
constexpr double kDrainS = 15.0;
constexpr double kSetupTimeoutS = 30.0;
// Committee set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// Blocks captured from validator 0's commit stream for the traced replay.
constexpr std::size_t kCaptureBlocks = 1600;
constexpr std::uint64_t kSeqMask = (1ull << 40) - 1;
// Latency charged to a batch that failed or never committed: the finite
// stand-in for infinity that the JSON result can carry.
constexpr double kFailedLatencyMs = 1e9;

struct RuntimeSpec {
  const char* name;
  std::uint32_t n;
  std::uint32_t live;          // validators [0, live) run; the rest never start
  bool closed;                 // closed loop (window) vs open loop (rate)
  double rate_tps;             // open loop: offered transactions per second
  std::uint32_t window;        // closed loop: outstanding batches per validator
  bool kv;                     // real KV batches + execution engine
};

constexpr RuntimeSpec kSpecs[] = {
    {"rt-steady", 4, 4, false, 20'000, 0, false},
    {"rt-saturate", 4, 4, true, 0, 512, false},
    {"rt-kv-crash", 4, 3, false, 8'000, 0, true},
};

const RuntimeSpec* find_spec(const std::string& name) {
  for (const RuntimeSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Per-validator commit observer. The commit handler runs on the validator's
// loop thread; everything below except the atomics is read only after the
// node stopped (its loop thread joined).
struct NodeProbe {
  ValidatorId id = 0;
  bool capture = false;
  std::atomic<bool> committed_leader{false};
  std::atomic<std::uint64_t> origin_batches{0};
  std::atomic<std::int64_t> outstanding{0};

  struct Sample {
    TimeMicros submitted_at;
    TimeMicros committed_at;
    std::uint64_t seq;
    std::uint32_t count;
  };
  std::vector<Sample> samples;  // own batches, at their commit here
  std::vector<std::pair<SlotId, Digest>> leaders;
  std::unordered_map<std::uint64_t, std::uint32_t> commits;  // seq -> times
  std::vector<CommittedSubDag> captured;
  std::size_t captured_blocks = 0;

  void on_commit(const CommittedSubDag& sub_dag) {
    const TimeMicros now = steady_now_micros();
    leaders.emplace_back(sub_dag.slot, sub_dag.leader->digest());
    for (const auto& block : sub_dag.blocks) {
      if (block->author() != id) continue;
      for (const auto& batch : block->batches()) {
        const std::uint64_t seq = batch.id & kSeqMask;
        ++commits[seq];
        samples.push_back({batch.submitted_at, now, seq, batch.count});
        outstanding.fetch_sub(1, std::memory_order_relaxed);
        origin_batches.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (capture && captured_blocks < kCaptureBlocks) {
      // Genesis blocks are built locally by every validator, never received.
      CommittedSubDag copy = sub_dag;
      std::erase_if(copy.blocks, [](const BlockPtr& b) { return b->round() == 0; });
      captured_blocks += copy.blocks.size();
      captured.push_back(std::move(copy));
    }
    committed_leader.store(true, std::memory_order_release);
  }
};

CommitterOptions committer_options() {
  CommitterOptions options = mahi_mahi_5(kLeadersPerRound);
  options.gc_depth = kGcDepth;
  return options;
}

NodeRuntimeConfig make_config(const RuntimeSpec& spec, ValidatorId v,
                              const std::vector<NodeAddress>& peers,
                              IoBackendKind backend, const std::string& wal_dir) {
  NodeRuntimeConfig config;
  config.validator.id = v;
  config.validator.committer = committer_options();
  config.validator.min_round_delay = millis(20);
  config.validator.parallel_commit = true;
  config.validator.wal_group_commit = true;
  config.validator.wal_fsync = true;
  config.validator.checkpoint_interval = kCheckpointInterval;
  config.validator.execute_app = spec.kv;
  config.validator.execution_threads = spec.kv ? 2 : 0;
  config.peers = peers;
  config.wal_path = wal_dir;
  config.io_backend = backend;
  return config;
}

// One committee: the live validators of `spec`, each with its probe.
class LiveCommittee {
 public:
  LiveCommittee(const RuntimeSpec& spec, const Committee::TestSetup& setup,
                IoBackendKind backend, const std::string& dir, bool capture)
      : dir_(dir) {
    // Pre-claim ephemeral ports: every node needs the full mesh upfront.
    std::vector<NodeAddress> addresses(spec.n);
    {
      EventLoop probe_loop;
      std::vector<std::unique_ptr<TcpListener>> listeners;
      for (std::uint32_t i = 0; i < spec.n; ++i) {
        listeners.push_back(
            std::make_unique<TcpListener>(probe_loop, 0, [](TcpConnectionPtr) {}));
        addresses[i].port = listeners.back()->port();
      }
    }
    for (ValidatorId v = 0; v < spec.live; ++v) {
      auto probe = std::make_unique<NodeProbe>();
      probe->id = v;
      probe->capture = capture && v == 0;
      auto node = std::make_unique<NodeRuntime>(
          setup.committee, setup.keypairs[v].private_key,
          make_config(spec, v, addresses, backend, dir + "/v" + std::to_string(v)));
      NodeProbe* raw = probe.get();
      node->set_commit_handler([raw](const CommittedSubDag& sub_dag) { raw->on_commit(sub_dag); });
      probes.push_back(std::move(probe));
      nodes.push_back(std::move(node));
    }
  }

  ~LiveCommittee() {
    stop();
    nodes.clear();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  LiveCommittee(const LiveCommittee&) = delete;
  LiveCommittee& operator=(const LiveCommittee&) = delete;

  void start() {
    for (auto& node : nodes) node->start();
  }

  void stop() {
    for (auto& node : nodes) node->stop();
  }

  bool wait_first_leader(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
      bool all = true;
      for (const auto& probe : probes) {
        all = all && probe->committed_leader.load(std::memory_order_acquire);
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  std::vector<std::unique_ptr<NodeProbe>> probes;

 private:
  std::string dir_;
};

// Everything one live run measured.
struct LiveRun {
  IoBackendKind backend = IoBackendKind::kAuto;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> finality_ms;  // window batches, failed ones included
  double window_s = 0;
  double committed_tps = 0;
  double cpu_us_per_tx = 0;
  std::vector<double> late_ms;      // open loop generator lateness
  SpanRecorder::Totals submit_span;
  // Counters read before the committee stopped.
  std::vector<obs::MetricsSnapshot> dumps;
  std::vector<NodeRuntime::IoPlaneReport> io;
  std::vector<MempoolStats> mempool;
  std::vector<exec::ExecStats> exec;
  std::uint64_t committed_blocks = 0;    // summed over live validators
  std::uint64_t committed_txs = 0;       // summed over live validators
  std::uint64_t origin_txs = 0;          // unique: own batches at origin
  std::uint64_t verify_dropped = 0;
  double commit_finality_mean_ms = 0;    // all origin samples, commit time
  std::uint64_t slots_decided = 0;       // validator 0, up to its last commit
  std::uint64_t slots_committed = 0;
  std::vector<CommittedSubDag> captured;
  std::vector<std::string> check_failures;
};

std::vector<std::uint8_t> make_payload_template(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::uint8_t> bytes(kTxPerBatch * kTxBytes);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  return bytes;
}

// The generator's batch factory: 8 x 512 B opaque transactions, each stamped
// with its batch id so no two transactions share bytes, or one KV batch.
class BatchFactory {
 public:
  BatchFactory(const RuntimeSpec& spec, std::uint64_t seed)
      : kv_(spec.kv), rng_(seed), payload_(make_payload_template(seed)) {
    workload_.conflict_percent = 25;
    workload_.commands_per_batch = kTxPerBatch;
  }

  TxBatch make(ValidatorId v, std::uint64_t seq, TimeMicros submitted_at) {
    if (kv_) return client::synth_kv_batch(workload_, v, seq, rng_, submitted_at);
    TxBatch batch;
    batch.id = (static_cast<std::uint64_t>(v) << 40) | seq;
    batch.submitted_at = submitted_at;
    batch.count = kTxPerBatch;
    batch.tx_bytes = kTxBytes;
    batch.payload.assign(payload_.begin(), payload_.end());
    for (std::uint32_t t = 0; t < kTxPerBatch; ++t) {
      std::memcpy(batch.payload.data() + t * kTxBytes, &batch.id, sizeof(batch.id));
    }
    return batch;
  }

 private:
  bool kv_;
  Rng rng_;
  client::KvWorkload workload_;
  std::vector<std::uint8_t> payload_;
};

struct GeneratorOut {
  std::vector<std::uint64_t> submitted;  // batches per validator (seq 1..k)
  std::uint64_t submitted_txs = 0;
  std::uint64_t window_batches = 0;
  std::vector<double> late_ms;
  double cpu_window_s = 0;
  SpanRecorder spans;
};

// Runs the load schedule on the calling thread until `window_end`.
void generate(const RuntimeSpec& spec, std::uint64_t seed, LiveCommittee& committee,
              TimeMicros warm_end, TimeMicros window_end, bool traced,
              GeneratorOut& out) {
  BatchFactory factory(spec, seed);
  Rng arrivals(seed);
  out.submitted.assign(spec.live, 0);
  bool window_open = false;
  double cpu_start = 0;
  auto open_window = [&](TimeMicros now) {
    if (!window_open && now >= warm_end) {
      window_open = true;
      cpu_start = thread_cpu_s();
    }
  };
  auto submit = [&](ValidatorId v, std::vector<TxBatch> batches) {
    for (const auto& batch : batches) out.submitted_txs += batch.count;
    if (traced) {
      ScopedSpan span(out.spans, "mempool.submit_call", batches.size());
      committee.nodes[v]->submit(std::move(batches));
    } else {
      committee.nodes[v]->submit(std::move(batches));
    }
  };

  if (!spec.closed) {
    // Poisson arrivals of 8-transaction batches at the offered rate, each to
    // a uniformly chosen live validator; the clock starts at the due time.
    const double mean_gap_us = 1e6 * kTxPerBatch / spec.rate_tps;
    double due = static_cast<double>(steady_now_micros());
    for (;;) {
      due += arrivals.exponential(mean_gap_us);
      const auto due_us = static_cast<TimeMicros>(due);
      if (due_us >= window_end) break;
      TimeMicros now = steady_now_micros();
      if (due_us > now) {
        std::this_thread::sleep_for(std::chrono::microseconds(due_us - now));
        now = steady_now_micros();
      }
      open_window(now);
      if (due_us >= warm_end) {
        out.late_ms.push_back(static_cast<double>(now - due_us) / 1000.0);
        ++out.window_batches;
      }
      const auto v = static_cast<ValidatorId>(arrivals.uniform(spec.live));
      const std::uint64_t seq = ++out.submitted[v];
      std::vector<TxBatch> one;
      one.push_back(factory.make(v, seq, due_us));
      submit(v, std::move(one));
    }
  } else {
    // Closed loop: keep `window` batches outstanding per validator; a commit
    // at the origin frees a slot.
    for (;;) {
      const TimeMicros now = steady_now_micros();
      if (now >= window_end) break;
      open_window(now);
      bool any = false;
      for (ValidatorId v = 0; v < spec.live; ++v) {
        NodeProbe& probe = *committee.probes[v];
        const std::int64_t free =
            static_cast<std::int64_t>(spec.window) -
            probe.outstanding.load(std::memory_order_relaxed);
        if (free <= 0) continue;
        std::vector<TxBatch> batches;
        batches.reserve(static_cast<std::size_t>(free));
        for (std::int64_t i = 0; i < free; ++i) {
          batches.push_back(factory.make(v, ++out.submitted[v], now));
        }
        probe.outstanding.fetch_add(free, std::memory_order_relaxed);
        if (now >= warm_end) out.window_batches += static_cast<std::uint64_t>(free);
        submit(v, std::move(batches));
        any = true;
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  open_window(window_end);
  out.cpu_window_s = thread_cpu_s() - cpu_start;
}

void sleep_until_micros(TimeMicros when) {
  const TimeMicros now = steady_now_micros();
  if (when > now) std::this_thread::sleep_for(std::chrono::microseconds(when - now));
}

LiveRun run_live(const RuntimeSpec& spec, const Options& options,
                 const Committee::TestSetup& setup, IoBackendKind backend, int setups,
                 bool traced, const std::string& tag) {
  LiveRun run;
  const std::string base_dir = options.workdir + "/" + tag;
  std::unique_ptr<LiveCommittee> committee;
  for (int i = 0; i < setups; ++i) {
    committee.reset();
    const double start = now_s();
    committee = std::make_unique<LiveCommittee>(
        spec, setup, backend, base_dir + "-setup" + std::to_string(i), traced);
    committee->start();
    if (!committee->wait_first_leader(kSetupTimeoutS)) {
      run.check_failures.push_back("setup: a live validator committed no leader within " +
                                   std::to_string(kSetupTimeoutS) + " s");
      return run;
    }
    run.setup_s.push_back(now_s() - start);
  }
  run.backend = committee->nodes[0]->io_backend_kind();

  const TimeMicros load_start = steady_now_micros();
  const TimeMicros warm_end = load_start + seconds(kWarmupS);
  const TimeMicros window_end = warm_end + seconds(options.seconds);
  run.window_s = to_seconds(window_end - warm_end);
  GeneratorOut gen;
  std::thread generator([&] {
    generate(spec, options.seed, *committee, warm_end, window_end, traced, gen);
  });
  sleep_until_micros(warm_end);
  const double cpu_start = process_cpu_s();
  sleep_until_micros(window_end);
  const double cpu_end = process_cpu_s();
  generator.join();

  // Drain: every submitted batch commits at its origin, and with execution
  // on, every live validator has committed every batch (so app states match).
  std::uint64_t submitted_batches = 0;
  for (std::uint64_t s : gen.submitted) submitted_batches += s;
  const double drain_deadline = now_s() + kDrainS;
  for (;;) {
    std::uint64_t done = 0;
    bool everywhere = true;
    for (std::size_t v = 0; v < committee->nodes.size(); ++v) {
      done += committee->probes[v]->origin_batches.load(std::memory_order_relaxed);
      if (spec.kv) everywhere = everywhere && committee->nodes[v]->committed_transactions() ==
                                                  gen.submitted_txs;
    }
    if ((done >= submitted_batches && everywhere) || now_s() >= drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Counters before stop(): shutdown traffic is not part of the workload.
  std::vector<Digest> app_digests;
  for (auto& node : committee->nodes) {
    run.dumps.push_back(node->metrics_registry().dump());
    run.io.push_back(node->io_plane_report());
    run.mempool.push_back(node->mempool_stats());
    run.exec.push_back(node->execution_stats());
    run.committed_blocks += node->committed_blocks();
    run.committed_txs += node->committed_transactions();
    run.verify_dropped += node->verify_frames_dropped();
    if (spec.kv) app_digests.push_back(node->app_state_digest());
  }
  committee->stop();

  // --- Finality, throughput, failures ---------------------------------------
  std::uint64_t window_committed_txs = 0;
  std::uint64_t committed_window_batches = 0;
  double commit_finality_sum = 0;
  std::uint64_t commit_finality_n = 0;
  std::uint64_t rejected = 0;
  for (const auto& stats : run.mempool) rejected += stats.rejected();
  for (std::size_t v = 0; v < committee->probes.size(); ++v) {
    const NodeProbe& probe = *committee->probes[v];
    for (const auto& s : probe.samples) {
      run.origin_txs += s.count;
      commit_finality_sum += static_cast<double>(s.committed_at - s.submitted_at) / 1000.0;
      ++commit_finality_n;
      if (s.committed_at >= warm_end && s.committed_at < window_end) {
        window_committed_txs += s.count;
      }
      if (s.submitted_at >= warm_end && s.submitted_at < window_end) {
        ++committed_window_batches;
        run.finality_ms.push_back(static_cast<double>(s.committed_at - s.submitted_at) / 1000.0);
      }
    }
    // Exactly once at the origin: no duplicate, nothing never submitted.
    std::uint64_t duplicates = 0;
    std::uint64_t unknown = 0;
    for (const auto& [seq, times] : probe.commits) {
      if (times != 1) ++duplicates;
      if (seq == 0 || seq > gen.submitted[v]) ++unknown;
    }
    if (duplicates > 0 || unknown > 0) {
      run.check_failures.push_back(
          "validator " + std::to_string(v) + ": " + std::to_string(duplicates) +
          " batches committed more than once, " + std::to_string(unknown) +
          " committed batches never submitted");
    }
  }
  std::uint64_t never_committed = 0;
  for (std::size_t v = 0; v < committee->probes.size(); ++v) {
    never_committed += gen.submitted[v] - committee->probes[v]->commits.size();
  }
  if (never_committed != rejected) {
    run.check_failures.push_back(
        std::to_string(never_committed) + " submitted batches did not commit at their origin " +
        "within the drain deadline, but only " + std::to_string(rejected) +
        " were rejected at admission");
  }
  // Window batches: submitted (due, in the open loop) inside the window.
  run.attempted = gen.window_batches;
  run.failed = run.attempted > committed_window_batches
                   ? run.attempted - committed_window_batches
                   : 0;
  for (std::uint64_t i = 0; i < run.failed; ++i) {
    run.finality_ms.push_back(kFailedLatencyMs);
  }
  std::sort(run.finality_ms.begin(), run.finality_ms.end());
  run.committed_tps = static_cast<double>(window_committed_txs) / run.window_s;
  const double cpu_s = (cpu_end - cpu_start) - gen.cpu_window_s;
  run.cpu_us_per_tx =
      window_committed_txs == 0 ? 0 : cpu_s * 1e6 / static_cast<double>(window_committed_txs);
  run.late_ms = std::move(gen.late_ms);
  std::sort(run.late_ms.begin(), run.late_ms.end());
  run.commit_finality_mean_ms =
      commit_finality_n == 0 ? 0 : commit_finality_sum / static_cast<double>(commit_finality_n);
  if (traced) {
    const auto totals = gen.spans.totals();
    if (const auto it = totals.find("mempool.submit_call"); it != totals.end()) {
      run.submit_span = it->second;
    }
  }

  // --- Agreement: live validators' leader sequences share a common prefix ---
  const auto& reference = committee->probes[0]->leaders;
  for (std::size_t v = 1; v < committee->probes.size(); ++v) {
    const auto& other = committee->probes[v]->leaders;
    const std::size_t common = std::min(reference.size(), other.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (reference[i].first != other[i].first || reference[i].second != other[i].second) {
        run.check_failures.push_back("validators 0 and " + std::to_string(v) +
                                     " disagree at committed leader " + std::to_string(i));
        break;
      }
    }
  }
  if (reference.empty()) run.check_failures.push_back("validator 0 committed nothing");
  // Slot accounting from validator 0's commit stream: every slot between two
  // consecutive committed slots was decided skip.
  if (!reference.empty()) {
    const SlotId last = reference.back().first;
    run.slots_decided = static_cast<std::uint64_t>(last.round - 1) * kLeadersPerRound +
                        last.leader_offset + 1;
    run.slots_committed = reference.size();
  }

  if (spec.kv) {
    for (std::size_t v = 1; v < app_digests.size(); ++v) {
      if (app_digests[v] != app_digests[0]) {
        run.check_failures.push_back("app_state_digest of validator " + std::to_string(v) +
                                     " differs from validator 0");
      }
    }
    std::uint64_t violations = 0;
    for (const auto& stats : run.exec) violations += stats.access_violations;
    if (violations != 0) {
      run.check_failures.push_back(std::to_string(violations) + " exec access violations");
    }
    std::uint64_t applied = 0;
    for (const auto& stats : run.exec) applied += stats.commands_applied;
    if (applied == 0) run.check_failures.push_back("execution applied no commands");
  }
  if (window_committed_txs == 0) run.check_failures.push_back("nothing committed in the window");

  if (traced) run.captured = std::move(committee->probes[0]->captured);
  committee.reset();
  return run;
}

void add_end_to_end(Result& result, const LiveRun& run) {
  result.add("finality_p50_ms", percentile_sorted(run.finality_ms, 50), "ms");
  result.add("finality_p99_ms", percentile_sorted(run.finality_ms, 99), "ms");
  result.add("committed_tps", run.committed_tps, "tx/s");
  result.add("tx_committed_ratio",
             ratio(static_cast<double>(run.attempted - run.failed),
                   static_cast<double>(run.attempted)),
             "ratio");
  result.add("cpu_us_per_tx", run.cpu_us_per_tx, "us");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  result.add("setup_s", median(run.setup_s), "s");
}

// Longest single event-loop tick of any live validator.
double worst_loop_tick_ms(const LiveRun& run) {
  std::int64_t worst_us = 0;
  for (const auto& dump : run.dumps) {
    worst_us = std::max(worst_us, dump.gauge_value("mm_loop_max_stall_micros"));
  }
  return static_cast<double>(worst_us) / 1000.0;
}

void print_load_validity(const RuntimeSpec& spec, const LiveRun& run) {
  std::printf("load: %s, %s", spec.name,
              spec.closed ? "closed loop" : "open loop");
  if (spec.closed) {
    std::printf(" window %u batches/validator", spec.window);
  } else {
    std::printf(" %.0f tx/s offered, generator late p99 %.3f ms", spec.rate_tps,
                percentile_sorted(run.late_ms, 99));
  }
  std::printf(", %zu finality samples, backend %s, %llu loop stalls (longest tick %.0f ms), "
              "setups",
              run.finality_ms.size(), to_string(run.backend),
              static_cast<unsigned long long>(summed_counter(run.dumps, "mm_loop_stalls_total")),
              worst_loop_tick_ms(run));
  for (double s : run.setup_s) std::printf(" %.3f", s);
  std::printf(" s\n");
}

// Per-backend net figures: syscalls per committed block, bytes per tx.
struct NetFigures {
  double syscalls_per_block = 0;
  double loop_busy_us_per_block = 0;
  double bytes_sent_per_tx = 0;
};

NetFigures net_figures(const LiveRun& run) {
  NetFigures out;
  double syscalls = 0;
  double busy = 0;
  double bytes = 0;
  for (const auto& io : run.io) {
    syscalls += static_cast<double>(io.submit_syscalls + io.wait_syscalls);
    busy += static_cast<double>(io.loop_busy_micros);
    bytes += static_cast<double>(io.bytes_sent);
  }
  out.syscalls_per_block = ratio(syscalls, static_cast<double>(run.committed_blocks));
  out.loop_busy_us_per_block = ratio(busy, static_cast<double>(run.committed_blocks));
  out.bytes_sent_per_tx = ratio(bytes, static_cast<double>(run.origin_txs));
  return out;
}

void print_budget_table(const RuntimeSpec& spec, const LiveRun& run) {
  static const char* kStages[] = {"decode",     "crypto_verify", "insert_queue",
                                  "dag_insert", "commit_wait",   "apply",
                                  "wal_durable", "execute"};
  const double p50 = percentile_sorted(run.finality_ms, 50);
  std::printf("\nfinality budget, %s (registry stage means, all live validators)\n",
              spec.name);
  std::printf("  %-16s %12s\n", "stage", "mean ms");
  double attributed = 0;
  for (const char* stage : kStages) {
    const double ms =
        merged_mean(run.dumps, std::string("mm_stage_") + stage + "_micros") / 1000.0;
    attributed += ms;
    std::printf("  %-16s %12.3f\n", stage, ms);
  }
  std::printf("  %-16s %12.3f\n", "unattributed", p50 - attributed);
  std::printf("  %-16s %12.3f\n", "finality_p50", p50);
}

void add_per_layer(Result& result, const RuntimeSpec& spec, const LiveRun& base,
                   const LiveRun& traced, const NetFigures& epoll, const NetFigures& uring,
                   const ReplayOutput& replay) {
  const NetFigures net = net_figures(traced);
  const auto& dumps = traced.dumps;
  const double blocks = static_cast<double>(traced.committed_blocks);
  // net
  result.add("net.syscalls_per_block", net.syscalls_per_block, "count");
  result.add("net.loop_busy_us_per_block", net.loop_busy_us_per_block, "us");
  result.add("net.bytes_sent_per_tx", net.bytes_sent_per_tx, "B");
  result.add("net.verify_frames_dropped", static_cast<double>(traced.verify_dropped), "count");
  result.add("net.loop_max_tick_ms", worst_loop_tick_ms(traced), "ms");
  result.add("net.loop_stalls",
             static_cast<double>(summed_counter(dumps, "mm_loop_stalls_total")), "count");
  result.add("net.epoll.syscalls_per_block", epoll.syscalls_per_block, "count");
  result.add("net.epoll.bytes_sent_per_tx", epoll.bytes_sent_per_tx, "B");
  result.add("net.uring.syscalls_per_block", uring.syscalls_per_block, "count");
  result.add("net.uring.bytes_sent_per_tx", uring.bytes_sent_per_tx, "B");
  // types / crypto / validator
  result.add("types.decode_us_per_block", self_us_per_item(replay, "types.decode"), "us");
  result.add("types.structural_us_per_block", self_us_per_item(replay, "types.structural"),
             "us");
  result.add("crypto.verify_us_per_block", self_us_per_item(replay, "crypto.verify_b8"), "us");
  result.add("crypto.verify_us_per_block_b64", self_us_per_item(replay, "crypto.verify_b64"),
             "us");
  result.add("ingest.decode_wait_us", merged_mean(dumps, "mm_stage_decode_micros"), "us");
  result.add("validator.insert_queue_wait_us",
             merged_mean(dumps, "mm_stage_insert_queue_micros"), "us");
  // dag / core
  result.add("dag.insert_us_per_block", self_us_per_item(replay, "dag.insert"), "us");
  result.add("core.scan_us_per_block", self_us_per_item(replay, "core.scan"), "us");
  result.add("core.apply_us_per_commit", self_us_per_item(replay, "core.apply"), "us");
  result.add("core.commit_wait_ms", merged_mean(dumps, "mm_stage_commit_wait_micros") / 1000.0,
             "ms");
  result.add("core.direct_commit_ratio",
             ratio(static_cast<double>(replay.direct_commits), static_cast<double>(replay.commits)),
             "ratio");
  result.add("core.skipped_slot_ratio",
             ratio(static_cast<double>(traced.slots_decided - traced.slots_committed),
                   static_cast<double>(traced.slots_decided)),
             "ratio");
  // wal
  result.add("wal.durable_wait_us", merged_mean(dumps, "mm_stage_wal_durable_micros"), "us");
  result.add("wal.records_per_group",
             ratio(static_cast<double>(summed_counter(dumps, "mm_wal_records_flushed_total")),
                   static_cast<double>(summed_counter(dumps, "mm_wal_groups_flushed_total"))),
             "count");
  result.add("wal.flush_syscalls_per_block",
             ratio(static_cast<double>(summed_counter(dumps, "mm_wal_flush_syscalls_total")),
                   blocks),
             "count");
  result.add("wal.append_us_per_block", self_us_per_item(replay, "wal.append"), "us");
  // mempool
  result.add("mempool.submit_us_per_batch", traced.submit_span.self_us_per_item(), "us");
  result.add("mempool.admit_us_per_batch", self_us_per_item(replay, "mempool.submit"), "us");
  result.add("mempool.drain_us_per_batch", self_us_per_item(replay, "mempool.drain"), "us");
  double accepted = 0;
  double rejected = 0;
  for (const auto& stats : traced.mempool) {
    accepted += static_cast<double>(stats.accepted);
    rejected += static_cast<double>(stats.rejected());
  }
  result.add("mempool.rejected_ratio", ratio(rejected, accepted + rejected), "ratio");
  result.add("mempool.tx_per_block", ratio(static_cast<double>(traced.committed_txs), blocks),
             "count");
  // exec
  result.add("exec.apply_us_per_tx", self_us_per_item(replay, "exec.serial_apply"), "us");
  result.add("exec.engine_us_per_tx", self_us_per_item(replay, "exec.engine"), "us");
  result.add("exec.delivery_lag_ms",
             spec.kv ? merged_mean(dumps, "mm_finality_micros") / 1000.0 -
                           traced.commit_finality_mean_ms
                     : 0.0,
             "ms");
  exec::ExecStats exec_total;
  for (const auto& s : traced.exec) {
    exec_total.subdags += s.subdags;
    exec_total.waves += s.waves;
    exec_total.batches_executed += s.batches_executed;
    exec_total.early_deliveries += s.early_deliveries;
    exec_total.access_violations += s.access_violations;
  }
  result.add("exec.waves_per_subdag",
             ratio(static_cast<double>(exec_total.waves), static_cast<double>(exec_total.subdags)),
             "count");
  result.add("exec.early_delivery_ratio",
             ratio(static_cast<double>(exec_total.early_deliveries),
                   static_cast<double>(exec_total.batches_executed)),
             "ratio");
  result.add("exec.access_violations", static_cast<double>(exec_total.access_violations),
             "count");
  // checkpoint
  const double cuts = static_cast<double>(summed_counter(dumps, "mm_checkpoints_written_total"));
  result.add("checkpoint.cuts", cuts, "count");
  result.add("checkpoint.cert_ratio",
             ratio(static_cast<double>(summed_counter(dumps, "mm_checkpoint_certs_total")), cuts),
             "ratio");
  // sim (no simulator in a runtime workload)
  result.add("sim.wall_s_per_virtual_s", 0, "ratio");
  result.add("sim.fetch_requests",
             static_cast<double>(summed_counter(dumps, "mm_fetch_requests_total")), "count");
  // obs + load validity
  result.add("obs.trace_overhead_pct",
             100.0 * ratio(traced.cpu_us_per_tx - base.cpu_us_per_tx, base.cpu_us_per_tx), "%");
  result.add("bench.gen_late_p99_ms", percentile_sorted(traced.late_ms, 99), "ms");
  result.add("bench.finality_samples", static_cast<double>(traced.finality_ms.size()), "count");
}

}  // namespace

bool is_runtime_workload(const std::string& name) { return find_spec(name) != nullptr; }

Result run_runtime_workload(const Options& options) {
  const RuntimeSpec& spec = *find_spec(options.workload);
  set_log_level(LogLevel::kWarn);
  const auto setup = Committee::make_test(spec.n);
  Result result;

  if (!options.trace) {
    LiveRun run = run_live(spec, options, setup, IoBackendKind::kAuto, kSetups, false, "run");
    print_load_validity(spec, run);
    result.attempted = run.attempted;
    result.failed = run.failed;
    result.check_failures = run.check_failures;
    add_end_to_end(result, run);
    return result;
  }

  // Traced: an untraced baseline, the traced run (kAuto; spans around
  // submit() and the commit-stream capture), the other I/O backend, then
  // the single-threaded layer replay of what the traced run captured.
  LiveRun base = run_live(spec, options, setup, IoBackendKind::kAuto, 1, false, "base");
  LiveRun traced = run_live(spec, options, setup, IoBackendKind::kAuto, 1, true, "traced");
  const bool rings = uring_backend_available();
  NetFigures epoll;
  NetFigures uring;
  (traced.backend == IoBackendKind::kEpoll ? epoll : uring) = net_figures(traced);
  const IoBackendKind other =
      traced.backend == IoBackendKind::kEpoll ? IoBackendKind::kUring : IoBackendKind::kEpoll;
  if (other == IoBackendKind::kEpoll || rings) {
    const char* name = to_string(other);
    LiveRun run = run_live(spec, options, setup, other, 1, false, name);
    (other == IoBackendKind::kEpoll ? epoll : uring) = net_figures(run);
    for (auto& f : run.check_failures) result.check_failures.push_back(name + (" run: " + f));
  }
  if (!rings) {
    std::printf("note: this kernel offers no io_uring rings; net.uring.* report 0\n");
  }

  ReplayInput input;
  input.committee = &setup.committee;
  input.committer = committer_options();
  for (const auto& sub_dag : traced.captured) input.groups.push_back(sub_dag.blocks);
  input.subdags = traced.captured;
  input.own = 0;
  input.wal_dir = options.workdir + "/replay-wal";
  const ReplayOutput replay = replay_layers(input);

  for (auto& f : base.check_failures) result.check_failures.push_back("baseline run: " + f);
  for (auto& f : traced.check_failures) result.check_failures.push_back(f);
  result.check(replay.decode_roundtrip_ok, "replay: decoded block digests differ");
  result.check(replay.structure_ok, "replay: a committed block failed structural validation");
  result.check(replay.crypto_ok, "replay: a committed block failed crypto verification");
  result.check(replay.serial_engine_digests_equal,
               "replay: serial and parallel execution digests differ");
  result.check(replay.mempool_roundtrip_ok, "replay: mempool lost or rejected batches");
  result.check(replay.blocks_inserted == replay.blocks,
               "replay: captured blocks are not causally complete");
  result.attempted = traced.attempted;
  result.failed = traced.failed;

  print_load_validity(spec, traced);
  print_budget_table(spec, traced);
  std::printf("\nI/O backends, %s: %-6s %16s %16s\n", spec.name, "", "syscalls/block",
              "bytes sent/tx");
  std::printf("  epoll %16.2f %16.1f\n", epoll.syscalls_per_block, epoll.bytes_sent_per_tx);
  std::printf("  uring %16.2f %16.1f%s\n", uring.syscalls_per_block, uring.bytes_sent_per_tx,
              rings ? "" : "  (no rings on this kernel)");
  std::printf("\nreplay self time (%llu blocks, %llu sub-DAGs)\n",
              static_cast<unsigned long long>(replay.blocks),
              static_cast<unsigned long long>(input.subdags.size()));
  for (const auto& [name, t] : replay.spans) {
    std::printf("  %-20s %10.1f us self over %llu items = %8.3f us/item\n", name.c_str(),
                t.self_us, static_cast<unsigned long long>(t.items), t.self_us_per_item());
  }
  add_per_layer(result, spec, base, traced, epoll, uring, replay);
  return result;
}

}  // namespace perfbench
