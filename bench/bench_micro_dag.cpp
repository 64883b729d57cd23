// Microbenchmarks: DAG operations, serialization, decision rules, WAL.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/committer.h"
#include "sim/dag_builder.h"
#include "types/validation.h"
#include "validator/synchronizer.h"
#include "wal/wal.h"

namespace {

using namespace mahimahi;

void BM_BlockCreateAndSign(benchmark::State& state) {
  auto setup = Committee::make_test(4);
  std::vector<BlockRef> refs;
  for (ValidatorId v = 0; v < 4; ++v) {
    refs.push_back(Block::genesis(v, setup.committee.coin()).ref());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block::make(0, 1, refs, {},
                                         setup.committee.coin().share(0, 1),
                                         setup.keypairs[0].private_key));
  }
}
BENCHMARK(BM_BlockCreateAndSign);

void BM_BlockSerialize(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(2);
  const BlockPtr block = builder.dag().slot(2, 0).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(block->serialize());
  }
}
BENCHMARK(BM_BlockSerialize);

void BM_BlockDeserialize(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(2);
  const Bytes wire = builder.dag().slot(2, 0).front()->serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block::deserialize({wire.data(), wire.size()}));
  }
}
BENCHMARK(BM_BlockDeserialize);

void BM_BlockValidate(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(2);
  const BlockPtr block = builder.dag().slot(2, 0).front();
  ValidationOptions options;
  options.verify_signature = state.range(0) != 0;
  options.verify_coin_share = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_block(*block, builder.committee(), options));
  }
}
BENCHMARK(BM_BlockValidate)->Arg(0)->Arg(1);  // structural only vs full crypto

void BM_SynchronizerOfferRound(benchmark::State& state) {
  // The ingest path of both drivers: Synchronizer::offer, which makes the
  // DAG's one presence check per parent and inserts. One iteration offers
  // one round's worth of random-network blocks. Each pair of consecutive
  // rounds is shuffled together, so some blocks arrive before their parents,
  // park, and insert in a cascade when the parents come.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr Round kRounds = 100;
  DagBuilder source(n);
  Rng rng(7);
  for (Round r = 1; r <= kRounds; ++r) source.add_random_network_round(r, rng);
  std::vector<BlockPtr> stream;
  for (Round r = 1; r < kRounds; r += 2) {
    std::vector<BlockPtr> pair = source.dag().blocks_at(r);
    const std::vector<BlockPtr> next = source.dag().blocks_at(r + 1);
    pair.insert(pair.end(), next.begin(), next.end());
    std::shuffle(pair.begin(), pair.end(), rng);
    stream.insert(stream.end(), pair.begin(), pair.end());
  }

  std::unique_ptr<Dag> dag;
  std::unique_ptr<Synchronizer> sync;
  std::size_t next = stream.size();
  std::size_t inserted = 0;
  for (auto _ : state) {
    if (next + n > stream.size()) {
      state.PauseTiming();
      sync.reset();
      dag = std::make_unique<Dag>(source.committee());
      sync = std::make_unique<Synchronizer>(*dag, stream.size());
      next = 0;
      state.ResumeTiming();
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      inserted += sync->offer(stream[next++]).inserted.size();
    }
  }
  benchmark::DoNotOptimize(inserted);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.SetLabel("one round of blocks, round pairs shuffled");
}
BENCHMARK(BM_SynchronizerOfferRound)->Arg(10)->Arg(50);

void BM_CommitterDecideWave(benchmark::State& state) {
  // Cost of the full decision pipeline over a freshly completed wave.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DagBuilder builder(n);
  builder.build_fully_connected(40);
  for (auto _ : state) {
    Committer committer(builder.dag(), builder.committee(), mahi_mahi_5(2));
    benchmark::DoNotOptimize(committer.try_commit());
  }
  state.SetLabel("full decision pass over 40 rounds");
}
BENCHMARK(BM_CommitterDecideWave)->Arg(10)->Arg(50);

void BM_CommitterIncremental(benchmark::State& state) {
  // Steady-state incremental cost: one try_commit after one new round.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  DagBuilder builder(n);
  builder.build_fully_connected(30);
  Committer committer(builder.dag(), builder.committee(), mahi_mahi_5(2));
  committer.try_commit();
  Round next = 31;
  for (auto _ : state) {
    state.PauseTiming();
    builder.add_full_round(next++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(committer.try_commit());
  }
}
BENCHMARK(BM_CommitterIncremental)->Arg(10)->Arg(50);

void BM_CommitterPerArrival(benchmark::State& state) {
  // The runtime's and the simulator's traffic shape: one try_commit after
  // each block of a round, as blocks arrive one by one. One iteration is one
  // full round.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr Round kWarm = 30;
  constexpr Round kRounds = 130;
  DagBuilder source(n);
  source.build_fully_connected(kRounds);
  std::vector<std::vector<BlockPtr>> rounds(kRounds + 1);
  for (Round r = 1; r <= kRounds; ++r) rounds[r] = source.dag().blocks_at(r);

  std::unique_ptr<Dag> dag;
  std::unique_ptr<Committer> committer;
  Round next = kRounds + 1;
  for (auto _ : state) {
    if (next > kRounds) {
      state.PauseTiming();
      committer.reset();
      dag = std::make_unique<Dag>(source.committee());
      for (Round r = 1; r <= kWarm; ++r) {
        for (const BlockPtr& block : rounds[r]) dag->insert(block);
      }
      committer = std::make_unique<Committer>(*dag, source.committee(), mahi_mahi_5(2));
      committer->try_commit();
      next = kWarm + 1;
      state.ResumeTiming();
    }
    for (const BlockPtr& block : rounds[next]) {
      dag->insert(block);
      benchmark::DoNotOptimize(committer->try_commit());
    }
    ++next;
  }
  state.SetLabel("one round, try_commit per block");
}
BENCHMARK(BM_CommitterPerArrival)->Arg(10)->Arg(50);

void BM_IsLink(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(20);
  const Dag& dag = builder.dag();
  const BlockPtr top = dag.slot(20, 0).front();
  const BlockRef deep = dag.slot(1, 5).front()->ref();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag.is_link(deep, *top));
  }
}
BENCHMARK(BM_IsLink);

void BM_WalAppend(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(1);
  const BlockPtr block = builder.dag().slot(1, 0).front();
  const auto path = std::filesystem::temp_directory_path() / "mahi_bench.wal";
  std::filesystem::remove(path);
  {
    FileWal wal(path.string());
    for (auto _ : state) {
      wal.append_block(*block, false);
    }
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalAppend);

void BM_WalReplay(benchmark::State& state) {
  DagBuilder builder(10);
  builder.build_fully_connected(1);
  const BlockPtr block = builder.dag().slot(1, 0).front();
  const auto path = std::filesystem::temp_directory_path() / "mahi_bench_replay.wal";
  std::filesystem::remove(path);
  {
    FileWal wal(path.string());
    for (int i = 0; i < 1000; ++i) wal.append_block(*block, false);
  }
  for (auto _ : state) {
    int count = 0;
    FileWal::Visitor visitor;
    visitor.on_block = [&](BlockPtr, bool) { ++count; };
    benchmark::DoNotOptimize(FileWal::replay(path.string(), visitor, false));
    benchmark::DoNotOptimize(count);
  }
  state.SetLabel("1000-block log");
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalReplay);

}  // namespace

BENCHMARK_MAIN();
