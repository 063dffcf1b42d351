// Microbenchmarks for the server aggregation path (Sec. 6.3): parallel model
// aggregation throughput vs worker count, update (de)serialization, FedAdam
// server steps, and local-training cost per client.

#include <benchmark/benchmark.h>

#include "fl/client_runtime.hpp"
#include "fl/model_update.hpp"
#include "fl/parallel_agg.hpp"
#include "fl/sharded_agg.hpp"
#include "ml/dataset.hpp"
#include "ml/optimizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace papaya;

util::Bytes serialized_update(std::size_t model_size) {
  fl::ModelUpdate u;
  u.client_id = 1;
  u.num_examples = 20;
  u.delta.assign(model_size, 0.01f);
  return u.serialize();
}

void BM_UpdateSerialize(benchmark::State& state) {
  fl::ModelUpdate u;
  u.delta.assign(static_cast<std::size_t>(state.range(0)), 0.01f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.serialize());
  }
}
BENCHMARK(BM_UpdateSerialize)->Arg(1024)->Arg(65536);

void BM_UpdateDeserialize(benchmark::State& state) {
  const util::Bytes bytes =
      serialized_update(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::ModelUpdate::deserialize(bytes));
  }
}
BENCHMARK(BM_UpdateDeserialize)->Arg(1024)->Arg(65536);

/// Parallel aggregation throughput: 512 updates of a 64k-param model, with
/// 1/2/4/8 worker threads (Sec. 6.3's hashed-intermediate design).
void BM_ParallelAggregation(benchmark::State& state) {
  const std::size_t model_size = 65536;
  const auto threads = static_cast<std::size_t>(state.range(0));
  const util::Bytes update = serialized_update(model_size);
  for (auto _ : state) {
    fl::ParallelAggregator agg(model_size, threads);
    for (int i = 0; i < 512; ++i) agg.enqueue(update, 1.0);
    benchmark::DoNotOptimize(agg.reduce_and_reset());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ParallelAggregation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Sharded aggregation scaling: the same 512-update workload, with client
/// update streams consistent-hashed across 1/2/4/8 single-worker shards.
/// Each shard owns its own queue + pool + intermediates, so throughput
/// scales with the shard count instead of saturating one reduce loop.
void sharded_aggregation(benchmark::State& state, std::size_t shards,
                         std::size_t model_size, std::size_t num_updates) {
  const util::Bytes update = serialized_update(model_size);
  for (auto _ : state) {
    fl::ShardedAggregator::Config cfg;
    cfg.model_size = model_size;
    cfg.num_shards = shards;
    cfg.threads_per_shard = 1;
    fl::ShardedAggregator agg(cfg);
    for (std::uint64_t i = 0; i < num_updates; ++i) {
      agg.enqueue(/*stream_key=*/i, update, 1.0);
    }
    benchmark::DoNotOptimize(agg.reduce_and_reset());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(num_updates));
}

void BM_ShardedAggregation(benchmark::State& state) {
  sharded_aggregation(state, static_cast<std::size_t>(state.range(0)),
                      /*model_size=*/65536, /*num_updates=*/512);
}
BENCHMARK(BM_ShardedAggregation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Skewed update sizes: many small updates and few large ones (per-update
/// overhead vs fold bandwidth).  Arg: 0 small / 1 large.
void BM_AggregationSkew(benchmark::State& state) {
  const bool large = state.range(0) != 0;
  sharded_aggregation(state, /*shards=*/2, /*model_size=*/large ? 65536 : 256,
                      /*num_updates=*/large ? 24 : 192);
}
BENCHMARK(BM_AggregationSkew)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_FedAdamStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ml::FedAdam opt(n, {});
  std::vector<float> params(n, 0.0f), delta(n, 0.01f);
  for (auto _ : state) {
    opt.step(params, delta);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FedAdamStep)->Arg(65536)->Unit(benchmark::kMicrosecond);

/// One client participation's local-training cost (MLP vs LSTM).
template <typename Factory>
void local_training(benchmark::State& state, Factory factory) {
  ml::LmConfig mcfg;
  mcfg.vocab_size = 64;
  mcfg.embed_dim = 12;
  mcfg.hidden_dim = 24;
  mcfg.context = 2;
  util::Rng rng(1);
  auto model = factory(mcfg, rng);
  const std::vector<float> global(model->params().begin(),
                                  model->params().end());
  ml::CorpusConfig ccfg;
  ml::FederatedCorpus corpus(ccfg, 2);
  fl::ExampleStore store(corpus.client_dataset(0, 24), 1000);
  fl::TrainerConfig tcfg;
  tcfg.compute_losses = false;
  const fl::Executor executor(model->clone(), tcfg);
  util::Rng train_rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.train(global, 0, 1, store, train_rng));
  }
}
void BM_LocalTrainingMlp(benchmark::State& state) {
  local_training(state, ml::make_mlp_lm);
}
void BM_LocalTrainingLstm(benchmark::State& state) {
  local_training(state, ml::make_lstm_lm);
}
BENCHMARK(BM_LocalTrainingMlp)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LocalTrainingLstm)->Unit(benchmark::kMillisecond);

}  // namespace
