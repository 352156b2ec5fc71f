// Google-benchmark microbenchmarks for the hot primitives: cache policies,
// Zipf sampling, SHA-256 (dispatched and portable), signatures and their
// header codec, nearest-replica queries, and the simulator's end-to-end
// request rate.
#include <benchmark/benchmark.h>

#include <array>
#include <random>

#include "cache/cache.hpp"
#include "core/experiment.hpp"
#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_internal.hpp"
#include "topology/pop_topology.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace idicn;

void BM_CacheInsertLookup(benchmark::State& state) {
  const auto kind = static_cast<cache::PolicyKind>(state.range(0));
  auto cache = cache::make_cache(kind, 1000, 1);
  std::mt19937_64 rng(3);
  std::vector<cache::ObjectId> evicted;
  for (auto _ : state) {
    const auto object = static_cast<cache::ObjectId>(rng() % 10000);
    if (!cache->lookup(object)) {
      evicted.clear();
      cache->insert(object, 1, evicted);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertLookup)
    ->Arg(static_cast<int>(cache::PolicyKind::Lru))
    ->Arg(static_cast<int>(cache::PolicyKind::Lfu))
    ->Arg(static_cast<int>(cache::PolicyKind::Fifo))
    ->Arg(static_cast<int>(cache::PolicyKind::Random));

void BM_ZipfSample(benchmark::State& state) {
  const workload::ZipfDistribution zipf(static_cast<std::uint32_t>(state.range(0)),
                                        1.0);
  std::mt19937_64 rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_Sha256(benchmark::State& state) {
  const std::string message(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(message));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(32 << 10)->Arg(65536)->Arg(1 << 20);

// The portable FIPS 180-4 compression (the tests' oracle) over the same
// whole blocks, whatever Sha256 dispatches to on this CPU.
void BM_Sha256Portable(benchmark::State& state) {
  const std::string message(static_cast<std::size_t>(state.range(0)), 'x');
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(message.data());
  for (auto _ : state) {
    std::array<std::uint32_t, 8> words{};
    crypto::detail::sha256_compress_portable(words.data(), bytes, message.size() / 64);
    benchmark::DoNotOptimize(words);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(1024)->Arg(32 << 10)->Arg(1 << 20);

void BM_MerkleSign(benchmark::State& state) {
  crypto::MerkleSigner signer(11, 12);  // 4096 signatures available
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign("message " + std::to_string(i++)));
    if (signer.remaining() == 0) state.SkipWithError("signer exhausted");
  }
}
BENCHMARK(BM_MerkleSign)->Iterations(256);

void BM_MerkleVerify(benchmark::State& state) {
  crypto::MerkleSigner signer(12, 4);
  const crypto::MerkleSignature signature = signer.sign("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::MerkleSigner::verify(signer.root(), "benchmark message", signature));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleVerify);

// The X-IdICN-Signature header codec: 22 022 base64url characters per
// height-4 signature (16 516 bytes: index, 256 revealed secrets, 256
// complement hashes, 4 path nodes).
void BM_MerkleSignatureEncode(benchmark::State& state) {
  crypto::MerkleSigner signer(13, 4);
  const crypto::MerkleSignature signature = signer.sign("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(signature.encode());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleSignatureEncode);

void BM_MerkleSignatureDecode(benchmark::State& state) {
  crypto::MerkleSigner signer(14, 4);
  const std::string header = signer.sign("benchmark message").encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleSignature::decode(header));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(header.size()));
}
BENCHMARK(BM_MerkleSignatureDecode);

void BM_SimulatorRequestRate(benchmark::State& state) {
  const topology::HierarchicalNetwork network(topology::make_topology("Sprint"),
                                              topology::AccessTreeShape(2, 5));
  core::SyntheticWorkloadSpec spec;
  spec.request_count = 50'000;
  spec.object_count = 5'000;
  spec.alpha = 1.0;
  spec.seed = 9;
  const core::BoundWorkload workload = core::bind_synthetic(network, spec);
  const core::OriginMap origins(network, spec.object_count,
                                core::OriginAssignment::PopulationProportional, 3);
  core::SimulationConfig config;
  const core::DesignSpec design =
      state.range(0) == 0 ? core::edge() : core::icn_nr();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_design(network, origins, design, config, workload));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.request_count));
}
BENCHMARK(BM_SimulatorRequestRate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
