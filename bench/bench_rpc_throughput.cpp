// RPC front-end throughput: a closed-loop multi-client load generator
// against a loopback RpcServer. Each client thread drives one TCP
// connection synchronously (send, wait for the response, send the next),
// so measured throughput is requests actually answered, not bytes fired
// into a socket buffer. Dimensions: client count (single-rating submits)
// and batch size (amortizing the envelope + round trip over many ratings).
// Sheds are retried by the client's backoff loop and the shed count is
// reported as a benchmark counter — at these queue sizes it should be 0.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rpc/client.h"
#include "rpc/server.h"
#include "service/service.h"
#include "util/rng.h"

namespace {

using namespace p2prep;

constexpr std::size_t kNodes = 2000;
constexpr std::size_t kEvents = 8 * 1024;

std::vector<rating::Rating> workload() {
  util::Rng rng(42);
  std::vector<rating::Rating> ratings;
  ratings.reserve(kEvents);
  for (std::size_t k = 0; k < kEvents; ++k) {
    auto rater = static_cast<rating::NodeId>(rng.next_below(kNodes));
    auto ratee = static_cast<rating::NodeId>(rng.next_below(kNodes));
    if (ratee == rater)
      ratee = static_cast<rating::NodeId>((ratee + 1) % kNodes);
    ratings.push_back({rater, ratee,
                       rng.chance(0.8) ? rating::Score::kPositive
                                       : rating::Score::kNegative,
                       static_cast<rating::Tick>(k)});
  }
  return ratings;
}

service::ServiceConfig service_config() {
  service::ServiceConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_shards = 4;
  cfg.queue_capacity = 8192;
  cfg.epoch_ratings = 4096;
  cfg.detector_config.positive_fraction_min = 0.8;
  cfg.detector_config.complement_fraction_max = 0.2;
  cfg.detector_config.frequency_min = 20;
  cfg.record_reports = false;
  return cfg;
}

rpc::RpcClientConfig client_config(std::uint16_t port) {
  rpc::RpcClientConfig cfg;
  cfg.port = port;
  cfg.backoff_initial_ms = 1;
  cfg.max_attempts = 64;
  return cfg;
}

// Arg 0: concurrent closed-loop clients, one rating per request.
void BM_RpcSubmitThroughput(benchmark::State& state) {
  const auto num_clients = static_cast<std::size_t>(state.range(0));
  const std::vector<rating::Rating> ratings = workload();

  service::ReputationService svc(service_config());
  rpc::RpcServer server(svc, rpc::RpcServerConfig{});
  std::atomic<std::uint64_t> sheds{0};

  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (std::size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        rpc::RpcClient client(client_config(server.port()));
        if (!client.connect()) std::abort();
        for (std::size_t i = c; i < ratings.size(); i += num_clients)
          if (client.submit_rating_with_retry(ratings[i]).status !=
              rpc::Status::kOk)
            std::abort();
        sheds.fetch_add(client.stats().sheds_seen);
      });
    }
    for (auto& t : clients) t.join();
  }
  svc.drain();

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
  state.counters["sheds"] =
      benchmark::Counter(static_cast<double>(sheds.load()));
  state.counters["applied"] =
      benchmark::Counter(static_cast<double>(svc.metrics().ratings_applied));
}
BENCHMARK(BM_RpcSubmitThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()  // the work happens on the client threads
    ->Unit(benchmark::kMillisecond);

// Arg 0: clients. Arg 1: ratings per SubmitBatch frame.
void BM_RpcBatchThroughput(benchmark::State& state) {
  const auto num_clients = static_cast<std::size_t>(state.range(0));
  const auto batch_size = static_cast<std::size_t>(state.range(1));
  const std::vector<rating::Rating> ratings = workload();

  service::ReputationService svc(service_config());
  rpc::RpcServer server(svc, rpc::RpcServerConfig{});

  // Contiguous per-client slices (submit_batch takes a span).
  const std::size_t slice = ratings.size() / num_clients;

  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    for (std::size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        rpc::RpcClient client(client_config(server.port()));
        if (!client.connect()) std::abort();
        const std::span<const rating::Rating> span(ratings.data() + c * slice,
                                                   slice);
        if (!client.submit_batch(span, batch_size).complete) std::abort();
      });
    }
    for (auto& t : clients) t.join();
  }
  svc.drain();

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slice * num_clients));
  state.counters["applied"] =
      benchmark::Counter(static_cast<double>(svc.metrics().ratings_applied));
}
BENCHMARK(BM_RpcBatchThroughput)
    ->Args({4, 16})
    ->Args({4, 64})
    ->Args({4, 256})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
