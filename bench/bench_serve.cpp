// Characterization-daemon benchmark: request throughput and latency for
// concurrent clients against an in-process server on a Unix socket.
//
// Three passes over the same brick-shape pool, mirroring bench_dse's
// cache story but through the wire:
//  A. Cold — memory cache cleared, empty disk store attached: every
//     distinct shape pays a compile, and the store gets populated.
//  B. Warm disk — memory cache cleared again but the store kept (a
//     daemon restart against yesterday's --cache-dir): shapes come back
//     by deserialization, not compilation.
//  C. Warm memory — nothing cleared: steady-state daemon serving from
//     the in-memory tier, the fastest the socket + codec path can go.
// Each pass reports requests/sec and p50/p99 latency over all clients.
//
// A fourth phase probes overload: more concurrent sleep-op clients than
// workers + queue can hold. Every request must end classified — an ok
// reply or an explicit retry_after_ms shed — and shed refusals must be
// fast (that is the point of shedding).
//
// A fifth phase measures a well-behaved client's p99 with and without a
// flooding greedy co-tenant sharing the one FIFO request queue (the
// polite client must never be shed: connection capacity 18 holds the 8
// greedy connections plus it). A sixth measures batching: the same ping
// items one-per-frame vs. batched, reporting the dispatch amortization
// factor.
//
// Writes BENCH_serve.json. With --check, exits nonzero when any request
// goes unclassified, the warm-disk pass never touches the store, the
// overload probe produces no shedding, the server leaks connections, the
// well-behaved client is shed or fails under greedy overload, or
// batching amortizes dispatch by less than 2x.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "brick/cache.hpp"
#include "brick/store.hpp"
#include "serve/client.hpp"
#include "serve/codec.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "tech/process.hpp"
#include "tech/stdcell.hpp"
#include "util/args.hpp"
#include "util/fs.hpp"
#include "util/jsonl.hpp"

using namespace limsynth;
using namespace limsynth::serve;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

/// The shape pool: distinct bricks so the cold pass really compiles and
/// the store really fills. Clients cycle through it round-robin.
std::vector<std::string> make_requests() {
  std::vector<std::string> reqs;
  int id = 0;
  for (int words : {64, 128, 256, 512}) {
    for (int bits : {8, 16}) {
      for (int stack : {1, 2}) {
        JsonWriter w;
        w.add("op", std::string("characterize"));
        w.add("id", "q" + std::to_string(id++));
        w.add("words", words).add("bits", bits).add("stack", stack);
        reqs.push_back(w.str());
      }
    }
  }
  return reqs;
}

struct PassResult {
  double seconds = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  ///< transport or typed-error outcomes
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// N clients, each issuing `per_client` pooled requests back-to-back on
/// one connection. Latencies are per-request wall clock, merged.
PassResult run_pass(const Endpoint& ep, int clients, int per_client,
                    const std::vector<std::string>& pool) {
  PassResult res;
  std::mutex mu;
  std::vector<double> latencies_ms;
  std::atomic<std::uint64_t> ok{0}, failed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(Transport::real(), ep, 5000);
      if (!client.connected()) {
        failed += static_cast<std::uint64_t>(per_client);
        return;
      }
      std::vector<double> local;
      local.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const std::string& req =
            pool[static_cast<std::size_t>(c + i) % pool.size()];
        const auto r0 = std::chrono::steady_clock::now();
        const CallResult r = client.call(req, 30000);
        local.push_back(seconds_since(r0) * 1000.0);
        if (r.transport_ok && r.reply_parsed && r.fields.ok)
          ++ok;
        else
          ++failed;
      }
      client.close();
      std::lock_guard<std::mutex> lk(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  res.seconds = seconds_since(t0);
  res.ok = ok.load();
  res.failed = failed.load();
  res.rps = res.seconds > 0.0
                ? static_cast<double>(res.ok + res.failed) / res.seconds
                : 0.0;
  res.p50_ms = percentile(latencies_ms, 0.50);
  res.p99_ms = percentile(latencies_ms, 0.99);
  return res;
}

void print_pass(const char* name, const PassResult& r) {
  std::printf("%s: %.0f req/s (%llu ok, %llu failed) p50 %.3fms p99 %.3fms\n",
              name, r.rps, static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.failed), r.p50_ms, r.p99_ms);
}

}  // namespace

int main(int argc, char** argv) {
  const bool check =
      args::parse_or_exit({"bench_serve", {{"--check"}}}, argc, argv)
          .has("--check");
  const int kClients = 4;
  const int kPerClient = 50;

  const tech::Process process = tech::default_process();
  const tech::StdCellLib cells(process);

  Endpoint ep;
  ep.socket_path = "bench_serve.sock";
  std::string listen_error;
  std::unique_ptr<Listener> listener =
      Transport::real().listen(ep, &listen_error);
  if (!listener) {
    std::fprintf(stderr, "listen failed: %s\n", listen_error.c_str());
    return 1;
  }

  std::atomic<bool> shutdown{false};
  HandlerContext ctx;
  ctx.process = &process;
  ctx.cells = &cells;
  ServeOptions opt;
  opt.workers = kClients;
  opt.queue_depth = 2 * kClients;
  opt.shutdown = &shutdown;
  Server server(*listener, ctx, opt);
  std::thread server_thread([&] { server.run(); });

  const std::vector<std::string> pool = make_requests();

  // --- Pass A: cold (empty memory cache + empty disk store) -----------
  brick::BrickCache& cache = brick::BrickCache::global();
  const std::string store_dir = "bench_serve_store";
  fs::remove_tree(fs::Fs::real(), store_dir);
  brick::StoreOptions store_opt;
  store_opt.dir = store_dir;
  cache.attach_store(std::make_shared<brick::BrickStore>(store_opt));
  cache.clear();
  const PassResult cold = run_pass(ep, kClients, kPerClient, pool);
  const std::uint64_t store_entries = cache.store()->stats().saves;

  // --- Pass B: daemon restart against a warm disk store ---------------
  // clear() drops the memory tier but keeps the attached store.
  cache.clear();
  const std::uint64_t disk_hits_before = cache.disk_hits();
  const PassResult warm_disk = run_pass(ep, kClients, kPerClient, pool);
  const std::uint64_t disk_hits = cache.disk_hits() - disk_hits_before;

  // --- Pass C: steady state, everything in memory ----------------------
  const PassResult warm = run_pass(ep, kClients, kPerClient, pool);

  // --- Phase D: overload probe -----------------------------------------
  // Restart the server tight (1 worker, queue of 1) and hit it with 2x
  // capacity in sleep ops: the overflow must shed fast.
  shutdown.store(true);
  server_thread.join();
  const ServeStats tput_stats = server.stats();

  Endpoint ep2;
  ep2.socket_path = "bench_serve_overload.sock";
  std::unique_ptr<Listener> listener2 =
      Transport::real().listen(ep2, &listen_error);
  if (!listener2) {
    std::fprintf(stderr, "listen failed: %s\n", listen_error.c_str());
    return 1;
  }
  std::atomic<bool> shutdown2{false};
  ServeOptions tight;
  tight.workers = 1;
  tight.queue_depth = 1;
  tight.shutdown = &shutdown2;
  Server overload_server(*listener2, ctx, tight);
  std::thread overload_thread([&] { overload_server.run(); });

  const int kOverloadClients = 6;  // capacity is 2 (1 worker + 1 queued)
  std::atomic<std::uint64_t> probe_ok{0}, probe_shed{0}, probe_other{0};
  std::mutex shed_mu;
  std::vector<double> shed_latency_ms;
  {
    std::vector<std::thread> threads;
    threads.reserve(kOverloadClients);
    for (int c = 0; c < kOverloadClients; ++c) {
      threads.emplace_back([&, c] {
        Client client(Transport::real(), ep2, 5000);
        if (!client.connected()) {
          ++probe_other;
          return;
        }
        JsonWriter w;
        w.add("op", std::string("sleep"));
        w.add("id", "o" + std::to_string(c));
        w.add("sleep_ms", 300.0);
        const auto r0 = std::chrono::steady_clock::now();
        const CallResult r = client.call(w.str(), 30000);
        const double ms = seconds_since(r0) * 1000.0;
        if (r.transport_ok && r.reply_parsed && r.fields.ok) {
          ++probe_ok;
        } else if (r.transport_ok && r.fields.retry_after_ms >= 0.0) {
          ++probe_shed;
          std::lock_guard<std::mutex> lk(shed_mu);
          shed_latency_ms.push_back(ms);
        } else {
          ++probe_other;
        }
        client.close();
      });
    }
    for (auto& t : threads) t.join();
  }
  shutdown2.store(true);
  overload_thread.join();
  const ServeStats overload_stats = overload_server.stats();
  const double shed_p99 = percentile(shed_latency_ms, 0.99);

  // --- Phase E: a greedy co-tenant ------------------------------------
  // A well-behaved client's p99 with and without a flooding neighbor.
  // Window-of-1 sessions bound the FIFO at one request per greedy
  // connection, so the polite client is never shed and waits behind at
  // most that backlog.
  Endpoint ep3;
  ep3.socket_path = "bench_serve_fair.sock";
  std::unique_ptr<Listener> listener3 =
      Transport::real().listen(ep3, &listen_error);
  if (!listener3) {
    std::fprintf(stderr, "listen failed: %s\n", listen_error.c_str());
    return 1;
  }
  std::atomic<bool> shutdown3{false};
  ServeOptions fair_opt;
  fair_opt.workers = 2;
  fair_opt.queue_depth = 16;
  fair_opt.shutdown = &shutdown3;
  Server fair_server(*listener3, ctx, fair_opt);
  std::thread fair_thread([&] { fair_server.run(); });

  const int kPoliteCalls = 30;
  const double kFairSleepMs = 10.0;
  std::atomic<std::uint64_t> polite_shed{0}, polite_failed{0};
  const auto polite_round = [&](Client& polite) {
    std::vector<double> ms;
    ms.reserve(kPoliteCalls);
    JsonWriter w;
    w.add("op", std::string("sleep")).add("id", std::string("polite"));
    w.add("sleep_ms", kFairSleepMs);
    const std::string req = w.str();
    for (int i = 0; i < kPoliteCalls; ++i) {
      const auto r0 = std::chrono::steady_clock::now();
      const CallResult r = polite.call(req, 30000);
      ms.push_back(seconds_since(r0) * 1000.0);
      if (r.transport_ok && r.reply_parsed && r.fields.ok) continue;
      if (r.transport_ok && r.fields.retry_after_ms >= 0.0)
        ++polite_shed;
      else
        ++polite_failed;
    }
    return percentile(ms, 0.99);
  };

  Client polite_client(Transport::real(), ep3, 5000);
  const double fair_unloaded_p99 = polite_round(polite_client);

  std::atomic<bool> stop_flood{false};
  std::atomic<std::uint64_t> greedy_served{0};
  std::vector<std::thread> flood;
  const int kGreedyConns = 8;
  flood.reserve(kGreedyConns);
  for (int c = 0; c < kGreedyConns; ++c) {
    flood.emplace_back([&, c] {
      Client g(Transport::real(), ep3, 5000);
      if (!g.connected()) return;
      JsonWriter w;
      w.add("op", std::string("sleep")).add("id", "g" + std::to_string(c));
      w.add("sleep_ms", kFairSleepMs);
      const std::string req = w.str();
      while (!stop_flood.load()) {
        const CallResult r = g.call(req, 30000);
        if (!r.transport_ok) break;
        if (r.fields.ok) ++greedy_served;
      }
      g.close();
    });
  }
  while (greedy_served.load() < 8)  // let the backlog build
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double fair_loaded_p99 = polite_round(polite_client);
  stop_flood.store(true);
  for (auto& t : flood) t.join();
  polite_client.close();

  // --- Phase F: batch amortization -------------------------------------
  // The same items one-per-frame vs. batched: one frame, one queue trip,
  // and one watchdog for the whole batch must amortize dispatch.
  const int kBatchTotal = 400;
  const int kBatchSize = 50;
  double single_items_per_s = 0.0, batch_items_per_s = 0.0;
  std::uint64_t batch_failed_items = 0;
  {
    Client c(Transport::real(), ep3, 5000);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ok_items = 0;
    for (int i = 0; i < kBatchTotal; ++i) {
      JsonWriter w;
      w.add("op", std::string("ping")).add("id", "s" + std::to_string(i));
      const CallResult r = c.call(w.str(), 30000);
      if (r.transport_ok && r.fields.ok) ++ok_items;
    }
    const double secs = seconds_since(t0);
    single_items_per_s =
        secs > 0.0 ? static_cast<double>(ok_items) / secs : 0.0;
    batch_failed_items += static_cast<std::uint64_t>(kBatchTotal) - ok_items;

    const auto t1 = std::chrono::steady_clock::now();
    ok_items = 0;
    for (int frame = 0; frame < kBatchTotal / kBatchSize; ++frame) {
      std::string items;
      for (int i = 0; i < kBatchSize; ++i) {
        JsonWriter w;
        w.add("op", std::string("ping"));
        w.add("id", "b" + std::to_string(frame) + "_" + std::to_string(i));
        if (!items.empty()) items += '\n';
        items += w.str();
      }
      JsonWriter w;
      w.add("op", std::string("batch"));
      w.add("id", "batch" + std::to_string(frame));
      w.add("items", items);
      const CallResult r = c.call(w.str(), 30000);
      double count = 0.0, failed_in_frame = 0.0;
      if (r.transport_ok && r.fields.ok &&
          reply_number(r.payload, "count", &count) &&
          reply_number(r.payload, "failed", &failed_in_frame)) {
        ok_items +=
            static_cast<std::uint64_t>(count) -
            static_cast<std::uint64_t>(failed_in_frame);
        batch_failed_items += static_cast<std::uint64_t>(failed_in_frame);
      } else {
        batch_failed_items += static_cast<std::uint64_t>(kBatchSize);
      }
    }
    const double secs2 = seconds_since(t1);
    batch_items_per_s =
        secs2 > 0.0 ? static_cast<double>(ok_items) / secs2 : 0.0;
    c.close();
  }
  const double batch_amortization =
      single_items_per_s > 0.0 ? batch_items_per_s / single_items_per_s : 0.0;

  shutdown3.store(true);
  fair_thread.join();
  const ServeStats fair_stats = fair_server.stats();
  const bool fair_balanced =
      fair_stats.accepted == fair_stats.shed + fair_stats.closed;

  cache.attach_store(nullptr);
  cache.clear();
  fs::remove_tree(fs::Fs::real(), store_dir);

  const bool tput_balanced =
      tput_stats.accepted == tput_stats.shed + tput_stats.closed;
  const bool overload_balanced =
      overload_stats.accepted ==
      overload_stats.shed + overload_stats.closed;

  using jsonl::format_g17;
  std::ofstream json("BENCH_serve.json");
  json << "{\n"
       << "  \"clients\": " << kClients << ",\n"
       << "  \"requests_per_client\": " << kPerClient << ",\n"
       << "  \"shape_pool\": " << pool.size() << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"cold_rps\": " << format_g17(cold.rps) << ",\n"
       << "  \"cold_p50_ms\": " << format_g17(cold.p50_ms) << ",\n"
       << "  \"cold_p99_ms\": " << format_g17(cold.p99_ms) << ",\n"
       << "  \"store_entries\": " << store_entries << ",\n"
       << "  \"warm_disk_rps\": " << format_g17(warm_disk.rps) << ",\n"
       << "  \"warm_disk_p50_ms\": " << format_g17(warm_disk.p50_ms) << ",\n"
       << "  \"warm_disk_p99_ms\": " << format_g17(warm_disk.p99_ms) << ",\n"
       << "  \"warm_disk_hits\": " << disk_hits << ",\n"
       << "  \"warm_rps\": " << format_g17(warm.rps) << ",\n"
       << "  \"warm_p50_ms\": " << format_g17(warm.p50_ms) << ",\n"
       << "  \"warm_p99_ms\": " << format_g17(warm.p99_ms) << ",\n"
       << "  \"requests_ok\": " << (cold.ok + warm_disk.ok + warm.ok) << ",\n"
       << "  \"requests_failed\": "
       << (cold.failed + warm_disk.failed + warm.failed) << ",\n"
       << "  \"overload_clients\": " << kOverloadClients << ",\n"
       << "  \"overload_ok\": " << probe_ok.load() << ",\n"
       << "  \"overload_shed\": " << probe_shed.load() << ",\n"
       << "  \"overload_unclassified\": " << probe_other.load() << ",\n"
       << "  \"shed_p99_ms\": " << format_g17(shed_p99) << ",\n"
       << "  \"fair_unloaded_p99_ms\": " << format_g17(fair_unloaded_p99)
       << ",\n"
       << "  \"fair_loaded_p99_ms\": " << format_g17(fair_loaded_p99) << ",\n"
       << "  \"fair_polite_shed\": " << polite_shed.load() << ",\n"
       << "  \"fair_greedy_served\": " << greedy_served.load() << ",\n"
       << "  \"single_items_per_s\": " << format_g17(single_items_per_s)
       << ",\n"
       << "  \"batch_items_per_s\": " << format_g17(batch_items_per_s) << ",\n"
       << "  \"batch_amortization\": " << format_g17(batch_amortization)
       << ",\n"
       << "  \"connections_balanced\": "
       << ((tput_balanced && overload_balanced && fair_balanced) ? "true"
                                                                 : "false")
       << "\n"
       << "}\n";
  json.close();

  std::printf("serve bench: %d clients x %d requests, %zu shapes, %u hw"
              " threads\n",
              kClients, kPerClient, pool.size(),
              std::thread::hardware_concurrency());
  print_pass("cold (compile + store fill)", cold);
  print_pass("warm disk (daemon restart) ", warm_disk);
  print_pass("warm memory (steady state) ", warm);
  std::printf("store: %llu entries written, %llu warm-disk loads\n",
              static_cast<unsigned long long>(store_entries),
              static_cast<unsigned long long>(disk_hits));
  std::printf("overload: %llu ok, %llu shed (p99 refusal %.3fms),"
              " %llu unclassified; books %s\n",
              static_cast<unsigned long long>(probe_ok.load()),
              static_cast<unsigned long long>(probe_shed.load()), shed_p99,
              static_cast<unsigned long long>(probe_other.load()),
              (tput_balanced && overload_balanced) ? "balanced" : "LEAKED");
  std::printf("co-tenant: polite p99 %.3fms unloaded, %.3fms under %d greedy"
              " conns (%llu greedy served, %llu polite shed, books %s)\n",
              fair_unloaded_p99, fair_loaded_p99, kGreedyConns,
              static_cast<unsigned long long>(greedy_served.load()),
              static_cast<unsigned long long>(polite_shed.load()),
              fair_balanced ? "balanced" : "LEAKED");
  std::printf("batching: %.0f items/s single-frame, %.0f items/s in batches"
              " of %d (%.2fx amortization)\n",
              single_items_per_s, batch_items_per_s, kBatchSize,
              batch_amortization);

  if (check) {
    bool ok = true;
    const std::uint64_t failures = cold.failed + warm_disk.failed + warm.failed;
    if (failures != 0) {
      std::fprintf(stderr, "FAIL: %llu throughput requests failed\n",
                   static_cast<unsigned long long>(failures));
      ok = false;
    }
    if (store_entries == 0) {
      std::fprintf(stderr, "FAIL: cold pass wrote zero store entries\n");
      ok = false;
    }
    if (disk_hits == 0) {
      std::fprintf(stderr, "FAIL: warm-disk pass never touched the store\n");
      ok = false;
    }
    if (probe_other.load() != 0) {
      std::fprintf(stderr, "FAIL: %llu overload requests unclassified\n",
                   static_cast<unsigned long long>(probe_other.load()));
      ok = false;
    }
    if (probe_shed.load() == 0) {
      std::fprintf(stderr, "FAIL: 2x overload produced no shedding\n");
      ok = false;
    }
    if (!tput_balanced || !overload_balanced) {
      std::fprintf(stderr, "FAIL: server leaked connections\n");
      ok = false;
    }
    if (warm.rps <= 0.0) {
      std::fprintf(stderr, "FAIL: warm pass throughput is zero\n");
      ok = false;
    }
    if (polite_shed.load() != 0 || polite_failed.load() != 0) {
      std::fprintf(
          stderr,
          "FAIL: well-behaved client shed/failed under greedy overload"
          " (%llu shed, %llu failed)\n",
          static_cast<unsigned long long>(polite_shed.load()),
          static_cast<unsigned long long>(polite_failed.load()));
      ok = false;
    }
    if (!fair_balanced) {
      std::fprintf(stderr, "FAIL: co-tenant phase books not balanced\n");
      ok = false;
    }
    if (batch_failed_items != 0) {
      std::fprintf(stderr, "FAIL: %llu batching-phase items failed\n",
                   static_cast<unsigned long long>(batch_failed_items));
      ok = false;
    }
    if (batch_amortization < 2.0) {
      std::fprintf(stderr,
                   "FAIL: batching amortized dispatch only %.2fx (< 2x)\n",
                   batch_amortization);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("check: OK\n");
  }
  return 0;
}
