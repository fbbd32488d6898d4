// hpacd_mix: a real hpacd (--threads=1) on a Unix socket, serving a fresh
// copy of the campaign_fleet CSV, under a closed loop of three clients:
// clients 1 and 2 issue seeded memoized queries (a seeded share spelled
// non-canonically), client 3 issues distinct cold tuples at a Table 2
// items-per-thread outside {8, 64}. The memo class is service, protocol,
// store snapshot and pragma canonicalization with no executor; the cold
// class runs the evaluation core one tuple at a time.

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "apps/registry.hpp"
#include "common/rng.hpp"
#include "harness/campaign.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"
#include "harness/result_store.hpp"
#include "harness/tuning_service.hpp"
#include "pragma/parser.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "sim/device.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

using namespace hpac;
namespace fs = std::filesystem;

constexpr std::size_t kColdPool = 256;      ///< fixed pool with reference digests
constexpr std::size_t kColdPerRepeat = 120;  ///< >= 100 cold samples per daemon
const char* const kBenchmarks[] = {"minife", "binomial_options", "blackscholes", "leukocyte"};
const char* const kDevices[] = {"v100", "mi250x"};

/// The cold-tuple pool: store tuples at a Table 2 items-per-thread outside
/// {8, 64}. A fixed draw, independent of the workload seed, so each entry
/// has a reference digest; the seed picks which entries a run asks for.
std::vector<harness::TuningQuery> cold_pool() {
  std::vector<harness::TuningQuery> all;
  for (const char* bench : kBenchmarks) {
    for (const char* device_name : kDevices) {
      const sim::DeviceConfig device = sim::device_by_name(device_name);
      std::vector<pragma::ApproxSpec> specs =
          harness::curated_taf_specs(harness::table2::hierarchies());
      for (auto& s : harness::curated_iact_specs(device.warp_size,
                                                 harness::table2::hierarchies())) {
        specs.push_back(std::move(s));
      }
      for (auto& s : harness::curated_perfo_specs()) specs.push_back(std::move(s));
      for (const auto& spec : specs) {
        for (const std::uint64_t ipt : harness::table2::items_per_thread()) {
          if (ipt == 8 || ipt == 64) continue;
          all.push_back({bench, device_name, spec.to_string(), ipt, 0});
        }
      }
    }
  }
  Xoshiro256 rng(0xc01d);
  for (std::size_t i = 0; i < kColdPool; ++i) {
    std::swap(all[i], all[i + rng.uniform_index(all.size() - i)]);
  }
  all.resize(kColdPool);
  return all;
}

/// A non-canonical spelling of `canonical`: the `#pragma approx` prefix
/// plus an `f` suffix on the clause's last number, kept only when it
/// canonicalizes back to the same text.
std::string respell(const std::string& canonical) {
  std::string text = canonical;
  const std::size_t close = text.find(')');
  if (close != std::string::npos && close > 0 &&
      std::isdigit(static_cast<unsigned char>(text[close - 1]))) {
    text.insert(close, "f");
  }
  for (const std::string& candidate :
       {"#pragma approx " + text, "#pragma approx " + canonical}) {
    try {
      if (pragma::parse_approx(candidate).to_string() == canonical) return candidate;
    } catch (const Error&) {
    }
  }
  return canonical;
}

/// The memo stream's source: every store row, its canonical key and a
/// non-canonical spelling.
struct MemoSource {
  std::vector<harness::RunRecord> records;
  std::vector<std::string> respelled;
  double respelled_share = 0;  ///< seeded share of queries sent respelled

  harness::TuningQuery query(Xoshiro256& rng, std::size_t& row) const {
    row = rng.uniform_index(records.size());
    const harness::RunRecord& record = records[row];
    const bool respell_it = rng.uniform() < respelled_share;
    return {record.benchmark, record.device, respell_it ? respelled[row] : record.spec_text,
            record.items_per_thread, 0};
  }
};

service::TuningClient::Options client_options() {
  service::TuningClient::Options options;
  options.request_timeout_ms = 60000;
  options.max_retries = 0;  // a transport error is a failed operation
  return options;
}

/// One daemon with its three client connections.
struct Daemon {
  int pid = -1;
  std::string socket;
  std::vector<std::unique_ptr<service::TuningClient>> clients;

  void stop() {
    if (pid <= 0) return;
    bool asked = false;
    try {
      if (!clients.empty()) {
        clients.back()->shutdown_server();
        asked = true;
      }
    } catch (const std::exception&) {
    }
    if (!asked) ::kill(pid, SIGKILL);
    clients.clear();
    wait_ok(pid);
    pid = -1;
  }
  ~Daemon() { stop(); }
};

/// Set-up of one daemon: a fresh copy of the store, the daemon process,
/// three connections and the 8 (benchmark, device) baselines warmed.
std::unique_ptr<Daemon> start_daemon(Context& ctx, const std::string& dir,
                                     const std::string& csv) {
  auto daemon = std::make_unique<Daemon>();
  fs::create_directories(dir);
  const std::string store = dir + "/store.csv";
  fs::copy_file(csv, store, fs::copy_options::overwrite_existing);
  daemon->socket = fs::relative(dir + "/hpacd.sock").string();
  daemon->pid = spawn({ctx.hpacd_path, "--socket=" + daemon->socket, "--store=" + store,
                       "--threads=1"},
                      dir + "/hpacd.log");
  const auto start = Clock::now();
  while (daemon->clients.size() < 3) {
    try {
      daemon->clients.push_back(
          std::make_unique<service::TuningClient>(daemon->socket, client_options()));
    } catch (const Error&) {
      if (since(start) > 30) throw;
      ::usleep(2000);
    }
  }
  for (const char* bench : kBenchmarks) {
    for (const char* device : kDevices) {
      const harness::TuningAnswer answer =
          daemon->clients.back()->query({bench, device, "perfo(small:2)", 4, 0});
      ctx.checks.op(answer.status == harness::TuningStatus::kOk,
                    std::string("warm-up query failed: ") + answer.error);
    }
  }
  return daemon;
}

struct MemoClientResult {
  std::vector<double> mixed_s, alone_s;
  std::uint64_t ok = 0, bad = 0;
  std::string first_bad;
};

void memo_client(service::TuningClient& client, const MemoSource& source, std::uint64_t seed,
                 const std::atomic<bool>& cold_done, const std::atomic<bool>& stop,
                 MemoClientResult& result) {
  Xoshiro256 rng(seed);
  std::uint64_t request = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    std::size_t row = 0;
    const harness::TuningQuery query = source.query(rng, row);
    const bool alone = cold_done.load(std::memory_order_relaxed);
    bool good = false;
    const auto start = Clock::now();
    try {
      Span span("service.client.query", "service", (seed << 24) + ++request);
      const harness::TuningAnswer answer = client.query(query);
      good = answer.status == harness::TuningStatus::kOk && answer.memoized &&
             same_record(answer.record, source.records[row]);
    } catch (const std::exception& e) {
      if (result.first_bad.empty()) result.first_bad = e.what();
    }
    (alone ? result.alone_s : result.mixed_s).push_back(since(start));
    if (good) {
      ++result.ok;
    } else {
      ++result.bad;
      if (result.first_bad.empty()) result.first_bad = "memo answer differs: " + query.spec_text;
    }
  }
}

}  // namespace

E2e run_hpacd_mix(Context& ctx, bool traced) {
  E2e out;
  const std::string csv = campaign_csv(ctx);
  const std::vector<harness::TuningQuery> pool = cold_pool();

  MemoSource source;
  source.records = harness::ResultDb::load(csv).records();
  for (const auto& record : source.records) source.respelled.push_back(respell(record.spec_text));
  Xoshiro256 seed_rng(ctx.seed ^ 0x4d3du);
  source.respelled_share = 0.2 + 0.3 * seed_rng.uniform();

  std::vector<double> memo_alone_s;
  std::vector<double> mixed_walls, mixed_qps;
  harness::TuningService::Stats last_stats;
  std::vector<std::size_t> last_cold;
  const auto run_start = Clock::now();
  for (std::size_t repeat = 0;; ++repeat) {
    const auto repeat_start = Clock::now();
    std::unique_ptr<Daemon> daemon =
        start_daemon(ctx, ctx.work_dir + "/hpacd/r" + std::to_string(repeat), csv);
    out.setup_s.push_back(since(repeat_start));

    // The seeded cold set of this daemon: distinct pool entries.
    std::vector<std::size_t> cold(kColdPool);
    for (std::size_t i = 0; i < kColdPool; ++i) cold[i] = i;
    Xoshiro256 cold_rng(ctx.seed * 1000003u + repeat);
    for (std::size_t i = kColdPool; i > 1; --i) {
      std::swap(cold[i - 1], cold[cold_rng.uniform_index(i)]);
    }
    cold.resize(ctx.capture ? kColdPool : kColdPerRepeat);

    std::atomic<bool> cold_done{false}, stop{false};
    MemoClientResult memo[2];
    std::vector<std::pair<std::size_t, std::string>> cold_digests;
    std::uint64_t cold_bad = 0;
    const auto phase_start = Clock::now();
    std::thread memo_threads[2];
    for (int c = 0; c < 2; ++c) {
      memo_threads[c] =
          std::thread(memo_client, std::ref(*daemon->clients[c]), std::cref(source),
                      ctx.seed * 4 + repeat * 16 + c + 1, std::cref(cold_done), std::cref(stop),
                      std::ref(memo[c]));
    }
    for (const std::size_t index : cold) {
      const auto start = Clock::now();
      try {
        Span span("service.client.query", "service", (1ull << 62) + index);
        const harness::TuningAnswer answer = daemon->clients[2]->query(pool[index]);
        if (answer.status == harness::TuningStatus::kOk && !answer.memoized) {
          cold_digests.emplace_back(index, digest(row_text(answer.record)));
        } else {
          ++cold_bad;
        }
      } catch (const std::exception&) {
        ++cold_bad;
      }
      out.cold_latency_s.push_back(since(start));
    }
    const double mixed_wall = since(phase_start);
    cold_done = true;
    if (traced) std::this_thread::sleep_for(std::chrono::seconds(1));
    stop = true;
    for (auto& thread : memo_threads) thread.join();
    mixed_walls.push_back(mixed_wall);
    mixed_qps.push_back(
        static_cast<double>(memo[0].mixed_s.size() + memo[1].mixed_s.size()) / mixed_wall);

    std::uint64_t memo_count = 0;
    for (const auto& m : memo) {
      out.op_latency_s.insert(out.op_latency_s.end(), m.mixed_s.begin(), m.mixed_s.end());
      memo_alone_s.insert(memo_alone_s.end(), m.alone_s.begin(), m.alone_s.end());
      memo_count += m.ok + m.bad;
      ctx.checks.op(true, "", m.ok);
      if (m.bad > 0) ctx.checks.op(false, "memo client: " + m.first_bad, m.bad);
    }
    std::fprintf(stderr, "hpacd repeat %zu: %.0f memo q/s, setup %.3f s, cold batch %.3f s\n",
                 repeat, mixed_qps.back(), out.setup_s.back(), mixed_wall);
    if (cold_bad > 0) ctx.checks.op(false, "cold answers not kOk", cold_bad);
    for (const auto& [index, row_digest] : cold_digests) {
      ctx.check_digest("hpacd.cold." + std::to_string(index), row_digest);
    }

    // The stats frame must account for exactly what the clients sent.
    const std::uint64_t warm = 8;
    harness::TuningService::Stats stats;
    try {
      stats = daemon->clients[2]->stats();
    } catch (const std::exception& e) {
      ctx.checks.op(false, std::string("stats frame: ") + e.what());
    }
    ctx.checks.op(stats.memoized == memo_count && stats.evaluated == cold.size() + warm &&
                      stats.queries == memo_count + cold.size() + warm &&
                      stats.coalesced == 0 && stats.rejected == 0 && stats.degraded == 0 &&
                      stats.deadline_exceeded == 0 && stats.eval_failures == 0,
                  "stats frame: " + std::to_string(stats.queries) + " queries, " +
                      std::to_string(stats.memoized) + " memoized, " +
                      std::to_string(stats.evaluated) + " evaluated, " +
                      std::to_string(stats.coalesced) + " coalesced");
    daemon->stop();
    last_stats = stats;
    last_cold = cold;

    const double repeat_s = since(repeat_start);
    // A trace run compares one untraced daemon with one traced daemon.
    if (ctx.trace || ctx.capture) break;
    if (repeat >= 2 && since(run_start) + repeat_s > ctx.seconds) break;
  }
  // Medians over the daemons, so a burst of load from other tenants that
  // covers less than half the run does not move them.
  out.ops_per_s = median(mixed_qps);
  out.job_wall_s = median(mixed_walls);
  if (!traced) return out;

  ctx.layer.set("service.memo_p50_us", quantile(out.op_latency_s, 0.50) * 1e6, "us");
  ctx.layer.set("service.memo_p99_us", quantile(out.op_latency_s, 0.99) * 1e6, "us");
  ctx.layer.set("service.cold_p50_ms", quantile(out.cold_latency_s, 0.50) * 1e3, "ms");
  ctx.layer.set("service.cold_p90_ms", quantile(out.cold_latency_s, 0.90) * 1e3, "ms");
  ctx.layer.set("service.memo_p50_us.no_cold", median(memo_alone_s) * 1e6, "us");
  ctx.layer.set("service.stats.queries", static_cast<double>(last_stats.queries), "count");
  ctx.layer.set("service.stats.memoized", static_cast<double>(last_stats.memoized), "count");
  ctx.layer.set("service.stats.evaluated", static_cast<double>(last_stats.evaluated), "count");
  ctx.layer.set("service.stats.coalesced", static_cast<double>(last_stats.coalesced), "count");

  // In-process calls on the same memo stream, so the socket's share shows.
  constexpr std::size_t kCalls = 100000;
  harness::ResultStore store(csv, /*read_only=*/true);
  harness::TuningServiceConfig config;
  config.read_only = true;
  harness::TuningService service(store, config);
  std::vector<harness::TuningQuery> queries;
  std::vector<std::size_t> rows;
  Xoshiro256 stream_rng(ctx.seed * 4 + 1);
  for (std::size_t i = 0; i < kCalls; ++i) {
    std::size_t row = 0;
    queries.push_back(source.query(stream_rng, row));
    rows.push_back(row);
  }
  std::uint64_t bad = 0;
  auto start = Clock::now();
  {
    Span span("harness.service.query", "harness");
    for (std::size_t i = 0; i < kCalls; ++i) {
      const harness::TuningAnswer answer = service.query(queries[i]);
      bad += answer.status != harness::TuningStatus::kOk || !answer.memoized;
    }
  }
  ctx.layer.set("harness.service.query_us.memo", since(start) * 1e6 / kCalls, "us");
  ctx.checks.op(bad == 0, "in-process memo query not memoized", kCalls);

  std::vector<std::string> keys;
  for (const std::size_t row : rows) {
    keys.push_back(harness::ResultStore::key_of(source.records[row]));
  }
  std::size_t found = 0;
  start = Clock::now();
  {
    Span span("harness.store.snapshot_find", "harness");
    for (const auto& key : keys) found += store.snapshot().find_key(key) != nullptr;
  }
  ctx.layer.set("harness.store.snapshot_find_us", since(start) * 1e6 / kCalls, "us");
  ctx.checks.op(found == kCalls, "snapshot find missed a stored tuple", kCalls);

  std::vector<std::string> answers;
  for (std::size_t i = 0; i < 1024; ++i) {
    harness::TuningAnswer answer;
    answer.status = harness::TuningStatus::kOk;
    answer.memoized = true;
    answer.record = source.records[rows[i]];
    answers.push_back(service::encode_answer(answer));
  }
  std::size_t bytes = 0;
  start = Clock::now();
  {
    Span span("service.protocol.encode_query", "service");
    for (const auto& query : queries) bytes += service::encode_query(query).size();
  }
  ctx.layer.set("service.protocol.encode_query_ns", since(start) * 1e9 / kCalls, "ns");
  start = Clock::now();
  {
    Span span("service.protocol.decode_answer", "service");
    for (std::size_t i = 0; i < kCalls; ++i) {
      bytes += service::decode_answer(answers[i % answers.size()]).record.spec_text.size();
    }
  }
  ctx.layer.set("service.protocol.decode_answer_ns", since(start) * 1e9 / kCalls, "ns");
  ctx.checks.op(bytes > 0, "protocol codec produced nothing");

  // measure_configs on the cold tuples with a seeded baseline.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>> groups;
  for (const std::size_t index : last_cold) {
    groups[{pool[index].benchmark, pool[index].device}].push_back(index);
  }
  double measure_s = 0;
  for (const auto& [pair, indices] : groups) {
    const sim::DeviceConfig device = sim::device_by_name(pair.second);
    auto reference_app = apps::make_benchmark(pair.first);
    const harness::BaselineSummary baseline =
        harness::Explorer(*reference_app, device).baseline_summary();
    auto app = apps::make_benchmark(pair.first);
    harness::Explorer explorer(*app, device);
    explorer.seed_baseline(baseline);
    std::vector<harness::ConfigRequest> configs;
    for (const std::size_t index : indices) {
      configs.push_back(
          {pragma::parse_approx(pool[index].spec_text), pool[index].items_per_thread});
    }
    start = Clock::now();
    std::vector<harness::RunRecord> records;
    {
      Span span("harness.explorer.measure_configs", "harness");
      records = explorer.measure_configs(configs, 1);
    }
    measure_s += since(start);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      ctx.check_digest("hpacd.cold." + std::to_string(indices[i]), digest(row_text(records[i])));
    }
  }
  ctx.layer.set("harness.explorer.measure_ms",
                measure_s * 1e3 / static_cast<double>(last_cold.size()), "ms");
  return out;
}

}  // namespace perfbench
