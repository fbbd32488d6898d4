#include "harness/campaign.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "approx/audit.hpp"
#include "common/annotated_mutex.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/scheduler.hpp"
#include "common/strings.hpp"
#include "harness/explorer.hpp"
#include "harness/params.hpp"

namespace hpac::harness {

namespace {

std::vector<pragma::ApproxSpec> curated_specs_for(const sim::DeviceConfig& device) {
  std::vector<pragma::ApproxSpec> specs = curated_taf_specs(table2::hierarchies());
  for (auto& s : curated_iact_specs(device.warp_size, table2::hierarchies())) {
    specs.push_back(std::move(s));
  }
  for (auto& s : curated_perfo_specs()) specs.push_back(std::move(s));
  return specs;
}

}  // namespace

std::string Campaign::tuple_key(const std::string& benchmark, const std::string& device,
                                const std::string& spec_text,
                                std::uint64_t items_per_thread) {
  // '\x1f' (unit separator) cannot appear in names or canonical clause
  // text, so the join is collision-free.
  std::string key;
  key.reserve(benchmark.size() + device.size() + spec_text.size() + 24);
  key += benchmark;
  key += '\x1f';
  key += device;
  key += '\x1f';
  key += spec_text;
  key += '\x1f';
  key += std::to_string(items_per_thread);
  return key;
}

Campaign::Campaign(CampaignPlan plan) : plan_(std::move(plan)) {
  HPAC_REQUIRE(!plan_.benchmarks.empty(), "campaign needs at least one benchmark");
  HPAC_REQUIRE(!plan_.devices.empty(), "campaign needs at least one device");
  HPAC_REQUIRE(!plan_.items_per_thread.empty(),
               "campaign needs at least one items-per-thread value");
  for (const std::uint64_t ipt : plan_.items_per_thread) {
    HPAC_REQUIRE(ipt > 0, "items-per-thread values must be positive");
  }
  for (const auto& name : plan_.benchmarks) {
    if (!apps::is_benchmark(name)) throw ConfigError("unknown benchmark: " + name);
  }

  // Resolve devices eagerly: a bad preset name fails here, and aliases
  // ("nvidia" -> "v100") collapse before the uniqueness check below.
  std::vector<sim::DeviceConfig> devices;
  devices.reserve(plan_.devices.size());
  for (const auto& name : plan_.devices) devices.push_back(sim::device_by_name(name));

  std::unordered_set<std::string> seen;
  for (const auto& device : devices) {
    const auto specs = std::make_shared<const std::vector<pragma::ApproxSpec>>(
        plan_.specs_for ? plan_.specs_for(device) : curated_specs_for(device));
    HPAC_REQUIRE(!specs->empty(), "campaign spec grid is empty for device " + device.name);
    for (const auto& benchmark : plan_.benchmarks) {
      Shard shard;
      shard.benchmark = benchmark;
      shard.device = device;
      shard.specs = specs;
      shard.first_tuple = keys_.size();
      for (const auto& spec : *shard.specs) {
        const std::string spec_text = spec.to_string();
        for (const std::uint64_t ipt : plan_.items_per_thread) {
          std::string key = tuple_key(benchmark, device.name, spec_text, ipt);
          HPAC_REQUIRE(seen.insert(key).second,
                       "duplicate campaign tuple: " + benchmark + " on " + device.name +
                           " '" + spec_text + "' ipt " + std::to_string(ipt));
          keys_.push_back(std::move(key));
        }
      }
      shard.tuple_count = keys_.size() - shard.first_tuple;
      shards_.push_back(std::move(shard));
    }
  }
}

Campaign::Tuple Campaign::tuple(std::size_t index) const {
  HPAC_REQUIRE(index < keys_.size(), "tuple index out of range");
  // The shard holding `index` is the last one starting at or before it.
  const auto next = std::upper_bound(
      shards_.begin(), shards_.end(), index,
      [](std::size_t i, const Shard& shard) { return i < shard.first_tuple; });
  const Shard& shard = *std::prev(next);
  const std::size_t local = index - shard.first_tuple;
  const std::size_t ipt_count = plan_.items_per_thread.size();
  return Tuple{shard.benchmark, shard.device.name, (*shard.specs)[local / ipt_count],
               plan_.items_per_thread[local % ipt_count]};
}

struct TupleEvaluator::Pair {
  Pair(const std::string& benchmark, const std::string& device)
      : app(apps::make_benchmark(benchmark)), explorer(*app, sim::device_by_name(device)) {}
  std::unique_ptr<Benchmark> app;
  Explorer explorer;
};

TupleEvaluator::TupleEvaluator() = default;
TupleEvaluator::~TupleEvaluator() = default;

RunRecord TupleEvaluator::evaluate(const std::string& benchmark, const std::string& device,
                                   const pragma::ApproxSpec& spec,
                                   std::uint64_t items_per_thread) {
  const std::string key = benchmark + '\x1f' + device;
  auto it = pairs_.find(key);
  if (it == pairs_.end()) {
    it = pairs_.emplace(key, std::make_unique<Pair>(benchmark, device)).first;
  }
  // measure_configs, unlike run_config, leaves the Explorer's database
  // empty: records go to the caller's store, not into a growing cache.
  return it->second->explorer.measure_configs({ConfigRequest{spec, items_per_thread}}, 1)
      .front();
}

CampaignResult Campaign::run() {
  // The store re-creates the historical checkpoint behavior exactly:
  // absorb any existing journal (torn tail dropped), append-mode flushed
  // rows while running, canonical-order atomic rewrite at the end — the
  // final CSV is byte-identical to the pre-ResultStore campaign's.
  ResultStore store(plan_.output_path);
  CampaignResult result = run(store);
  store.finalize(result.db);
  return result;
}

CampaignResult Campaign::run(ResultStore& store) {
  CampaignResult result;
  result.planned = keys_.size();
  std::vector<RunRecord> records(keys_.size());
  std::vector<char> done(keys_.size(), 0);

  // --- resume: absorb every plan tuple the store already holds ---
  // Duplicate journal rows were already dropped by the store's load (it
  // indexes the first occurrence per tuple); they count as stale exactly
  // like rows that are not part of this plan.
  result.stale = store.load_stats().duplicates;
  const ResultStore::Snapshot checkpoint = store.snapshot();
  if (!checkpoint.empty()) {
    std::unordered_map<std::string, std::size_t> index_of;
    index_of.reserve(keys_.size());
    for (std::size_t i = 0; i < keys_.size(); ++i) index_of.emplace(keys_[i], i);
    checkpoint.for_each([&](const RunRecord& r) {
      const auto it =
          index_of.find(tuple_key(r.benchmark, r.device, r.spec_text, r.items_per_thread));
      if (it == index_of.end()) {
        ++result.stale;  // not part of this plan
        return;
      }
      records[it->second] = r;
      done[it->second] = 1;
      ++result.restored;
    });
  }

  // Shards that still have work; fully restored pairs never rebuild their
  // benchmark or rerun the baseline.
  std::vector<std::size_t> pending;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t t = 0; t < shard.tuple_count; ++t) {
      if (!done[shard.first_tuple + t]) {
        pending.push_back(s);
        break;
      }
    }
  }

  // Two locks with disjoint jobs: `mutex` guards the shared record state
  // and the journal, `callback_mutex` serializes on_record invocations.
  // The callback runs with the record lock *released* — its journal row is
  // already flushed — so a blocked callback stalls only other callbacks,
  // never the journaling by concurrent workers. (Holding `mutex` across
  // the callback used to deadlock exactly that pattern.)
  common::Mutex mutex;
  common::Mutex callback_mutex;
  auto run_shard = [&](std::size_t shard_index) {
    const Shard& shard = shards_[shard_index];
    TupleEvaluator evaluator;
    for (std::size_t index = shard.first_tuple;
         index < shard.first_tuple + shard.tuple_count; ++index) {
      if (done[index]) continue;
      const Tuple t = tuple(index);
      const RunRecord record =
          evaluator.evaluate(t.benchmark, t.device, t.spec, t.items_per_thread);
      {
        common::MutexLock lock(mutex);
        records[index] = record;
        done[index] = 1;
        // The store flushes the journal row before publishing, so by the
        // time on_record (or any store reader) sees the record it is
        // already durable.
        store.append(record);
        ++result.evaluated;
      }
      if (plan_.on_record) {
        common::MutexLock lock(callback_mutex);
        plan_.on_record(record);
      }
    }
  };

  // One worker runs the shards inline, in plan order.
  const std::size_t workers =
      Scheduler::recommended_threads(plan_.num_threads, pending.size());
  Scheduler::shared().parallel_for(
      pending.size(), [&](std::size_t, std::size_t i) { run_shard(pending[i]); },
      /*max_participants=*/workers);

  // --- canonical assembly (plan order, independent of worker count) ---
  for (auto& record : records) {
    result.feasible += record.feasible ? 1 : 0;
    // Both audit surfaces embed audit::kConflictToken: report-mode notes
    // from Explorer::evaluate and enforce-mode ConfigError texts. The
    // shared constant keeps this count immune to rewording.
    if (record.note.find(approx::audit::kConflictToken) != std::string::npos) {
      ++result.audit_flagged;
    }
    result.db.add(std::move(record));
  }
  return result;
}

}  // namespace hpac::harness
