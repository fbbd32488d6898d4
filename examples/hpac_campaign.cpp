// hpac_campaign — resumable suite-wide sweeps across devices.
//
// Evaluates the cross product of benchmarks x device presets x curated
// approximation specs x items-per-thread on a thread pool, checkpointing
// every completed record to the --csv file. Kill it at any point and run
// the identical command again: already-evaluated configurations are
// restored from the checkpoint and only the missing ones run, ending with
// the same CSV an uninterrupted campaign would have produced.
//
// Examples:
//   hpac_campaign --csv=campaign.csv
//   hpac_campaign --benchmarks=kmeans,lulesh --devices=v100,mi250x,a100
//                 --ipt=8,64 --csv=campaign.csv   (one command line)
//   hpac_campaign --sweep=perfo --threads=4 --csv=perfo.csv
//
// Distributed mode (lease-coordinated multi-process sweeps, see the
// README's "Distributed sweeps" section): every invocation must use the
// identical plan flags, or the shared lease journal rejects the joiner.
//   hpac_campaign --dist-dir=sweep/ --workers=4        (fork a local fleet)
//   hpac_campaign --dist-dir=sweep/ --worker-id=nodeA  (join as one worker)
//   hpac_campaign --dist-dir=sweep/ --finalize-only    (merge results.csv)
//   hpac_campaign --dist-dir=sweep/ --dist-status      (who holds what)

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "approx/audit.hpp"
#include "approx/region.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "harness/analysis.hpp"
#include "harness/campaign.hpp"
#include "harness/dist_campaign.hpp"
#include "harness/lease_journal.hpp"
#include "harness/params.hpp"
#include "harness/record.hpp"

using namespace hpac;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--benchmarks=a,b,...] [--devices=v100,mi250x,a100]\n"
               "          [--sweep=curated|taf|iact|perfo] [--ipt=8,64]\n"
               "          [--threads=N] [--max-error=PCT] [--csv=FILE]\n"
               "          [--audit=off|report|enforce]\n"
               "          [--dist-dir=DIR [--workers=N | --worker-id=NAME |\n"
               "           --finalize-only | --dist-status] [--lease-ttl-ms=N]\n"
               "           [--heartbeat-ms=N] [--claim-chunk=N]\n"
               "           [--journal-mode=append|rename]]\n\n"
               "Defaults: all benchmarks, the paper's two devices, the curated\n"
               "spec sets. --csv doubles as the resume checkpoint. --audit runs\n"
               "the whole campaign under the commit-conflict auditor. --dist-dir\n"
               "switches to lease-coordinated multi-process mode: --workers forks\n"
               "a local fleet and merges, --worker-id joins DIR as one worker\n"
               "(merge later with --finalize-only), --dist-status prints who\n"
               "holds what (heartbeat ages judged against --lease-ttl-ms).\n\nbenchmarks:",
               argv0);
  for (const auto& name : apps::benchmark_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::vector<std::string> parse_list(const std::string& csv_list) {
  std::vector<std::string> out;
  for (const auto& item : strings::split(csv_list, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[noreturn]] void bad_value(const char* flag, const std::string& value) {
  std::fprintf(stderr, "error: %s needs a positive number, got \"%s\"\n", flag, value.c_str());
  std::exit(2);
}

std::uint64_t parse_count(const char* flag, const std::string& value, bool allow_zero) {
  long long parsed = 0;
  if (!strings::parse_int(value, parsed) || parsed < 0 || (!allow_zero && parsed == 0)) {
    bad_value(flag, value);
  }
  return static_cast<std::uint64_t>(parsed);
}

void print_per_device_table(const std::vector<harness::RunRecord>& records,
                            double max_error) {
  TextTable table({"device", "geomean best", "feasible", "configs"});
  for (const auto& row : harness::per_device_geomean_best(records, max_error)) {
    table.add_row({row.device,
                   row.geomean_best > 0 ? strings::format("%.2fx", row.geomean_best) : "-",
                   std::to_string(row.feasible), std::to_string(row.total)});
  }
  std::printf("\nper-device best under %.1f%% error (the paper's portability view):\n%s",
              max_error, table.render().c_str());
}

int finalize_and_report(const harness::DistributedCampaign& dist, double max_error) {
  const auto merge = dist.finalize();
  std::printf("finalized %s: %zu tuples merged from %zu worker journal(s)"
              " (%zu duplicate row(s) dropped%s%s)\n",
              dist.results_path().c_str(), merge.merged, merge.journals,
              merge.duplicates,
              merge.conflicting
                  ? strings::format(", %zu CONFLICTING", merge.conflicting).c_str()
                  : "",
              merge.stale ? strings::format(", %zu stale", merge.stale).c_str() : "");
  const harness::ResultDb db = harness::ResultDb::load(dist.results_path());
  print_per_device_table(db.records(), max_error);
  return merge.conflicting == 0 ? 0 : 1;
}

/// Human-readable view over the shared lease journal (--dist-status):
/// who holds what, how stale each incarnation's heartbeat is relative to
/// the TTL, and how much of the journal was unparseable. Pure read — it
/// never joins the fleet, appends nothing, and needs no plan flags.
int print_dist_status(const std::string& dist_dir, std::uint32_t ttl_ms) {
  const std::string path = harness::DistributedCampaign::lease_path_in(dist_dir);
  const harness::LeaseJournal::Inspection ins = harness::LeaseJournal::inspect(path);
  const std::uint64_t now = harness::LeaseJournal::now_ms();

  std::printf("lease journal %s: mode %s, %zu tuples, plan %016llx\n", path.c_str(),
              ins.mode.c_str(), ins.domain,
              static_cast<unsigned long long>(ins.fingerprint));
  std::printf("records: %zu valid (%zu claims, %zu heartbeats, %zu releases, "
              "%zu reclaims), %zu invalid line(s)\n",
              ins.valid_records, ins.claims, ins.heartbeats, ins.releases,
              ins.reclaims, ins.invalid_lines);

  // Aggregate live holdings per incarnation (worker#nonce); released
  // tuples no longer belong to anyone.
  struct Holder {
    std::string worker;
    std::uint64_t nonce = 0;
    std::size_t held = 0;
  };
  std::map<std::string, Holder> holders;
  std::size_t released = 0;
  std::size_t held = 0;
  std::size_t unclaimed = 0;
  for (const auto& tuple : ins.tuples) {
    if (tuple.released) {
      ++released;
    } else if (tuple.claimed) {
      ++held;
      Holder& holder = holders[tuple.worker + "#" + std::to_string(tuple.nonce)];
      holder.worker = tuple.worker;
      holder.nonce = tuple.nonce;
      ++holder.held;
    } else {
      ++unclaimed;
    }
  }
  std::printf("tuples: %zu released, %zu held, %zu unclaimed\n", released, held,
              unclaimed);

  if (!holders.empty()) {
    TextTable table({"worker", "nonce", "held", "last heartbeat", "lease"});
    std::size_t expired = 0;
    for (const auto& [key, holder] : holders) {
      const auto seen_it = ins.last_seen.find(key);
      const std::uint64_t seen = seen_it != ins.last_seen.end() ? seen_it->second : 0;
      const std::uint64_t age = now >= seen ? now - seen : 0;
      const bool live = seen != 0 && age <= ttl_ms;
      if (!live) ++expired;
      table.add_row({holder.worker, strings::format("%016llx",
                                                    static_cast<unsigned long long>(
                                                        holder.nonce)),
                     std::to_string(holder.held),
                     seen == 0 ? "never" : strings::format("%.1fs ago", age / 1000.0),
                     live ? "live" : "EXPIRED (reclaimable)"});
    }
    std::printf("\nholders (TTL %ums):\n%s", ttl_ms, table.render().c_str());
    if (expired > 0) {
      std::printf("%zu incarnation(s) past the TTL — their tuples are "
                  "reclaimable by any live worker\n",
                  expired);
    }
  }
  return 0;
}

/// Run the lease-coordinated multi-process mode (--dist-dir).
int run_distributed(const harness::Campaign& campaign, const std::string& dist_dir,
                    const std::string& worker_id, std::uint64_t workers,
                    bool finalize_only, harness::DistributedCampaign::Options opt,
                    double max_error) {
  opt.dir = dist_dir;
  opt.worker =
      worker_id.empty() ? strings::format("w%d", static_cast<int>(::getpid())) : worker_id;
  harness::DistributedCampaign dist(campaign, opt);
  std::printf("distributed campaign in %s: %zu tuples, %zu shards (plan %s)\n",
              dist_dir.c_str(), campaign.tuple_count(), campaign.shard_count(),
              strings::format("%016llx",
                              static_cast<unsigned long long>(
                                  harness::DistributedCampaign::plan_fingerprint(campaign)))
                  .c_str());
  if (finalize_only) return finalize_and_report(dist, max_error);

  if (workers > 1) {
    // Fork a local fleet: each child is a full worker process with its own
    // journal; the parent waits and merges.
    std::vector<pid_t> pids;
    for (std::uint64_t i = 0; i < workers; ++i) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        try {
          harness::DistributedCampaign::Options child_opt = opt;
          child_opt.worker = opt.worker + "." + std::to_string(i);
          harness::DistributedCampaign child(campaign, child_opt);
          const auto stats = child.run_worker();
          std::printf("  worker %s: %zu evaluated, %zu restored, %zu reclaimed\n",
                      child_opt.worker.c_str(), stats.evaluated, stats.restored,
                      stats.reclaimed);
          std::_Exit(0);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "worker %llu failed: %s\n",
                       static_cast<unsigned long long>(i), e.what());
          std::_Exit(1);
        }
      }
      pids.push_back(pid);
    }
    bool ok = true;
    for (const pid_t pid : pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (!ok) {
      std::fprintf(stderr, "error: a worker failed; rerun to resume, then "
                           "--finalize-only to merge\n");
      return 1;
    }
    return finalize_and_report(dist, max_error);
  }

  const auto stats = dist.run_worker();
  std::printf("worker %s done: %zu evaluated, %zu restored from own journal, "
              "%zu lease(s) reclaimed, %zu lost\n",
              opt.worker.c_str(), stats.evaluated, stats.restored, stats.reclaimed,
              stats.lost);
  std::printf("merge the fleet's journals with: --dist-dir=%s --finalize-only\n",
              dist_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::CampaignPlan plan;
  plan.benchmarks = apps::benchmark_names();
  plan.devices = {"v100", "mi250x"};
  std::string sweep = "curated";
  std::string audit = "off";
  double max_error = 10.0;
  std::string dist_dir;
  std::string worker_id;
  std::uint64_t workers = 0;
  bool finalize_only = false;
  bool dist_status = false;
  harness::DistributedCampaign::Options dist_opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--benchmarks")) plan.benchmarks = parse_list(*v);
    else if (auto v2 = value("--devices")) plan.devices = parse_list(*v2);
    else if (auto v3 = value("--sweep")) sweep = *v3;
    else if (auto v4 = value("--csv")) plan.output_path = *v4;
    else if (auto v5 = value("--threads")) {
      plan.num_threads = parse_count("--threads", *v5, /*allow_zero=*/true);
    } else if (auto v6 = value("--max-error")) {
      if (!strings::parse_double(*v6, max_error) || max_error <= 0) {
        bad_value("--max-error", *v6);
      }
    } else if (auto v7 = value("--ipt")) {
      plan.items_per_thread.clear();
      for (const auto& item : parse_list(*v7)) {
        plan.items_per_thread.push_back(parse_count("--ipt", item, /*allow_zero=*/false));
      }
    } else if (auto v8 = value("--audit")) {
      audit = *v8;
    } else if (auto v9 = value("--dist-dir")) {
      dist_dir = *v9;
    } else if (auto v10 = value("--worker-id")) {
      worker_id = *v10;
    } else if (auto v11 = value("--workers")) {
      workers = parse_count("--workers", *v11, /*allow_zero=*/false);
    } else if (arg == "--finalize-only") {
      finalize_only = true;
    } else if (arg == "--dist-status") {
      dist_status = true;
    } else if (auto v12 = value("--lease-ttl-ms")) {
      dist_opt.ttl_ms =
          static_cast<std::uint32_t>(parse_count("--lease-ttl-ms", *v12, false));
    } else if (auto v13 = value("--heartbeat-ms")) {
      dist_opt.heartbeat_ms =
          static_cast<std::uint32_t>(parse_count("--heartbeat-ms", *v13, true));
    } else if (auto v14 = value("--claim-chunk")) {
      dist_opt.claim_chunk =
          static_cast<std::size_t>(parse_count("--claim-chunk", *v14, false));
    } else if (auto v15 = value("--journal-mode")) {
      if (*v15 == "append") {
        dist_opt.mode = harness::LeaseJournal::AppendMode::kAtomicAppend;
      } else if (*v15 == "rename") {
        dist_opt.mode = harness::LeaseJournal::AppendMode::kRenameRewrite;
      } else {
        usage(argv[0]);
      }
    } else {
      usage(argv[0]);
    }
  }
  if (dist_dir.empty() &&
      (!worker_id.empty() || workers > 0 || finalize_only || dist_status)) {
    std::fprintf(stderr,
                 "error: --workers/--worker-id/--finalize-only/--dist-status "
                 "need --dist-dir\n");
    return 2;
  }
  if (dist_status) {
    // Pure inspection: no plan construction, no journal join — works even
    // while a fleet is mid-sweep or after it crashed.
    try {
      return print_dist_status(dist_dir, dist_opt.ttl_ms);
    } catch (const hpac::Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  const auto audit_mode = approx::audit::audit_mode_from_string(audit);
  if (!audit_mode) usage(argv[0]);
  if (*audit_mode != approx::audit::AuditMode::kOff) {
    approx::RegionExecutor::set_default_audit(*audit_mode);
    std::printf("commit-conflict audit: %s (with differential re-runs)\n",
                approx::audit::to_string(*audit_mode));
  }
  if (sweep == "taf") {
    plan.specs_for = [](const sim::DeviceConfig&) {
      return harness::curated_taf_specs(harness::table2::hierarchies());
    };
  } else if (sweep == "iact") {
    plan.specs_for = [](const sim::DeviceConfig& d) {
      return harness::curated_iact_specs(d.warp_size, harness::table2::hierarchies());
    };
  } else if (sweep == "perfo") {
    plan.specs_for = [](const sim::DeviceConfig&) { return harness::curated_perfo_specs(); };
  } else if (sweep != "curated") {
    usage(argv[0]);
  }

  std::size_t progress = 0;
  plan.on_record = [&progress](const harness::RunRecord& r) {
    ++progress;
    if (progress % 50 == 0) {
      std::printf("  ... %zu records (latest: %s on %s)\n", progress, r.benchmark.c_str(),
                  r.device.c_str());
    }
  };

  try {
    harness::Campaign campaign(plan);
    if (!dist_dir.empty()) {
      return run_distributed(campaign, dist_dir, worker_id, workers, finalize_only,
                             dist_opt, max_error);
    }
    std::printf("campaign: %zu benchmarks x %zu devices, %zu items-per-thread values%s\n",
                plan.benchmarks.size(), plan.devices.size(), plan.items_per_thread.size(),
                plan.output_path.empty() ? " (in-memory, no checkpoint)" : "");
    const harness::CampaignResult result = campaign.run();
    std::printf("planned %zu tuples: %zu restored from checkpoint, %zu evaluated, "
                "%zu feasible%s\n",
                result.planned, result.restored, result.evaluated, result.feasible,
                result.stale ? strings::format(" (%zu stale rows dropped)", result.stale).c_str()
                             : "");
    if (*audit_mode != approx::audit::AuditMode::kOff) {
      std::printf("audit (%s): %zu record(s) flagged with commit conflicts\n",
                  approx::audit::to_string(*audit_mode), result.audit_flagged);
    }

    print_per_device_table(result.db.records(), max_error);
    if (!plan.output_path.empty()) {
      std::printf("\nresults in %s — rerun the same command to verify resume is a no-op\n",
                  plan.output_path.c_str());
    }
  } catch (const hpac::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
