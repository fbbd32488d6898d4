// Fault-injection rig for the distributed campaign (DistributedCampaign
// over LeaseJournal).
//
// These tests fork REAL worker subprocesses (fork + exec of this binary in
// --dist-worker mode, so no fork-from-multithreaded hazards), SIGKILL them
// at controlled points through env-driven injection hooks compiled into
// the library (HPAC_DIST_TEST_KILL_AFTER, HPAC_DIST_TEST_TORN_APPEND,
// HPAC_DIST_TEST_STALL_MS), SIGSTOP/SIGCONT them to force lease expiry,
// restart them, and assert the merged final CSV is byte-identical to the
// serial single-process reference — kill-and-resume semantics already
// proven per-process (test_campaign.cpp), here proven per-fleet.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fileops.hpp"
#include "harness/campaign.hpp"
#include "harness/dist_campaign.hpp"
#include "harness/lease_journal.hpp"
#include "harness/result_store.hpp"
#include "pragma/parser.hpp"

using namespace hpac;
using namespace hpac::harness;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string fresh_dir(const std::string& stem) {
  const std::string path = testing::TempDir() + "hpac_dist_" + stem;
  std::filesystem::remove_all(path);
  fileops::ensure_dir(path);
  return path;
}

// --- the two plans worker subprocesses and tests agree on --------------------
// Identified by name on the worker command line; both sides must build the
// identical plan or the lease journal's fingerprint check rejects the
// worker (which is itself a property one test asserts).

CampaignPlan plan_by_name(const std::string& name) {
  CampaignPlan plan;
  plan.num_threads = 1;
  plan.specs_for = [](const sim::DeviceConfig&) {
    return std::vector<pragma::ApproxSpec>{
        pragma::parse_approx("perfo(small:2)"),
        pragma::parse_approx("perfo(large:4)"),
        pragma::parse_approx("perfo(fini:0.3)"),
    };
  };
  plan.items_per_thread = {1, 8};
  if (name == "tiny") {
    // 6 tuples, 1 shard.
    plan.benchmarks = {"lavamd"};
    plan.devices = {"v100"};
  } else if (name == "multi") {
    // 16 tuples, 4 shards.
    plan.benchmarks = {"lavamd", "binomial_options"};
    plan.devices = {"v100", "mi250x"};
    plan.specs_for = [](const sim::DeviceConfig&) {
      return std::vector<pragma::ApproxSpec>{
          pragma::parse_approx("perfo(small:2)"),
          pragma::parse_approx("perfo(fini:0.3)"),
      };
    };
  } else {
    throw Error("unknown test plan: " + name);
  }
  return plan;
}

DistributedCampaign::Options dist_options(const std::string& dir,
                                          const std::string& worker,
                                          std::uint32_t ttl_ms, std::size_t chunk,
                                          const std::string& mode) {
  DistributedCampaign::Options opt;
  opt.dir = dir;
  opt.worker = worker;
  opt.ttl_ms = ttl_ms;
  opt.claim_chunk = chunk;
  opt.mode = mode == "rename" ? LeaseJournal::AppendMode::kRenameRewrite
                              : LeaseJournal::AppendMode::kAtomicAppend;
  return opt;
}

// --- subprocess plumbing -----------------------------------------------------

using Env = std::vector<std::pair<std::string, std::string>>;

pid_t spawn_self(const std::vector<std::string>& args, const Env& env) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  for (const auto& [key, value] : env) ::setenv(key.c_str(), value.c_str(), 1);
  std::vector<char*> argv;
  std::string exe = "/proc/self/exe";
  argv.push_back(exe.data());
  std::vector<std::string> copy = args;
  for (auto& arg : copy) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(exe.c_str(), argv.data());
  ::_exit(127);
}

pid_t spawn_worker(const std::string& dir, const std::string& worker,
                   const std::string& plan, std::uint32_t ttl_ms, std::size_t chunk,
                   const Env& env = {}, const std::string& mode = "append") {
  return spawn_self({"--dist-worker", dir, worker, plan, std::to_string(ttl_ms),
                     std::to_string(chunk), mode},
                    env);
}

int wait_for(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

void expect_clean_exit(pid_t pid, const std::string& who) {
  const int status = wait_for(pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << who << " status " << status;
}

void expect_sigkilled(pid_t pid, const std::string& who) {
  const int status = wait_for(pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << who << " status " << status;
}

/// Parse the key=value stats file a finished worker publishes.
std::map<std::string, long long> read_stats(const std::string& dir,
                                            const std::string& worker) {
  std::map<std::string, long long> out;
  std::string text;
  EXPECT_TRUE(fileops::read_file(dir + "/stats." + worker, text)) << worker;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) {
      out[line.substr(0, eq)] = std::atoll(line.c_str() + eq + 1);
    }
  }
  return out;
}

bool wait_for_file(const std::string& path, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    if (std::filesystem::exists(path)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return std::filesystem::exists(path);
}

/// The single-process serial reference CSV for a plan.
std::string serial_reference(const std::string& plan_name, const std::string& stem) {
  CampaignPlan plan = plan_by_name(plan_name);
  plan.output_path = testing::TempDir() + "hpac_dist_ref_" + stem + ".csv";
  std::remove(plan.output_path.c_str());
  Campaign campaign(plan);
  campaign.run();
  return plan.output_path;
}

DistributedCampaign::FinalizeStats finalize_dir(const std::string& plan_name,
                                                const std::string& dir) {
  Campaign campaign(plan_by_name(plan_name));
  DistributedCampaign dist(campaign, dist_options(dir, "finalizer", 1000, 4, "append"));
  return dist.finalize();
}

}  // namespace

// ============================================================================
// LeaseJournal unit coverage
// ============================================================================

namespace {

LeaseJournal::Options lease_options(const std::string& path, const std::string& worker,
                                    std::size_t domain, std::uint32_t ttl_ms = 3000,
                                    LeaseJournal::AppendMode mode =
                                        LeaseJournal::AppendMode::kAtomicAppend) {
  LeaseJournal::Options opt;
  opt.path = path;
  opt.worker = worker;
  opt.domain = domain;
  opt.fingerprint = 0x1234abcd5678ef00ull;
  opt.ttl_ms = ttl_ms;
  opt.mode = mode;
  return opt;
}

}  // namespace

TEST(LeaseJournal, ClaimsAreExclusiveAndReleasesStick) {
  const std::string dir = fresh_dir("lease_basic");
  const std::string path = dir + "/leases.journal";
  LeaseJournal a(lease_options(path, "a", 8));
  LeaseJournal b(lease_options(path, "b", 8));

  EXPECT_EQ(a.claim(0, 4), (std::vector<std::size_t>{0, 1, 2, 3}));
  // b's overlapping claim only wins the tuples a did not reach.
  EXPECT_EQ(b.claim(2, 4), (std::vector<std::size_t>{4, 5}));
  EXPECT_TRUE(a.holds(2));
  EXPECT_FALSE(b.holds(2));

  a.release(1);
  EXPECT_FALSE(a.holds(1));
  // A released tuple is terminal: nobody can claim it again.
  EXPECT_TRUE(b.claim(1, 1).empty());

  const auto run = b.next_unclaimed_run(8, 8, 0);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first, 6u);
  EXPECT_EQ(run->second, 2u);

  // A release from a non-owner is appended but ignored by every reader.
  b.release(3);
  EXPECT_TRUE(a.holds(3));
  EXPECT_EQ(a.invalid_lines(), 0u);
}

TEST(LeaseJournal, ExpiredLeaseIsReclaimedExactlyOnce) {
  const std::string dir = fresh_dir("lease_expire");
  const std::string path = dir + "/leases.journal";
  LeaseJournal stale(lease_options(path, "stale", 4, /*ttl_ms=*/120));
  LeaseJournal r1(lease_options(path, "r1", 4, 120));
  LeaseJournal r2(lease_options(path, "r2", 4, 120));

  EXPECT_EQ(stale.claim(0, 1).size(), 1u);
  // Still alive: reclaim refuses.
  EXPECT_FALSE(r1.try_reclaim(0).won);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(r1.expired(0, 4), (std::vector<std::size_t>{0}));
  const auto first = r1.try_reclaim(0);
  const auto second = r2.try_reclaim(0);
  EXPECT_TRUE(first.won);
  EXPECT_EQ(first.prev_worker, "stale");
  EXPECT_FALSE(second.won);  // CAS names an incumbent that no longer owns it
  EXPECT_TRUE(r1.holds(0));

  // The original owner's late release is ignored; r1's counts.
  stale.release(0);
  EXPECT_TRUE(r1.holds(0));
  r1.release(0);
  EXPECT_TRUE(r1.all_released(0, 1));

  const auto inspection = LeaseJournal::inspect(path);
  // Only the winner's CAS record landed: the second reclaimer re-read the
  // journal, saw a fresh incumbent, and never appended.
  EXPECT_EQ(inspection.reclaims, 1u);
  EXPECT_EQ(inspection.invalid_lines, 0u);
  EXPECT_TRUE(inspection.tuples[0].released);
  EXPECT_EQ(inspection.tuples[0].worker, "r1");
}

TEST(LeaseJournal, RejectsMismatchedJoiners) {
  const std::string dir = fresh_dir("lease_mismatch");
  const std::string path = dir + "/leases.journal";
  LeaseJournal a(lease_options(path, "a", 8));

  auto wrong_fp = lease_options(path, "b", 8);
  wrong_fp.fingerprint ^= 1;
  EXPECT_THROW(LeaseJournal{wrong_fp}, ConfigError);

  EXPECT_THROW(LeaseJournal{lease_options(path, "b", 9)}, ConfigError);

  EXPECT_THROW(
      LeaseJournal{lease_options(path, "b", 8, 3000,
                                 LeaseJournal::AppendMode::kRenameRewrite)},
      ConfigError);

  auto bad_name = lease_options(path, "has space", 8);
  EXPECT_THROW(LeaseJournal{bad_name}, Error);
}

TEST(LeaseJournal, RenameRewriteModeCoordinatesLikeAppendMode) {
  const std::string dir = fresh_dir("lease_rename");
  const std::string path = dir + "/leases.journal";
  const auto mode = LeaseJournal::AppendMode::kRenameRewrite;
  LeaseJournal a(lease_options(path, "a", 4, 120, mode));
  LeaseJournal b(lease_options(path, "b", 4, 120, mode));

  EXPECT_EQ(a.claim(0, 3).size(), 3u);
  EXPECT_EQ(b.claim(0, 4), (std::vector<std::size_t>{3}));
  a.release(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  b.heartbeat();
  EXPECT_TRUE(b.try_reclaim(1).won);
  EXPECT_TRUE(b.holds(1));
  EXPECT_FALSE(a.holds(1));

  const auto inspection = LeaseJournal::inspect(path);
  EXPECT_EQ(inspection.mode, "rename");
  EXPECT_EQ(inspection.invalid_lines, 0u);
}

// --- satellite: torn-write hardening (every byte offset) ---------------------

TEST(LeaseJournal, TruncatedRecordDropsOnlyTheTornTail) {
  const std::string dir = fresh_dir("lease_torn");
  const std::string path = dir + "/leases.journal";
  {
    LeaseJournal w(lease_options(path, "w", 4));
    w.claim(0, 2);
    w.heartbeat();
    w.release(0);  // header + C + H + R
  }
  const std::string bytes = slurp(path);
  const std::size_t last_start = bytes.rfind('\n', bytes.size() - 2) + 1;

  const std::string torn = dir + "/torn.journal";
  for (std::size_t cut = last_start; cut < bytes.size(); ++cut) {
    fileops::write_file_atomic(torn, bytes.substr(0, cut));
    const auto inspection = LeaseJournal::inspect(torn);
    // Everything before the torn record is intact...
    EXPECT_EQ(inspection.claims, 1u) << "cut=" << cut;
    EXPECT_EQ(inspection.heartbeats, 1u) << "cut=" << cut;
    EXPECT_EQ(inspection.valid_records, 2u) << "cut=" << cut;
    ASSERT_EQ(inspection.tuples.size(), 4u);
    EXPECT_TRUE(inspection.tuples[0].claimed);
    EXPECT_TRUE(inspection.tuples[1].claimed);
    // ...and only the torn release is lost.
    EXPECT_FALSE(inspection.tuples[0].released) << "cut=" << cut;
    EXPECT_EQ(inspection.invalid_lines, cut == last_start ? 0u : 1u) << "cut=" << cut;
  }

  // A torn half glued to a live writer's next O_APPEND record yields ONE
  // invalid line (the checksum covers the garbage prefix); records after
  // that parse normally — the reader recovers instead of derailing.
  std::vector<std::string> lines;
  std::istringstream is(bytes);
  for (std::string line; std::getline(is, line);) lines.push_back(line + "\n");
  ASSERT_EQ(lines.size(), 4u);
  const std::string half = lines[3].substr(0, lines[3].size() / 2);
  fileops::write_file_atomic(torn, bytes.substr(0, last_start) + half + lines[2] +
                                       lines[3]);
  const auto glued = LeaseJournal::inspect(torn);
  EXPECT_EQ(glued.invalid_lines, 1u);
  EXPECT_EQ(glued.valid_records, 3u);  // C, H, then the re-appended R applies
  EXPECT_TRUE(glued.tuples[0].released);

  // A live journal joining the torn file sees the same recovered state.
  fileops::write_file_atomic(torn, bytes.substr(0, last_start) + half);
  LeaseJournal survivor(lease_options(torn, "s", 4));
  EXPECT_EQ(survivor.invalid_lines(), 0u);  // unterminated tail stays pending
  EXPECT_FALSE(survivor.state(0).released);
  EXPECT_EQ(survivor.state(0).worker, "w");
}

// ============================================================================
// Satellite: concurrent ResultStore::append_if_absent across processes
// ============================================================================

TEST(DistResultStore, ConcurrentAppendIfAbsentKeepsFirstAndDropsNothing) {
  const std::string dir = fresh_dir("store_race");
  const std::string path = dir + "/journal.csv";
  constexpr int kTuples = 40;
  { ResultStore create(path); }  // header written once, before any racer

  const pid_t a = spawn_self({"--append-worker", path, "a", std::to_string(kTuples),
                              "asc"},
                             {});
  const pid_t b = spawn_self({"--append-worker", path, "b", std::to_string(kTuples),
                              "desc"},
                             {});
  expect_clean_exit(a, "append-worker a");
  expect_clean_exit(b, "append-worker b");

  // Raw journal: every row parses (no torn/interleaved rows) and the first
  // occurrence of each tuple is what the store must keep.
  const ResultDb raw = ResultDb::load(path);
  std::map<std::string, std::string> first_note;
  for (const RunRecord& record : raw.records()) {
    first_note.emplace(ResultStore::key_of(record), record.note);
  }
  EXPECT_EQ(first_note.size(), static_cast<std::size_t>(kTuples));  // none dropped

  ResultStore store(path);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kTuples));  // none duplicated
  EXPECT_EQ(store.load_stats().restored, static_cast<std::size_t>(kTuples));
  EXPECT_EQ(store.load_stats().duplicates, raw.size() - first_note.size());
  const ResultStore::Snapshot snapshot = store.snapshot();
  snapshot.for_each([&](const RunRecord& record) {
    EXPECT_EQ(record.note, first_note.at(ResultStore::key_of(record)));
  });
}

// ============================================================================
// DistributedCampaign: fleet semantics under injected faults
// ============================================================================

TEST(DistCampaign, SingleWorkerFleetMatchesSerialReference) {
  const std::string dir = fresh_dir("solo");
  expect_clean_exit(spawn_worker(dir, "w0", "tiny", 1000, 4), "w0");

  const auto stats = read_stats(dir, "w0");
  EXPECT_EQ(stats.at("evaluated"), 6);
  EXPECT_EQ(stats.at("reclaimed"), 0);

  const auto merge = finalize_dir("tiny", dir);
  EXPECT_EQ(merge.merged, 6u);
  EXPECT_EQ(merge.duplicates, 0u);
  EXPECT_EQ(merge.journals, 1u);
  EXPECT_EQ(slurp(dir + "/results.csv"), slurp(serial_reference("tiny", "solo")));
}

TEST(DistCampaign, KilledWorkerRestartsAndResumesItsOwnJournal) {
  const std::string dir = fresh_dir("killrestart");
  // Killed right after flushing its 3rd result row, BEFORE that tuple's
  // release — the worst-ordered crash: a durable result under an
  // unreleased (soon-expired) lease.
  expect_sigkilled(
      spawn_worker(dir, "w0", "tiny", 500, 6, {{"HPAC_DIST_TEST_KILL_AFTER", "3"}}),
      "killed w0");
  EXPECT_EQ(ResultDb::load(dir + "/results.w0.csv", true).size(), 3u);

  // Same id, fresh nonce: reclaims its own expired leases, releases the
  // already-persisted tuple without re-evaluating, runs the rest.
  expect_clean_exit(spawn_worker(dir, "w0", "tiny", 500, 6), "restarted w0");
  const auto stats = read_stats(dir, "w0");
  EXPECT_EQ(stats.at("restored"), 1);  // the append-without-release tuple
  EXPECT_EQ(stats.at("evaluated"), 3);
  EXPECT_GE(stats.at("reclaimed"), 1);

  const auto merge = finalize_dir("tiny", dir);
  EXPECT_EQ(merge.merged, 6u);
  EXPECT_EQ(merge.duplicates, 0u);  // restore path never re-evaluates
  EXPECT_EQ(merge.conflicting, 0u);
  EXPECT_EQ(slurp(dir + "/results.csv"), slurp(serial_reference("tiny", "killrestart")));
}

TEST(DistCampaign, TornJournalAppendIsAbsorbedByTheFleet) {
  const std::string dir = fresh_dir("torn");
  // Dies writing HALF of its 3rd lease record: the journal ends in a
  // checksummed-garbage tail every later reader and appender must survive.
  expect_sigkilled(
      spawn_worker(dir, "w0", "tiny", 500, 2, {{"HPAC_DIST_TEST_TORN_APPEND", "3"}}),
      "torn w0");

  expect_clean_exit(spawn_worker(dir, "w1", "tiny", 500, 2), "w1");

  const auto inspection = LeaseJournal::inspect(dir + "/leases.journal");
  EXPECT_GE(inspection.invalid_lines, 1u);  // the torn (possibly glued) record

  const auto merge = finalize_dir("tiny", dir);
  EXPECT_EQ(merge.merged, 6u);
  EXPECT_EQ(merge.conflicting, 0u);
  EXPECT_EQ(slurp(dir + "/results.csv"), slurp(serial_reference("tiny", "torn")));
}

// --- satellite: lease expiry via SIGSTOP -------------------------------------

TEST(DistCampaign, FrozenWorkerIsReclaimedOnceAndItsLateResultDiscarded) {
  const std::string dir = fresh_dir("frozen");
  const std::string marker = dir + "/stalled";
  const std::uint32_t ttl = 2000;

  // Worker A touches the marker right before evaluating its first tuple,
  // then sleeps while STILL holding every lease of its claimed chunk.
  const pid_t a = spawn_worker(dir, "a", "tiny", ttl, 6,
                               {{"HPAC_DIST_TEST_STALL_MS", "3000"},
                                {"HPAC_DIST_TEST_STALL_MARKER", marker}});
  ASSERT_TRUE(wait_for_file(marker, 30000));
  ASSERT_EQ(::kill(a, SIGSTOP), 0);  // freeze heartbeats too

  // B waits out the TTL, reclaims A's leases, and finishes the campaign.
  expect_clean_exit(spawn_worker(dir, "b", "tiny", ttl, 6), "b");
  const auto b_stats = read_stats(dir, "b");
  EXPECT_GE(b_stats.at("reclaimed"), 1);
  EXPECT_EQ(b_stats.at("evaluated") + b_stats.at("restored"), 6);

  // Resume A: it finishes its in-flight evaluation late (a duplicate the
  // merge discards), then observes every other lease lost and exits clean.
  ASSERT_EQ(::kill(a, SIGCONT), 0);
  expect_clean_exit(a, "resumed a");
  const auto a_stats = read_stats(dir, "a");
  EXPECT_EQ(a_stats.at("evaluated"), 1);  // exactly the stalled tuple
  // A held one lease per tuple B reclaimed; all but the stalled one were
  // observed as lost (holds() false) and skipped without evaluation.
  EXPECT_EQ(a_stats.at("lost"), b_stats.at("reclaimed") - 1);

  // Exactly-once re-evaluation: 6 tuples, 7 evaluations total, the one
  // extra being A's late duplicate — dropped by kept-first, byte-identical.
  EXPECT_EQ(a_stats.at("evaluated") + b_stats.at("evaluated"), 7);
  const auto inspection = LeaseJournal::inspect(dir + "/leases.journal");
  EXPECT_EQ(inspection.invalid_lines, 0u);  // late release did not corrupt
  const auto merge = finalize_dir("tiny", dir);
  EXPECT_EQ(merge.merged, 6u);
  EXPECT_EQ(merge.duplicates, 1u);
  EXPECT_EQ(merge.conflicting, 0u);
  EXPECT_EQ(slurp(dir + "/results.csv"), slurp(serial_reference("tiny", "frozen")));
}

TEST(DistCampaign, RenameRewriteFleetMatchesSerialReference) {
  const std::string dir = fresh_dir("rename_fleet");
  const pid_t w0 = spawn_worker(dir, "w0", "tiny", 3000, 2, {}, "rename");
  const pid_t w1 = spawn_worker(dir, "w1", "tiny", 3000, 2, {}, "rename");
  expect_clean_exit(w0, "w0");
  expect_clean_exit(w1, "w1");

  EXPECT_EQ(LeaseJournal::inspect(dir + "/leases.journal").mode, "rename");
  const auto merge = finalize_dir("tiny", dir);
  EXPECT_EQ(merge.merged, 6u);
  EXPECT_EQ(slurp(dir + "/results.csv"),
            slurp(serial_reference("tiny", "rename_fleet")));
}

TEST(DistCampaign, FinalizeRefusesAnIncompleteFleet) {
  const std::string dir = fresh_dir("incomplete");
  EXPECT_THROW(finalize_dir("tiny", dir), Error);
}

// --- the acceptance gate: 4 workers, 2 kills, reclaim, byte-identity ---------

TEST(DistCampaign, FourWorkerFleetWithTwoKillsFinalizesByteIdentical) {
  const std::string dir = fresh_dir("fleet");
  const std::uint32_t ttl = 1000;

  // Phase 1: two workers are killed mid-campaign at different points (one
  // right after its first result row, one after its second), both leaving
  // durable results under unreleased leases.
  const pid_t k0 = spawn_worker(dir, "w0", "multi", ttl, 2,
                                {{"HPAC_DIST_TEST_KILL_AFTER", "1"}});
  const pid_t k1 = spawn_worker(dir, "w1", "multi", ttl, 2,
                                {{"HPAC_DIST_TEST_KILL_AFTER", "2"}});
  expect_sigkilled(k0, "killed w0");
  expect_sigkilled(k1, "killed w1");

  // Phase 2: a 4-worker fleet — the two ids restarted plus two fresh —
  // reclaims the dead incarnations' leases and finishes the campaign.
  const pid_t w0 = spawn_worker(dir, "w0", "multi", ttl, 2);
  const pid_t w1 = spawn_worker(dir, "w1", "multi", ttl, 2);
  const pid_t w2 = spawn_worker(dir, "w2", "multi", ttl, 2);
  const pid_t w3 = spawn_worker(dir, "w3", "multi", ttl, 2);
  expect_clean_exit(w0, "w0");
  expect_clean_exit(w1, "w1");
  expect_clean_exit(w2, "w2");
  expect_clean_exit(w3, "w3");

  long long reclaimed = 0, evaluated = 0, restored = 0;
  for (const std::string id : {"w0", "w1", "w2", "w3"}) {
    const auto stats = read_stats(dir, id);
    reclaimed += stats.at("reclaimed");
    evaluated += stats.at("evaluated");
    restored += stats.at("restored");
  }
  // Each killed incarnation died holding at least its in-flight tuple, so
  // the fleet performed at least two reclaims (the acceptance criterion's
  // ">= 1 lease reclaim", with margin).
  EXPECT_GE(reclaimed, 2);
  EXPECT_GE(evaluated + restored, 16 - 3);  // 3 rows were persisted pre-kill

  const auto merge = finalize_dir("multi", dir);
  EXPECT_EQ(merge.planned, 16u);
  EXPECT_EQ(merge.merged, 16u);
  EXPECT_EQ(merge.conflicting, 0u);  // duplicates are byte-identical re-evals
  EXPECT_EQ(slurp(dir + "/results.csv"), slurp(serial_reference("multi", "fleet")));

  // And finalize is idempotent: a second merge republishes the same bytes.
  const std::string first = slurp(dir + "/results.csv");
  finalize_dir("multi", dir);
  EXPECT_EQ(slurp(dir + "/results.csv"), first);
}

// ============================================================================
// Subprocess entry points + main
// ============================================================================

namespace {

int dist_worker_main(int argc, char** argv) {
  // --dist-worker <dir> <worker> <plan> <ttl_ms> <chunk> <mode>
  if (argc != 8) {
    std::fprintf(stderr, "bad --dist-worker args\n");
    return 2;
  }
  const std::string dir = argv[2];
  const std::string worker = argv[3];
  try {
    Campaign campaign(plan_by_name(argv[4]));
    DistributedCampaign dist(
        campaign,
        dist_options(dir, worker, static_cast<std::uint32_t>(std::atoi(argv[5])),
                     static_cast<std::size_t>(std::atoi(argv[6])), argv[7]));
    const DistributedCampaign::WorkerStats stats = dist.run_worker();
    std::ostringstream os;
    os << "evaluated=" << stats.evaluated << "\n"
       << "restored=" << stats.restored << "\n"
       << "reclaimed=" << stats.reclaimed << "\n"
       << "lost=" << stats.lost << "\n";
    fileops::write_file_atomic(dir + "/stats." + worker, os.str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist worker %s failed: %s\n", worker.c_str(), e.what());
    return 1;
  }
}

int append_worker_main(int argc, char** argv) {
  // --append-worker <journal> <tag> <count> <asc|desc>
  if (argc != 6) {
    std::fprintf(stderr, "bad --append-worker args\n");
    return 2;
  }
  try {
    ResultStore store(argv[2]);
    const std::string tag = argv[3];
    const int count = std::atoi(argv[4]);
    const bool ascending = std::string(argv[5]) == "asc";
    for (int step = 0; step < count; ++step) {
      const int i = ascending ? step : count - 1 - step;
      RunRecord record;
      record.benchmark = "racebench";
      record.device = "racedev";
      record.spec_text = "perfo(small:2)";
      record.items_per_thread = static_cast<std::uint64_t>(i + 1);
      record.note = tag + "#" + std::to_string(i);
      record.speedup = 1.0 + i;
      store.append_if_absent(record);
      // Yield so the two processes genuinely interleave appends.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "append worker failed: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--dist-worker") {
    return dist_worker_main(argc, argv);
  }
  if (argc > 1 && std::string(argv[1]) == "--append-worker") {
    return append_worker_main(argc, argv);
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
