// servebench — the loopback serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--smoke] [--out DIR]
//
// Hosts MakeNetServer over a MakeQueryService catalog in this process on
// loopback and drives one named workload (workloads.cc) from the open-
// loop load generator (loadgen.h): two client threads, four connections,
// plus one update thread on live_updates. Every reply is checked bit for
// bit against a direct Route on an identically seeded catalog, and the
// client's and the server's ledgers must reconcile; any wrong answer or
// ledger mismatch exits 1.
//
// --trace 0 measures the end-to-end metrics: set-up time (median of
// nine set-ups), latency at the workload's fixed offered rate for all of
// --seconds, and peak RSS over set-up and serving. --trace 1 runs the
// fixed rate twice, untraced and traced, for half of --seconds each, and
// attributes the traced run layer by layer (layers.h). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --smoke shortens every phase for the self-test and skips
// the sample-count and generator-lag rules, which such short phases
// cannot meet. Spans and artifacts go under --out (default
// .bench_build/servebench).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "layers.h"
#include "loadgen.h"
#include "net/server.h"
#include "server/query_service.h"
#include "summary.h"
#include "workloads.h"

namespace servebench {
namespace {

constexpr int kConnections = 4;
constexpr int kSetupRepeats = 9;
/// Fixed-rate phases per run at most: one more when the generator's
/// lateness distorted the first (SendLagAcceptable).
constexpr int kFixedRateAttempts = 2;
/// Requests sent back to back to warm the connections after set-up.
constexpr int kWarmupRequests = 512;
constexpr size_t kP99Window = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out = ".bench_build/servebench";
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Die("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--out") {
      args.out = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 120)) Die("--seconds must be in (0, 120]");
  return args;
}

/// Hands freed heap pages back to the kernel and restarts its high-water
/// RSS (VmHWM) from the current RSS, so that PeakRssMb covers what comes
/// after this call only.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset the high-water RSS via /proc/self/clear_refs");
}

/// The process's high-water RSS since ResetPeakRss (VmHWM), MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("no VmHWM in /proc/self/status");
}

/// Failures across the run: `attempted`/`failed` of the checks made
/// outside the measured phases.
struct Audit {
  size_t sent = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;
  std::vector<std::string> problems;

  void Problem(std::string what) {
    std::fprintf(stderr, "servebench: %s\n", what.c_str());
    problems.push_back(std::move(what));
  }
};

struct Checked {
  size_t failed = 0;  ///< missing, refused, shed, timed-out or wrong
  size_t wrong = 0;
};

/// Checks each reply's status and, when `expected` is given, its bytes.
Checked CheckPhase(const PhaseResult& phase,
                   const std::vector<uint64_t>* expected, Audit* audit) {
  Checked checked;
  audit->sent += phase.records.size();
  if (!phase.transport_ok) audit->Problem("transport: " + phase.error);
  for (const Record& r : phase.records) {
    if (!r.replied || r.code != itspq::StatusCode::kOk) {
      ++checked.failed;
    } else if (expected != nullptr && r.hash != (*expected)[r.pool_index]) {
      ++checked.failed;
      ++checked.wrong;
    }
  }
  if (checked.wrong > 0) {
    audit->Problem(std::to_string(checked.wrong) +
                   " replies differ from a direct Route");
  }
  audit->wrong += checked.wrong;
  return checked;
}

struct Serving {
  std::unique_ptr<itspq::net::NetServer> server;
  std::unique_ptr<LoadClient> client;
  size_t cursor = 0;  ///< next pool entry
};

/// Open-loop phase at `rate` for `seconds` (Poisson arrivals).
PhaseResult RunPhase(Serving* serving, const Inputs& inputs, double rate,
                     double seconds, uint64_t arrival_seed, bool traced) {
  const int n = std::max(1, static_cast<int>(std::lround(rate * seconds)));
  itspq::ArrivalScheduleConfig schedule;
  schedule.offered_qps = rate;
  schedule.seed = arrival_seed;
  auto offsets = itspq::GenerateOpenLoopArrivals(n, schedule);
  if (!offsets.ok()) Die("arrivals: " + offsets.status().ToString());
  std::vector<uint32_t> picks(static_cast<size_t>(n));
  for (uint32_t& pick : picks) {
    pick = static_cast<uint32_t>(serving->cursor++ % inputs.pool.size());
  }
  return serving->client->Run(inputs.pool, picks, *offsets, traced);
}

/// Set-up, as setup_s times it: builds the catalog, starts service +
/// server, connects, and warms every shard's snapshot store (a direct
/// Route over the pool).
Serving BringUp(const WorkloadSpec& spec, const Inputs& inputs) {
  auto catalog = BuildCatalog(spec, inputs);
  if (!catalog.ok()) Die("catalog: " + catalog.status().ToString());
  auto service = itspq::MakeQueryService(std::move(*catalog));
  if (!service.ok()) Die("service: " + service.status().ToString());
  auto server = itspq::net::MakeNetServer(std::move(*service));
  if (!server.ok()) Die("server: " + server.status().ToString());
  Serving serving;
  serving.server = std::move(*server);
  auto client = LoadClient::Connect(serving.server->port(), kConnections);
  if (!client.ok()) Die("connect: " + client.status().ToString());
  serving.client = std::move(*client);

  const itspq::Router& router = serving.server->service().router();
  itspq::QueryContext context;
  for (const itspq::QueryRequest& request : inputs.pool) {
    (void)router.Route(request, &context);
  }
  return serving;
}

/// Warms the connections, outside setup_s: a burst of pipelined replies
/// can wait out a 40 ms delayed ACK or not, which would make set-up time
/// bimodal.
void WarmConnections(const Inputs& inputs, Serving* serving, Audit* audit) {
  std::vector<uint32_t> picks(kWarmupRequests);
  for (uint32_t& pick : picks) {
    pick = static_cast<uint32_t>(serving->cursor++ % inputs.pool.size());
  }
  const PhaseResult warm = serving->client->Run(
      inputs.pool, picks, std::vector<double>(picks.size(), 0.0), false);
  // No update has been submitted yet: every answer is epoch 0's.
  const Checked checked = CheckPhase(warm, &inputs.expected, audit);
  if (checked.failed > 0) {
    audit->Problem("warm-up: " + std::to_string(checked.failed) +
                   " requests failed");
  }
}

/// Stops the server and reconciles its ledgers with the client's.
void TearDown(Serving* serving, size_t client_sent, size_t updates_sent,
              Audit* audit) {
  serving->client.reset();
  serving->server->Stop();
  const itspq::net::NetServerStats net = serving->server->Stats();
  const itspq::ServiceStats s = serving->server->service().Stats();
  const size_t shed = s.shed_displaced + s.shed_infeasible;
  const size_t rejected = s.rejected_queue_full + s.rejected_expired +
                          s.rejected_invalid + s.rejected_shutdown;
  const size_t timed_out = s.timed_out_in_queue + s.timed_out_in_flight;
  if (s.submitted != client_sent) {
    audit->Problem("ledger: client sent " + std::to_string(client_sent) +
                   " but the service saw " + std::to_string(s.submitted));
  }
  if (s.submitted != s.served + shed + rejected + timed_out) {
    audit->Problem("ledger: submitted " + std::to_string(s.submitted) +
                   " != served + shed + rejected + timed_out");
  }
  if (s.updates_submitted != updates_sent ||
      s.updates_submitted != s.updates_applied + s.updates_rejected) {
    audit->Problem("ledger: updates submitted " +
                   std::to_string(s.updates_submitted) + ", sent " +
                   std::to_string(updates_sent) + ", applied " +
                   std::to_string(s.updates_applied) + ", rejected " +
                   std::to_string(s.updates_rejected));
  }
  if (net.decode_errors != 0 || net.connections_dropped != 0) {
    audit->Problem("ledger: decode_errors " + std::to_string(net.decode_errors) +
                   ", connections_dropped " +
                   std::to_string(net.connections_dropped));
  }
  std::printf("# ledger: sent %zu submitted %zu served %zu shed %zu rejected "
              "%zu timed_out %zu | updates %zu applied %zu rejected %zu | "
              "decode_errors %zu connections_dropped %zu\n",
              client_sent, s.submitted, s.served, shed, rejected, timed_out,
              s.updates_submitted, s.updates_applied, s.updates_rejected,
              net.decode_errors, net.connections_dropped);
}

/// A request's latency: Record::LatencyUs (from the scheduled send) or
/// Record::RoundTripUs (from the actual send).
using LatencyOf = double (Record::*)() const;

/// Latencies of the OK replies among records [from, to).
std::vector<double> Latencies(const std::vector<Record>& records, size_t from,
                              size_t to, LatencyOf latency = &Record::LatencyUs) {
  std::vector<double> out;
  for (size_t i = from; i < to; ++i) {
    const Record& r = records[i];
    if (r.replied && r.code == itspq::StatusCode::kOk) {
      out.push_back((r.*latency)());
    }
  }
  return out;
}

/// p99 of each consecutive window of kP99Window requests (each leaves
/// >= 10 samples beyond its p99), median over the windows: one host
/// scheduling burst moves a single window, not the run's figure.
double WindowedP99(const std::vector<Record>& records,
                   LatencyOf latency = &Record::LatencyUs) {
  const size_t windows = std::max<size_t>(1, records.size() / kP99Window);
  const size_t width = records.size() / windows;
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const size_t end = w + 1 == windows ? records.size() : (w + 1) * width;
    std::vector<double> lat = Latencies(records, w * width, end, latency);
    p99s.push_back(Summarize(&lat).p99);
  }
  return Median(p99s);
}

std::vector<double> SendLags(const std::vector<Record>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const Record& r : records) out.push_back(r.SendLagUs());
  return out;
}

/// One fixed-rate phase and its latency figures.
struct FixedRate {
  PhaseResult phase;
  Summary latency;  ///< timed from the scheduled send
  Summary sent;     ///< timed from the actual send
  Summary lag;
  double p99 = 0;   ///< WindowedP99, from the scheduled send
  double sent_p99 = 0;

  bool LagAcceptable() const {
    return SendLagAcceptable(latency.p50, sent.p50) &&
           SendLagAcceptable(p99, sent_p99);
  }
};

FixedRate MeasureFixedRate(Serving* serving, const Inputs& inputs,
                           double rate, double seconds, uint64_t seed) {
  FixedRate f;
  f.phase = RunPhase(serving, inputs, rate, seconds, seed, false);
  const std::vector<Record>& records = f.phase.records;
  std::vector<double> lat = Latencies(records, 0, records.size());
  std::vector<double> from_send =
      Latencies(records, 0, records.size(), &Record::RoundTripUs);
  std::vector<double> lags = SendLags(records);
  f.latency = Summarize(&lat);
  f.sent = Summarize(&from_send);
  f.lag = Summarize(&lags);
  f.p99 = WindowedP99(records);
  f.sent_p99 = WindowedP99(records, &Record::RoundTripUs);
  return f;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.4f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
  }
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// live_updates: after the stream, the served answers must equal an
/// identically seeded catalog with the same updates applied in order.
void CheckAfterUpdates(const Inputs& inputs,
                       const std::vector<UpdateRecord>& committed,
                       Serving* serving, Audit* audit) {
  auto oracle = BuildEagerCatalog(inputs);
  if (!oracle.ok()) Die("oracle: " + oracle.status().ToString());
  for (size_t i = 0; i < committed.size(); ++i) {
    if (!committed[i].ok) continue;
    auto applied = oracle->ApplyAtiUpdate(inputs.updates[i].update);
    if (!applied.ok()) {
      audit->Problem("oracle rejected update " + std::to_string(i) + ": " +
                     applied.status().ToString());
    }
  }
  const std::vector<uint64_t> expected = ExpectedHashes(*oracle, inputs.pool);
  // The probe set is the whole pool, once, at 8000 q/s.
  const size_t start = serving->cursor;
  serving->cursor = 0;
  std::vector<uint32_t> picks(inputs.pool.size());
  std::vector<double> offsets(inputs.pool.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    picks[i] = static_cast<uint32_t>(i);
    offsets[i] = static_cast<double>(i) / 8000.0;
  }
  const PhaseResult probe =
      serving->client->Run(inputs.pool, picks, offsets, false);
  serving->cursor = start;
  const Checked checked = CheckPhase(probe, &expected, audit);
  audit->attempted += probe.records.size();
  audit->failed += checked.failed;
  std::printf("# post-update probe: %zu replies, %zu failed, %zu wrong\n",
              probe.records.size(), checked.failed, checked.wrong);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const WorkloadSpec& w : AllWorkloads()) names += std::string(" ") + w.name;
    Die("unknown --workload '" + args.workload + "'; one of:" + names);
  }
  const double seconds = args.smoke ? std::min(args.seconds, 1.0) : args.seconds;
  // One directory per workload, rewritten by every run: the fleet does
  // not depend on the seed, and the checkout's disk is not the place to
  // keep a fleet per run.
  const std::string artifact_dir = args.out + "/artifacts/" + spec->name;
  std::printf("# servebench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u connections=%d client_threads=%d\n",
              spec->name, static_cast<unsigned long long>(args.seed), seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              kConnections, spec->update_ups > 0 ? 3 : 2);

  auto inputs =
      MakeInputs(*spec, args.seed, kFixedRateAttempts * seconds, artifact_dir);
  if (!inputs.ok()) Die("inputs: " + inputs.status().ToString());
  std::printf("# fleet: %zu venues, %.1f MB resident when eager; pool %zu "
              "requests; %zu updates generated\n",
              inputs->venues.size(),
              static_cast<double>(inputs->fleet_bytes) / (1 << 20),
              inputs->pool.size(), inputs->updates.size());
  const std::vector<uint64_t>* expected =
      spec->update_ups > 0 ? nullptr : &inputs->expected;

  Audit audit;
  std::vector<Metric> metrics;
  const int repeats = args.trace || args.smoke ? 1 : kSetupRepeats;
  std::vector<double> setups;
  Serving serving;
  for (int k = 0; k < repeats; ++k) {
    if (serving.server) {
      TearDown(&serving, audit.sent, 0, &audit);
      serving = Serving{};
    }
    // peak_rss_mb covers the last set-up and the serving after it: not
    // MakeInputs' oracle catalog, nor an earlier set-up's catalog.
    ResetPeakRss();
    audit.sent = 0;
    const int64_t t0 = NowNs();
    serving = BringUp(*spec, *inputs);
    setups.push_back(1e-9 * static_cast<double>(NowNs() - t0));
    WarmConnections(*inputs, &serving, &audit);
  }

  UpdateStreamer streamer(&serving.server->service(), &inputs->updates);
  if (spec->update_ups > 0) streamer.Start();
  const uint64_t fixed_seed = args.seed * 31 + 7;
  std::vector<UpdateRecord> committed;
  size_t served_attempted = 0, served_failed = 0;

  if (!args.trace) {
    // Host stalls that make the generator late also slow the server, so
    // a distorted phase is measured once more rather than failing the
    // run; a second distorted phase fails it.
    FixedRate fixed;
    for (int attempt = 0;; ++attempt) {
      fixed = FixedRate{};  // a rejected phase's records leave peak RSS
      fixed = MeasureFixedRate(&serving, *inputs, spec->rate_qps, seconds,
                               fixed_seed + attempt);
      served_attempted += fixed.phase.records.size();
      served_failed += CheckPhase(fixed.phase, expected, &audit).failed;
      const Summary& latency = fixed.latency;
      std::printf("# fixed rate %.0f q/s: p50 %.1f us, p99 %.1f us, highest "
                  "supported p%g = %.1f us, max %.1f us (n=%zu); from the "
                  "actual send: p50 %.1f us, windowed p99 %.1f us; generator "
                  "lag p50 %.1f us, p99 %.1f us\n",
                  spec->rate_qps, latency.p50, latency.p99,
                  100 * latency.top_q, latency.top, latency.max, latency.n,
                  fixed.sent.p50, fixed.sent_p99, fixed.lag.p50,
                  fixed.lag.p99);
      if (args.smoke || fixed.LagAcceptable()) break;
      const std::string why =
          "generator lag accounts for " +
          std::to_string(100 * SendLagShare(latency.p50, fixed.sent.p50)) +
          "% of latency_p50_us and " +
          std::to_string(100 * SendLagShare(fixed.p99, fixed.sent_p99)) +
          "% of latency_p99_us, over " +
          std::to_string(100 * kMaxSendLagShare) + "%";
      if (attempt + 1 == kFixedRateAttempts) {
        audit.Problem(why);
        break;
      }
      std::printf("# fixed-rate phase rejected: %s; measuring again\n",
                  why.c_str());
    }
    if (spec->update_ups > 0) committed = streamer.Stop();
    // Read before CheckAfterUpdates builds its oracle catalog.
    const double rss = PeakRssMb();
    if (!args.smoke && !SupportsP99(fixed.latency.n)) {
      audit.Problem("only " + std::to_string(fixed.latency.n) +
                    " latency samples: p99 needs 1000");
    }
    std::printf("# set-ups (s):");
    for (double t : setups) std::printf(" %.4f", t);
    std::printf("\n");
    metrics.push_back({"setup_s", Median(setups), "s", setups.size()});
    metrics.push_back(
        {"latency_p50_us", fixed.latency.p50, "us", fixed.latency.n});
    metrics.push_back({"latency_p99_us", fixed.p99, "us", fixed.latency.n});
    metrics.push_back({"peak_rss_mb", rss, "MB", 1});
  } else {
    const PhaseResult plain = RunPhase(&serving, *inputs, spec->rate_qps,
                                       seconds / 2, fixed_seed, false);
    served_failed = CheckPhase(plain, expected, &audit).failed;
    const itspq::ServiceStats before = serving.server->service().Stats();
    serving.cursor = 0;
    const PhaseResult traced = RunPhase(&serving, *inputs, spec->rate_qps,
                                        seconds / 2, fixed_seed, true);
    const itspq::ServiceStats after = serving.server->service().Stats();
    served_failed += CheckPhase(traced, expected, &audit).failed;
    served_attempted = plain.records.size() + traced.records.size();
    if (spec->update_ups > 0) committed = streamer.Stop();

    double plain_rtt = 0;
    for (const Record& r : plain.records) plain_rtt += r.RoundTripUs();
    plain_rtt /= static_cast<double>(plain.records.size());
    LayerRun run;
    run.spec = spec;
    run.inputs = &*inputs;
    run.seed = args.seed;
    run.traced = &traced.records;
    run.untraced_mean_rtt_us = plain_rtt;
    run.updates = &committed;
    run.before = before;
    run.after = after;
    run.artifact_dir = artifact_dir;
    SpanLog log;
    auto layers = MeasureLayers(run, &log);
    if (!layers.ok()) Die("layers: " + layers.status().ToString());
    metrics = std::move(*layers);
    // The latest traced run of each workload is kept.
    const std::string trace_path = args.out + "/trace-" + spec->name + ".csv";
    const itspq::Status written = log.Write(trace_path);
    if (!written.ok()) Die("trace: " + written.ToString());
    std::printf("# %zu spans written to %s\n", log.spans().size(),
                trace_path.c_str());
  }

  // A rejected update counts as a failure; the served state afterwards
  // must equal the committed updates applied to a fresh catalog.
  size_t update_failed = 0;
  std::vector<double> commits;
  for (const UpdateRecord& u : committed) {
    if (!u.ok) ++update_failed;
    commits.push_back(u.CommitUs());
  }
  if (spec->update_ups > 0) {
    CheckAfterUpdates(*inputs, committed, &serving, &audit);
    const Summary commit = Summarize(&commits);
    std::printf("# updates: %zu committed; update_commit_p50_us %.1f "
                "update_commit_p99_us %.1f (n=%zu)\n",
                committed.size(), commit.p50, commit.p99, commit.n);
    if (!args.smoke && !args.trace && !SupportsP99(commit.n)) {
      audit.Problem("only " + std::to_string(commit.n) +
                    " updates: the run must carry >= 1000");
    }
  }
  TearDown(&serving, audit.sent, committed.size(), &audit);

  const size_t attempted = served_attempted + committed.size() + audit.attempted;
  const size_t failed = served_failed + update_failed + audit.failed;
  PrintMetrics(metrics);
  // Printed, not gated: the JSON carries the same as `failed`.
  PrintMetrics({{"error_rate",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "ratio", attempted}});
  const bool correct = audit.problems.empty() && audit.wrong == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
