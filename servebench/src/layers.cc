#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "artifact/artifact.h"
#include "common/rng.h"
#include "gen/query_gen.h"
#include "query/sharded_router.h"
#include "summary.h"

namespace servebench {

using itspq::QueryKind;
using itspq::QueryRequest;
using itspq::StatusOr;

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

itspq::Status SpanLog::Write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return itspq::InternalError("cannot write " + path);
  out << "index,name,start_ns,end_ns,parent,request_id\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << s.request_id << '\n';
  }
  out.close();
  if (!out) return itspq::InternalError("short write to " + path);
  return itspq::Status::Ok();
}

namespace {

constexpr const char* kKindNames[] = {"p2p", "reachability", "nearest",
                                      "multistop"};
constexpr const char* kRouteSpans[] = {"query.route.p2p",
                                       "query.route.reachability",
                                       "query.route.nearest",
                                       "query.route.multistop"};
/// Direct probes per layer the workload's traffic does not reach.
constexpr int kProbeCount = 64;

size_t KindIndex(const QueryRequest& r) { return static_cast<size_t>(r.kind); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// One timed call: runs `fn`, records a span, returns its duration (µs).
template <typename Fn>
double Timed(SpanLog* log, const char* name, int64_t parent, uint64_t id,
             Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  log->Add(name, start, end, parent, id);
  return 1e-3 * static_cast<double>(end - start);
}

struct TimedUpdate {
  int64_t due_ns;  ///< absolute, on the served run's clock
  const itspq::AtiUpdate* update;
};

/// Submits the traced schedule into `service` (QueryService::Submit, no
/// sockets) and times each future; updates falling inside the window
/// are submitted on their schedule too. Returns µs per request.
std::vector<double> ReplayOnService(itspq::QueryService* service,
                                    const Inputs& inputs,
                                    const std::vector<Record>& traced,
                                    const std::vector<TimedUpdate>& updates,
                                    const std::vector<int64_t>& roots,
                                    SpanLog* log) {
  const size_t n = traced.size();
  const int64_t origin = traced.front().due_ns;
  std::vector<std::future<StatusOr<itspq::QueryResult>>> futures(n);
  std::vector<int64_t> submit_ns(n), done_ns(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t published = 0;  // guarded by mu
  std::thread waiter([&] {
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      futures[i].wait();
      done_ns[i] = NowNs();
    }
  });
  std::vector<std::future<itspq::Status>> update_futures;
  size_t next_update = 0;
  // Updates due before the window are the state the window starts from.
  while (next_update < updates.size() && updates[next_update].due_ns < origin) {
    service->SubmitUpdate(*updates[next_update++].update).wait();
  }
  const int64_t start = NowNs() + 2'000'000;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start + (traced[i].due_ns - origin);
    while (next_update < updates.size() &&
           updates[next_update].due_ns <= traced[i].due_ns) {
      const int64_t update_due = start + (updates[next_update].due_ns - origin);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(update_due)));
      update_futures.push_back(
          service->SubmitUpdate(*updates[next_update++].update));
    }
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
    submit_ns[i] = NowNs();
    futures[i] = service->Submit(inputs.pool[traced[i].pool_index]);
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  waiter.join();
  for (auto& f : update_futures) f.wait();
  std::vector<double> micros(n);
  for (size_t i = 0; i < n; ++i) {
    log->Add("server.submit", submit_ns[i], done_ns[i], roots[i], i + 1);
    micros[i] = 1e-3 * static_cast<double>(done_ns[i] - submit_ns[i]);
  }
  return micros;
}

}  // namespace

StatusOr<std::vector<Metric>> MeasureLayers(const LayerRun& run,
                                            SpanLog* log) {
  const Inputs& inputs = *run.inputs;
  const std::vector<Record>& traced = *run.traced;
  const size_t n = traced.size();
  if (n == 0) return itspq::InvalidArgumentError("empty traced phase");

  // ---- client spans, from the traced phase's stamps
  std::vector<int64_t> roots(n);
  for (size_t i = 0; i < n; ++i) {
    const Record& r = traced[i];
    const uint64_t id = i + 1;
    roots[i] = log->Add("client.request", r.due_ns, r.done_ns, -1, id);
    log->Add("bench.send_lag", r.due_ns, r.sent_ns, roots[i], id);
    log->Add("net.request_encode", r.encode_ns, r.encoded_ns, roots[i], id);
    log->Add("net.round_trip", r.sent_ns, r.done_ns, roots[i], id);
    log->Add("net.reply_decode", r.recv_ns, r.done_ns, roots[i], id);
  }

  std::vector<TimedUpdate> stream;
  for (size_t j = 0; j < run.updates->size(); ++j) {
    stream.push_back({(*run.updates)[j].due_ns, &inputs.updates[j].update});
  }

  // ---- server: the same schedule on an identically seeded service
  std::vector<double> submit_us;
  {
    auto catalog = BuildCatalog(*run.spec, inputs);
    if (!catalog.ok()) return catalog.status();
    auto service = itspq::MakeQueryService(std::move(*catalog));
    if (!service.ok()) return service.status();
    itspq::QueryContext warm;
    for (const QueryRequest& r : inputs.pool) {
      (void)(*service)->router().Route(r, &warm);
    }
    submit_us =
        ReplayOnService(service->get(), inputs, traced, stream, roots, log);
    (*service)->Shutdown();
  }

  // ---- query + net codecs: direct Route and the codecs on each
  // request's own bytes, interleaved with the live updates in order
  auto direct = BuildEagerCatalog(inputs);
  if (!direct.ok()) return direct.status();
  itspq::ShardedRouter router(*direct);
  itspq::QueryContext context;
  for (const QueryRequest& r : inputs.pool) (void)router.Route(r, &context);

  std::vector<double> apply_us;
  double carried = 0, rebased = 0, invalidated = 0;
  size_t next_update = 0;
  auto apply = [&](const itspq::AtiUpdate& update, uint64_t id) -> itspq::Status {
    StatusOr<itspq::UpdateOutcome> outcome = itspq::InternalError("not run");
    apply_us.push_back(Timed(log, "update.apply", -1, id, [&] {
      outcome = direct->ApplyAtiUpdate(update);
    }));
    if (!outcome.ok()) return outcome.status();
    carried += static_cast<double>(outcome->snapshots_carried);
    rebased += static_cast<double>(outcome->snapshots_rebased);
    invalidated += static_cast<double>(outcome->intervals_invalidated);
    return itspq::Status::Ok();
  };

  std::vector<double> route_us(n);
  std::vector<std::vector<double>> doors_by_kind(itspq::kNumQueryKinds);
  size_t found = 0;
  double graph_updates = 0;
  for (size_t i = 0; i < n; ++i) {
    while (next_update < stream.size() &&
           stream[next_update].due_ns <= traced[i].due_ns) {
      itspq::Status applied = apply(*stream[next_update].update, next_update + 1);
      if (!applied.ok()) return applied;
      ++next_update;
    }
    const QueryRequest& request = inputs.pool[traced[i].pool_index];
    const uint64_t id = i + 1;
    const std::string frame = EncodeRequestFrame(request, id);
    Timed(log, "net.request_decode", roots[i], id, [&] {
      itspq::net::MsgType type;
      std::string_view body;
      itspq::net::WireQuery wire;
      const std::string_view payload = std::string_view(frame).substr(4);
      if (itspq::net::DecodeFrameHeader(payload, &type, &body).ok()) {
        if (type == itspq::net::MsgType::kTemporalQuery) {
          (void)itspq::net::DecodeTemporalQueryBody(body, &wire);
        } else {
          (void)itspq::net::DecodeQueryBody(body, &wire);
        }
      }
    });
    StatusOr<itspq::QueryResult> result = itspq::InternalError("not run");
    route_us[i] = Timed(log, kRouteSpans[KindIndex(request)], roots[i], id,
                        [&] { result = router.Route(request, &context); });
    Timed(log, "net.reply_encode", roots[i], id, [&] {
      (void)itspq::net::EncodeReplyFrame(itspq::net::MakeReply(id, result),
                                         ReplyType(request));
    });
    if (result.ok()) {
      if (result->found) ++found;
      doors_by_kind[KindIndex(request)].push_back(
          static_cast<double>(result->stats.doors_popped));
      graph_updates += static_cast<double>(result->stats.graph_updates);
    }
  }
  while (next_update < stream.size()) {
    itspq::Status applied = apply(*stream[next_update].update, next_update + 1);
    if (!applied.ok()) return applied;
    ++next_update;
  }

  // ---- probes of query families the traffic does not carry
  itspq::Rng rng(run.seed * 977 + 5);
  const int venues = static_cast<int>(direct->NumVenues());
  for (size_t kind = 1; kind < itspq::kNumQueryKinds; ++kind) {
    if (!doors_by_kind[kind].empty()) continue;
    for (int v = 0; v < venues && static_cast<int>(doors_by_kind[kind].size()) < kProbeCount; ++v) {
      itspq::FamilyGenConfig family;
      family.kind = static_cast<QueryKind>(kind);
      family.num_queries = std::max(1, kProbeCount / venues);
      family.seed = rng.Next();
      family.min_departure_seconds = 9 * 3600.0;
      family.max_departure_seconds = 20 * 3600.0;
      auto requests = itspq::GenerateFamilyQueries(direct->graph(v), family);
      if (!requests.ok()) return requests.status();
      for (QueryRequest& request : *requests) {
        request.venue_id = v;
        request.options.use_snapshot_cache = true;
        StatusOr<itspq::QueryResult> result = itspq::InternalError("not run");
        Timed(log, kRouteSpans[kind], -1, 0,
              [&] { result = router.Route(request, &context); });
        if (result.ok()) {
          doors_by_kind[kind].push_back(
              static_cast<double>(result->stats.doors_popped));
        }
      }
    }
  }

  // ---- update probe where the traffic carries no updates: apply
  // directly, then commit through a service's SubmitUpdate
  std::vector<double> commit_us;
  if (stream.empty()) {
    itspq::UpdateStreamConfig config;
    config.num_updates = kProbeCount;
    config.seed = run.seed * 977 + 6;
    auto probes = itspq::GenerateUpdateStream(*direct, config);
    if (!probes.ok()) return probes.status();
    auto catalog = BuildCatalog(*run.spec, inputs);
    if (!catalog.ok()) return catalog.status();
    auto service = itspq::MakeQueryService(std::move(*catalog));
    if (!service.ok()) return service.status();
    for (size_t j = 0; j < probes->size(); ++j) {
      itspq::Status applied = apply((*probes)[j].update, j + 1);
      if (!applied.ok()) return applied;
      itspq::Status committed = itspq::Status::Ok();
      commit_us.push_back(Timed(log, "update.commit", -1, j + 1, [&] {
        committed = (*service)->SubmitUpdate((*probes)[j].update).get();
      }));
      if (!committed.ok()) return committed;
    }
    (*service)->Shutdown();
  } else {
    for (size_t j = 0; j < run.updates->size(); ++j) {
      const UpdateRecord& u = (*run.updates)[j];
      log->Add("update.commit", u.submit_ns, u.commit_ns, -1, j + 1);
      commit_us.push_back(u.CommitUs());
    }
  }
  std::vector<double> queue_wait;
  for (size_t j = 0; j < std::min(commit_us.size(), apply_us.size()); ++j) {
    queue_wait.push_back(std::max(0.0, commit_us[j] - apply_us[j]));
  }

  // ---- artifact: register the fleet's artifacts and cold-load each
  std::vector<std::string> paths = inputs.artifacts;
  if (paths.empty()) {
    const std::string dir = run.artifact_dir + "/probe";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    for (size_t v = 0; v < inputs.venues.size(); ++v) {
      paths.push_back(dir + "/venue" + std::to_string(v) + ".itspq");
      itspq::Status written =
          itspq::WriteVenueArtifact(paths.back(), inputs.venues[v]);
      if (!written.ok()) return written;
    }
  }
  std::vector<double> register_us, load_us;
  {
    itspq::VenueCatalog lazy;
    for (size_t v = 0; v < paths.size(); ++v) {
      itspq::Status registered = itspq::Status::Ok();
      register_us.push_back(Timed(log, "artifact.register", -1, v, [&] {
        registered = lazy.AddArtifactShard(paths[v], kStrategy).status();
      }));
      if (!registered.ok()) return registered;
    }
    for (size_t v = 0; v < paths.size(); ++v) {
      itspq::Status loaded = itspq::Status::Ok();
      load_us.push_back(Timed(log, "artifact.load", -1, v, [&] {
        loaded = lazy.EnsureResident(static_cast<itspq::VenueId>(v)).status();
      }));
      if (!loaded.ok()) return loaded;
    }
  }

  // ---- derived numbers
  std::vector<double> edge(n), wait(n);
  double p2p_rtt = 0, p2p_edge = 0, p2p_wait = 0, p2p_route = 0;
  size_t p2p = 0;
  for (size_t i = 0; i < n; ++i) {
    const double rtt = traced[i].RoundTripUs();
    edge[i] = std::max(0.0, rtt - submit_us[i]);
    wait[i] = std::max(0.0, submit_us[i] - route_us[i]);
    if (inputs.pool[traced[i].pool_index].kind == QueryKind::kPointToPoint) {
      ++p2p;
      p2p_rtt += rtt;
      p2p_edge += edge[i];
      p2p_wait += wait[i];
      p2p_route += route_us[i];
    }
  }
  std::vector<double> rtts;
  for (const Record& r : traced) rtts.push_back(r.RoundTripUs());
  const double traced_rtt = Mean(rtts);
  if (p2p > 0) {
    const double k = 1.0 / static_cast<double>(p2p);
    std::printf("# p2p round trip %.1f us = edge %.1f + wait %.1f + route %.1f "
                "+ residual %.1f us (n=%zu)\n",
                p2p_rtt * k, p2p_edge * k, p2p_wait * k, p2p_route * k,
                (p2p_rtt - p2p_edge - p2p_wait - p2p_route) * k, p2p);
  }

  std::vector<Metric> m;
  auto mean_of = [&](const char* metric, const std::string& span,
                     const char* unit) {
    const std::vector<double> d = log->DurationsUs(span);
    m.push_back({metric, Mean(d), unit, d.size()});
  };
  auto quantiles = [&](const std::string& prefix, std::vector<double> v) {
    const Summary s = Summarize(&v);
    m.push_back({prefix + ".p50", s.p50, "us", s.n});
    m.push_back({prefix + ".p99", s.p99, "us", s.n});
  };

  mean_of("net.request_encode_us", "net.request_encode", "us");
  mean_of("net.request_decode_us", "net.request_decode", "us");
  mean_of("net.reply_encode_us", "net.reply_encode", "us");
  mean_of("net.reply_decode_us", "net.reply_decode", "us");
  {
    double req = 0, rep = 0;
    for (const Record& r : traced) {
      req += r.request_bytes;
      rep += r.reply_bytes;
    }
    m.push_back({"net.request_bytes", req / static_cast<double>(n), "B", n});
    m.push_back({"net.reply_bytes", rep / static_cast<double>(n), "B", n});
  }
  quantiles("net.edge_us", edge);

  quantiles("server.submit_us", submit_us);
  m.push_back({"server.wait_us", Mean(wait), "us", n});
  const itspq::ServiceStats& a = run.after;
  const itspq::ServiceStats& b = run.before;
  m.push_back({"server.batch_size_mean",
               a.batches > b.batches
                   ? static_cast<double>(a.served - b.served) /
                         static_cast<double>(a.batches - b.batches)
                   : 0.0,
               "count", a.batches - b.batches});
  m.push_back({"server.queue_high_water",
               static_cast<double>(a.queue_high_water), "count", 1});

  for (size_t kind = 0; kind < itspq::kNumQueryKinds; ++kind) {
    const std::string prefix = std::string("query.route_us.") + kKindNames[kind];
    quantiles(prefix, log->DurationsUs(kRouteSpans[kind]));
  }
  for (size_t kind = 0; kind < itspq::kNumQueryKinds; ++kind) {
    m.push_back({std::string("query.doors_popped.") + kKindNames[kind],
                 Mean(doors_by_kind[kind]), "count",
                 doors_by_kind[kind].size()});
  }
  m.push_back({"query.found_ratio",
               static_cast<double>(found) / static_cast<double>(n), "ratio", n});

  // Store counters restart with every new epoch and vanish with an
  // evicted shard, so these are totals of the stores resident now.
  const itspq::CacheStatsSnapshot& cache = a.catalog.total_cache;
  const size_t lookups = cache.hits + cache.misses;
  m.push_back({"itgraph.snapshot_hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               "ratio", lookups});
  m.push_back({"itgraph.snapshot_builds_full",
               static_cast<double>(cache.full_builds), "count", 1});
  m.push_back({"itgraph.snapshot_builds_delta",
               static_cast<double>(cache.delta_builds), "count", 1});
  m.push_back({"itgraph.graph_updates_per_query",
               graph_updates / static_cast<double>(n), "count", n});
  m.push_back({"itgraph.snapshot_bytes",
               static_cast<double>(cache.resident_bytes), "B", 1});

  const double updates = static_cast<double>(std::max<size_t>(1, apply_us.size()));
  m.push_back({"update.apply_us", Mean(apply_us), "us", apply_us.size()});
  m.push_back({"update.queue_wait_us", Mean(queue_wait), "us", queue_wait.size()});
  quantiles("update.commit_us", commit_us);
  m.push_back({"update.snapshots_carried", carried / updates, "count", apply_us.size()});
  m.push_back({"update.snapshots_rebased", rebased / updates, "count", apply_us.size()});
  m.push_back({"update.intervals_invalidated", invalidated / updates, "count",
               apply_us.size()});

  m.push_back({"artifact.register_us", Mean(register_us), "us", register_us.size()});
  m.push_back({"artifact.load_us", Mean(load_us), "us", load_us.size()});
  const size_t queries = a.submitted - b.submitted;
  m.push_back({"catalog.cold_load_ratio",
               queries > 0 ? static_cast<double>(a.catalog.total_loads -
                                                 b.catalog.total_loads) /
                                 static_cast<double>(queries)
                           : 0.0,
               "ratio", queries});
  m.push_back({"catalog.evictions",
               static_cast<double>(a.catalog.total_shard_evictions -
                                   b.catalog.total_shard_evictions),
               "count", 1});
  m.push_back({"catalog.resident_bytes",
               static_cast<double>(a.catalog.total_memory_bytes), "B", 1});

  {
    std::vector<double> lags = log->DurationsUs("bench.send_lag");
    const Summary lag = Summarize(&lags);
    m.push_back({"bench.send_lag_p99_us", lag.p99, "us", lag.n});
  }
  m.push_back({"bench.tracing_overhead_pct",
               100.0 * (traced_rtt / run.untraced_mean_rtt_us - 1.0), "%", n});
  return m;
}

}  // namespace servebench
