#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <limits>
#include <utility>

#include "artifact/artifact.h"
#include "common/rng.h"
#include "gen/query_gen.h"
#include "query/sharded_router.h"

namespace servebench {

using itspq::QueryKind;
using itspq::QueryRequest;
using itspq::Status;
using itspq::StatusOr;
using itspq::Venue;
using itspq::VenueCatalog;

const std::vector<WorkloadSpec>& AllWorkloads() {
  // name, rate, update rate, venues, floors, families, residency share,
  // pool.
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Edge-bound: ~6 µs routes, so latency is sockets + batching linger.
      {"interactive", 2000, 0, 8, 1, 3, false, 0, 4096},
      // Search-bound: paper-sized venues, four query families.
      {"families", 6000, 0, 4, 5, 5, true, 0, 1024},
      // interactive's reads beside a live SubmitUpdate stream.
      {"live_updates", 2000, 200, 8, 1, 3, false, 0, 4096},
      // Working set above the residency budget: artifact loads and
      // evictions on the request path.
      {"cold_fleet", 1000, 0, 64, 1, 3, false, 0.5, 4096},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

/// The venues are the deployment, the same on every run; --seed drives
/// the traffic, the arrival schedule and the update stream.
constexpr uint64_t kFleetSeed = 2020;
constexpr double kDayStart = 9 * 3600.0;
constexpr double kDayEnd = 20 * 3600.0;

/// Four-family mix on each venue: p2p at δs2t = 1500 m, reachability,
/// k-nearest-facility and multi-stop, in equal shares, shuffled.
StatusOr<std::vector<QueryRequest>> FamilyPool(const VenueCatalog& catalog,
                                               int pool_size,
                                               uint64_t seed) {
  const int venues = static_cast<int>(catalog.NumVenues());
  const int per_cell = std::max(1, pool_size / (4 * venues));
  std::vector<QueryRequest> pool;
  itspq::Rng rng(seed);
  for (int v = 0; v < venues; ++v) {
    const itspq::ItGraph& graph = catalog.graph(v);
    itspq::QueryGenConfig pairs;
    pairs.s2t_distance = 1500;
    pairs.tolerance = 150;
    pairs.num_pairs = per_cell;
    pairs.seed = rng.Next();
    auto p2p = itspq::GenerateQueries(graph, pairs);
    if (!p2p.ok()) return p2p.status();
    for (const itspq::QueryInstance& q : *p2p) {
      QueryRequest request;
      request.source = q.ps;
      request.target = q.pt;
      request.departure = itspq::Instant(rng.UniformDouble(kDayStart, kDayEnd));
      request.venue_id = v;
      pool.push_back(std::move(request));
    }
    for (QueryKind kind : {QueryKind::kReachability, QueryKind::kNearestFacility,
                           QueryKind::kMultiStop}) {
      itspq::FamilyGenConfig family;
      family.kind = kind;
      family.num_queries = per_cell;
      family.seed = rng.Next();
      family.min_departure_seconds = kDayStart;
      family.max_departure_seconds = kDayEnd;
      auto requests = itspq::GenerateFamilyQueries(graph, family);
      if (!requests.ok()) return requests.status();
      for (QueryRequest& request : *requests) {
        request.venue_id = v;
        pool.push_back(std::move(request));
      }
    }
  }
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.UniformIndex(i)]);
  }
  for (QueryRequest& request : pool) request.options.use_snapshot_cache = true;
  return pool;
}

}  // namespace

StatusOr<VenueCatalog> BuildEagerCatalog(const Inputs& inputs) {
  VenueCatalog catalog;
  for (const Venue& venue : inputs.venues) {
    auto id = catalog.AddVenue(venue, kStrategy);
    if (!id.ok()) return id.status();
  }
  return catalog;
}

StatusOr<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                            double update_seconds,
                            const std::string& artifact_dir) {
  Inputs inputs;
  itspq::FleetConfig fleet;
  fleet.num_venues = spec.num_venues;
  fleet.seed = kFleetSeed;
  fleet.min_floors = spec.min_floors;
  fleet.max_floors = spec.max_floors;
  if (spec.families) fleet.min_shop_rows = fleet.max_shop_rows = 4;
  auto venues = itspq::GenerateVenueFleet(fleet);
  if (!venues.ok()) return venues.status();
  inputs.venues = std::move(*venues);

  auto catalog = BuildEagerCatalog(inputs);
  if (!catalog.ok()) return catalog.status();

  if (spec.families) {
    auto pool = FamilyPool(*catalog, spec.pool_size, seed + 1);
    if (!pool.ok()) return pool.status();
    inputs.pool = std::move(*pool);
  } else {
    itspq::MultiVenueWorkloadConfig traffic;
    traffic.num_requests = spec.pool_size;
    traffic.seed = seed + 1;
    traffic.options.use_snapshot_cache = true;
    auto pool = itspq::GenerateMultiVenueWorkload(*catalog, traffic);
    if (!pool.ok()) return pool.status();
    inputs.pool = std::move(*pool);
  }

  if (spec.update_ups > 0) {
    itspq::UpdateStreamConfig stream;
    stream.num_updates =
        static_cast<int>(std::ceil(spec.update_ups * update_seconds * 1.25)) +
        64;
    stream.seed = seed + 2;
    stream.offered_ups = spec.update_ups;
    auto updates = itspq::GenerateUpdateStream(*catalog, stream);
    if (!updates.ok()) return updates.status();
    inputs.updates = std::move(*updates);
  }

  inputs.expected = ExpectedHashes(*catalog, inputs.pool);
  inputs.fleet_bytes = catalog->Stats().total_memory_bytes;

  if (spec.residency_fraction > 0) {
    std::error_code ec;
    std::filesystem::create_directories(artifact_dir, ec);
    if (ec) {
      return itspq::InternalError("cannot create " + artifact_dir + ": " +
                                  ec.message());
    }
    for (size_t v = 0; v < inputs.venues.size(); ++v) {
      std::string path = artifact_dir + "/venue" + std::to_string(v) + ".itspq";
      Status written = itspq::WriteVenueArtifact(path, inputs.venues[v]);
      if (!written.ok()) return written;
      inputs.artifacts.push_back(std::move(path));
    }
  }
  return inputs;
}

StatusOr<VenueCatalog> BuildCatalog(const WorkloadSpec& spec,
                                    const Inputs& inputs) {
  if (spec.residency_fraction <= 0) return BuildEagerCatalog(inputs);
  VenueCatalog catalog;
  for (const std::string& path : inputs.artifacts) {
    auto id = catalog.AddArtifactShard(path, kStrategy);
    if (!id.ok()) return id.status();
  }
  const size_t budget = static_cast<size_t>(
      spec.residency_fraction * static_cast<double>(inputs.fleet_bytes));
  Status budgeted = catalog.SetResidencyBudget(budget, "lru");
  if (!budgeted.ok()) return budgeted;
  return catalog;
}

std::string EncodeRequestFrame(const QueryRequest& request,
                               uint64_t request_id) {
  const itspq::net::WireQuery wire = itspq::net::FromQueryRequest(
      request, request_id, itspq::QosClass::kInteractive,
      std::numeric_limits<double>::infinity());
  return UsesTemporalCodec(request) ? itspq::net::EncodeTemporalQueryFrame(wire)
                                    : itspq::net::EncodeQueryFrame(wire);
}

uint64_t ReplyHash(std::string_view body) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = sizeof(uint64_t); i < body.size(); ++i) {
    hash ^= static_cast<unsigned char>(body[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// ReplyHash of the reply the server would send for `result`.
uint64_t ExpectedReplyHash(const QueryRequest& request,
                           const StatusOr<itspq::QueryResult>& result) {
  const std::string frame = itspq::net::EncodeReplyFrame(
      itspq::net::MakeReply(0, result), ReplyType(request));
  // Skip the 4-byte length prefix and the type byte.
  return ReplyHash(std::string_view(frame).substr(5));
}

}  // namespace

std::vector<uint64_t> ExpectedHashes(const VenueCatalog& catalog,
                                     const std::vector<QueryRequest>& pool) {
  itspq::ShardedRouter router(catalog);
  itspq::QueryContext context;
  std::vector<uint64_t> hashes;
  hashes.reserve(pool.size());
  for (const QueryRequest& request : pool) {
    hashes.push_back(ExpectedReplyHash(request, router.Route(request, &context)));
  }
  return hashes;
}

}  // namespace servebench
