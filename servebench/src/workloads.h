#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

// The benchmark's named workloads and the inputs a run generates: the
// venue fleet (the same on every run), and from the seed the pool of
// distinct requests the traffic cycles through, the live update stream
// and the expected reply of every pool entry. The program under test
// only ever sees these generated inputs.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "gen/workload_gen.h"
#include "net/wire.h"
#include "query/router.h"
#include "query/venue_catalog.h"
#include "venue/venue.h"

namespace servebench {

/// Monotonic nanoseconds (steady_clock), the one time base of the run.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr const char* kStrategy = "itg-a+";

struct WorkloadSpec {
  const char* name;
  /// Offered rate of the fixed-rate phase, queries per second.
  double rate_qps;
  /// Live SubmitUpdate stream, updates per second (0 = none).
  double update_ups;
  /// Fleet shape: venue count and floors per venue.
  int num_venues;
  int min_floors;
  int max_floors;
  /// Four-family mix on paper-sized venues instead of Zipf p2p.
  bool families;
  /// Shards registered from `.itspq` artifacts under a residency budget
  /// of this share of the fleet's resident bytes (0 = eager shards).
  double residency_fraction;
  /// Distinct requests the traffic cycles through.
  int pool_size;
};

/// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// Everything a run feeds the program.
struct Inputs {
  std::vector<itspq::Venue> venues;
  std::vector<itspq::QueryRequest> pool;
  /// Live updates in submission order (empty unless update_ups > 0).
  std::vector<itspq::TimedAtiUpdate> updates;
  /// Reply hash (ReplyHash) of each pool entry on the fleet's epoch 0,
  /// from a direct ShardedRouter::Route on an eager catalog.
  std::vector<uint64_t> expected;
  /// Resident bytes of the whole fleet when eagerly built.
  size_t fleet_bytes = 0;
  /// Artifact path per venue (residency workloads only).
  std::vector<std::string> artifacts;
};

/// Generates the inputs. `update_seconds` sizes the update stream;
/// `artifact_dir` receives the fleet's artifacts when the workload
/// registers shards lazily.
itspq::StatusOr<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                   double update_seconds,
                                   const std::string& artifact_dir);

/// Builds a serving catalog for the workload: eager AddVenue shards, or
/// artifact shards under the workload's residency budget.
itspq::StatusOr<itspq::VenueCatalog> BuildCatalog(const WorkloadSpec& spec,
                                                  const Inputs& inputs);

/// An eager catalog of the fleet (the correctness oracle's).
itspq::StatusOr<itspq::VenueCatalog> BuildEagerCatalog(const Inputs& inputs);

/// Point-to-point requests travel as kQuery, the families as
/// kTemporalQuery.
inline bool UsesTemporalCodec(const itspq::QueryRequest& request) {
  return request.kind != itspq::QueryKind::kPointToPoint;
}

/// The frame type the server answers `request` with: its request's codec.
inline itspq::net::MsgType ReplyType(const itspq::QueryRequest& request) {
  return UsesTemporalCodec(request) ? itspq::net::MsgType::kTemporalReply
                                    : itspq::net::MsgType::kQueryReply;
}

/// The request's wire frame, exactly as the benchmark's client sends it:
/// interactive class, no deadline.
std::string EncodeRequestFrame(const itspq::QueryRequest& request,
                               uint64_t request_id);

/// FNV-1a 64 of a reply body (the frame after its type byte) with the
/// request id skipped, so equal answers hash equally whatever the id.
uint64_t ReplyHash(std::string_view body);

/// Hashes of a direct Route of every pool entry on `catalog`.
std::vector<uint64_t> ExpectedHashes(
    const itspq::VenueCatalog& catalog,
    const std::vector<itspq::QueryRequest>& pool);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
