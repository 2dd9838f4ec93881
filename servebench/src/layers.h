#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

// The traced run's layer attribution. Spans are recorded only around
// calls the benchmark itself makes into the library's public functions
// — the client's encode/send/decode, QueryService::Submit on a second,
// identically seeded service, direct ShardedRouter::Route, the wire
// codecs on each request's own bytes, VenueCatalog::ApplyAtiUpdate,
// AddArtifactShard and EnsureResident — never inside the program.
// Layers a workload's traffic does not reach (another query family,
// updates, artifacts) are probed directly on the same fleet, so every
// workload reports every layer.

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"
#include "net/server.h"
#include "server/query_service.h"
#include "workloads.h"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (1 for a count read once).
  size_t n = 1;
};

/// In-memory span log, written out when the run ends.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  ///< index of the causing span, -1 for a root
  uint64_t request_id;
};

class SpanLog {
 public:
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request_id) {
    spans_.push_back({name, start_ns, end_ns, parent, request_id});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (µs) of every span named `name`, in record order.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// One CSV line per span: index,name,start_ns,end_ns,parent,request_id.
  itspq::Status Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct LayerRun {
  const WorkloadSpec* spec = nullptr;
  const Inputs* inputs = nullptr;
  uint64_t seed = 0;
  /// The traced socket phase (request i has id i + 1).
  const std::vector<Record>* traced = nullptr;
  /// Mean round trip of the same schedule run untraced just before.
  double untraced_mean_rtt_us = 0;
  /// Live updates committed on the served service, in order.
  const std::vector<UpdateRecord>* updates = nullptr;
  /// Served-service stats around the traced phase.
  itspq::ServiceStats before;
  itspq::ServiceStats after;
  std::string artifact_dir;
};

/// Replays the traced phase layer by layer and returns the per-layer
/// metrics; spans go to `log`. Errors are setup failures, not timings.
itspq::StatusOr<std::vector<Metric>> MeasureLayers(const LayerRun& run,
                                                    SpanLog* log);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
