#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

// The open-loop load generator: one sender and one receiver thread over
// a few loopback connections, built on the public net/socket.h and
// net/wire.h functions (NetClient is one-instance-per-thread, so it
// cannot split sending from receiving).
//
// The sender keeps to a precomputed schedule no matter how far behind
// the server falls, spinning rather than sleeping until each due time;
// requests due at the same instant go out in one send
// per connection. The receiver polls every connection, decodes each
// reply as it lands and stamps it. Latency is timed from the scheduled
// send, so a stall also charges the requests queued behind it, and the
// sender's lateness is recorded so a run can reject itself when the
// generator, not the server, set the pace.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "gen/workload_gen.h"
#include "net/socket.h"
#include "query/router.h"
#include "server/query_service.h"

namespace servebench {

/// One request's life as the client saw it. Times are NowNs() values;
/// encode/recv stamps are taken only on traced runs.
struct Record {
  int64_t due_ns = 0;
  int64_t encode_ns = 0;  ///< encode start (traced)
  int64_t encoded_ns = 0; ///< encode end (traced)
  int64_t sent_ns = 0;    ///< frame handed to send()
  int64_t recv_ns = 0;    ///< frame complete, decode start (traced)
  int64_t done_ns = 0;    ///< reply decoded
  uint64_t hash = 0;      ///< ReplyHash of the reply body
  uint32_t pool_index = 0;
  uint32_t request_bytes = 0;
  uint32_t reply_bytes = 0;
  itspq::StatusCode code = itspq::StatusCode::kInternal;
  bool replied = false;

  double LatencyUs() const { return 1e-3 * static_cast<double>(done_ns - due_ns); }
  double RoundTripUs() const { return 1e-3 * static_cast<double>(done_ns - sent_ns); }
  double SendLagUs() const { return 1e-3 * static_cast<double>(sent_ns - due_ns); }
};

struct PhaseResult {
  std::vector<Record> records;
  bool transport_ok = true;
  std::string error;
};

class LoadClient {
 public:
  static itspq::StatusOr<std::unique_ptr<LoadClient>> Connect(
      uint16_t port, int connections);

  /// Sends request i (pool entry picks[i], request id i + 1, connection
  /// i % connections) at start + offsets[i] seconds, where start is a
  /// moment after the call, and returns when every reply has arrived
  /// or the transport failed.
  PhaseResult Run(const std::vector<itspq::QueryRequest>& pool,
                  const std::vector<uint32_t>& picks,
                  const std::vector<double>& offsets, bool traced);

 private:
  explicit LoadClient(std::vector<itspq::net::ScopedFd> fds)
      : fds_(std::move(fds)) {}

  std::vector<itspq::net::ScopedFd> fds_;
};

/// One committed (or failed) live update.
struct UpdateRecord {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t commit_ns = 0;
  bool ok = false;

  double CommitUs() const { return 1e-3 * static_cast<double>(commit_ns - submit_ns); }
};

/// Submits a live update stream into a QueryService on its Poisson
/// schedule from its own thread, timing each SubmitUpdate until its
/// future resolves. The updater commits strictly in FIFO order, so the
/// thread waits on the oldest outstanding future between submissions.
class UpdateStreamer {
 public:
  UpdateStreamer(itspq::QueryService* service,
                 const std::vector<itspq::TimedAtiUpdate>* stream);
  ~UpdateStreamer();
  UpdateStreamer(const UpdateStreamer&) = delete;
  UpdateStreamer& operator=(const UpdateStreamer&) = delete;

  void Start();
  /// Stops submitting, waits for every submitted update to resolve and
  /// returns their records (the submitted prefix of the stream).
  std::vector<UpdateRecord> Stop();

 private:
  void Loop(int64_t start_ns);

  itspq::QueryService* service_;
  const std::vector<itspq::TimedAtiUpdate>* stream_;
  std::atomic<bool> stop_{false};
  std::vector<UpdateRecord> records_;
  std::thread thread_;
};

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
