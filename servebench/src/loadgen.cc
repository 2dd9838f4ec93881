#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <string_view>

#include "net/wire.h"
#include "workloads.h"

namespace servebench {

namespace {

using itspq::net::MsgType;

/// A receiver that sees no reply for this long gives the phase up.
constexpr int64_t kStallNs = 30'000'000'000;
/// Frames gathered into one send() at most, so a burst still leaves
/// promptly.
constexpr size_t kMaxFramesPerSend = 64;

void SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

/// Waits for the deadline without sleeping. Waking a sleeping thread on
/// an idle virtual CPU can take milliseconds on a shared host, which
/// would make the generator, not the server, late; yielding keeps the
/// CPU available to any other runnable thread.
void SpinUntilNs(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) std::this_thread::yield();
}

/// Shared between the phase's two threads: the first failure wins.
struct PhaseState {
  std::mutex mu;
  std::string error;  // guarded by mu
  std::atomic<bool> failed{false};

  void Fail(std::string message) {
    std::lock_guard<std::mutex> lock(mu);
    if (error.empty()) error = std::move(message);
    failed.store(true);
  }
};

void SenderLoop(const std::vector<itspq::net::ScopedFd>& fds,
                const std::vector<itspq::QueryRequest>& pool,
                const std::vector<uint32_t>& picks, bool traced,
                std::vector<Record>* records, PhaseState* state) {
  const size_t n = records->size();
  const size_t conns = fds.size();
  std::vector<std::string> out(conns);
  std::vector<std::vector<size_t>> batch(conns);
  size_t next = 0;
  while (next < n && !state->failed.load(std::memory_order_relaxed)) {
    SpinUntilNs((*records)[next].due_ns);
    // Everything due by now leaves in one send per connection.
    size_t gathered = 0;
    const int64_t now = NowNs();
    while (next < n && (*records)[next].due_ns <= now &&
           gathered < kMaxFramesPerSend) {
      Record& record = (*records)[next];
      if (traced) record.encode_ns = NowNs();
      const std::string frame =
          EncodeRequestFrame(pool[picks[next]], static_cast<uint64_t>(next) + 1);
      if (traced) record.encoded_ns = NowNs();
      record.request_bytes = static_cast<uint32_t>(frame.size());
      const size_t c = next % conns;
      out[c] += frame;
      batch[c].push_back(next);
      ++next;
      ++gathered;
    }
    for (size_t c = 0; c < conns; ++c) {
      if (out[c].empty()) continue;
      const int64_t sent = NowNs();
      for (size_t i : batch[c]) (*records)[i].sent_ns = sent;
      itspq::Status status = itspq::net::WriteFrame(fds[c].get(), out[c]);
      if (!status.ok()) {
        state->Fail("send: " + status.ToString());
        return;
      }
      out[c].clear();
      batch[c].clear();
    }
  }
}

/// Per-connection receive buffer: bytes [head, size()) are unparsed.
struct RecvBuffer {
  std::string bytes;
  size_t head = 0;
};

void ReceiverLoop(const std::vector<itspq::net::ScopedFd>& fds, bool traced,
                  std::vector<Record>* records, PhaseState* state) {
  const size_t n = records->size();
  const size_t conns = fds.size();
  std::vector<pollfd> polls(conns);
  for (size_t c = 0; c < conns; ++c) polls[c] = {fds[c].get(), POLLIN, 0};
  std::vector<RecvBuffer> buffers(conns);
  std::vector<char> chunk(1 << 18);
  size_t received = 0;
  int64_t last_progress = NowNs();
  itspq::net::WireReply reply;
  while (received < n) {
    if (state->failed.load(std::memory_order_relaxed)) return;
    if (NowNs() - last_progress > kStallNs) {
      state->Fail("no reply for " + std::to_string(kStallNs / 1'000'000'000) +
                  " s");
      return;
    }
    const int ready = ::poll(polls.data(), polls.size(), 100);
    if (ready < 0 && errno != EINTR) {
      state->Fail(std::string("poll: ") + std::strerror(errno));
      return;
    }
    if (ready <= 0) continue;
    for (size_t c = 0; c < conns; ++c) {
      if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got =
          ::recv(fds[c].get(), chunk.data(), chunk.size(), MSG_DONTWAIT);
      if (got == 0) {
        state->Fail("server closed connection " + std::to_string(c));
        return;
      }
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        state->Fail(std::string("recv: ") + std::strerror(errno));
        return;
      }
      RecvBuffer& buf = buffers[c];
      buf.bytes.append(chunk.data(), static_cast<size_t>(got));
      for (;;) {
        const size_t avail = buf.bytes.size() - buf.head;
        if (avail < 4) break;
        uint32_t len = 0;
        std::memcpy(&len, buf.bytes.data() + buf.head, sizeof len);
        if (len == 0 || len > itspq::net::kDefaultMaxFrameBytes) {
          state->Fail("bad reply length prefix " + std::to_string(len));
          return;
        }
        if (avail < 4 + static_cast<size_t>(len)) break;
        const int64_t recv_ns = traced ? NowNs() : 0;
        const std::string_view payload(buf.bytes.data() + buf.head + 4, len);
        buf.head += 4 + static_cast<size_t>(len);
        MsgType type;
        std::string_view body;
        itspq::Status status =
            itspq::net::DecodeFrameHeader(payload, &type, &body);
        if (status.ok()) {
          if (type == MsgType::kQueryReply) {
            status = itspq::net::DecodeReplyBody(body, &reply);
          } else if (type == MsgType::kTemporalReply) {
            status = itspq::net::DecodeTemporalReplyBody(body, &reply);
          } else {
            status = itspq::InternalError("unexpected reply frame type " +
                                          std::to_string(static_cast<int>(type)));
          }
        }
        if (!status.ok()) {
          state->Fail("reply decode: " + status.ToString());
          return;
        }
        const int64_t done = NowNs();
        if (reply.request_id == 0 || reply.request_id > n ||
            (reply.request_id - 1) % conns != c ||
            (*records)[reply.request_id - 1].replied) {
          state->Fail("reply with unexpected request id " +
                      std::to_string(reply.request_id));
          return;
        }
        Record& record = (*records)[reply.request_id - 1];
        record.recv_ns = recv_ns;
        record.done_ns = done;
        record.hash = ReplyHash(body);
        record.reply_bytes = 4 + len;
        record.code = reply.code;
        record.replied = true;
        ++received;
        last_progress = done;
      }
      if (buf.head > (1u << 20) || buf.head == buf.bytes.size()) {
        buf.bytes.erase(0, buf.head);
        buf.head = 0;
      }
    }
  }
}

}  // namespace

itspq::StatusOr<std::unique_ptr<LoadClient>> LoadClient::Connect(
    uint16_t port, int connections) {
  std::vector<itspq::net::ScopedFd> fds;
  for (int c = 0; c < connections; ++c) {
    auto fd = itspq::net::ConnectLoopback(port);
    if (!fd.ok()) return fd.status();
    fds.push_back(std::move(*fd));
  }
  return std::unique_ptr<LoadClient>(new LoadClient(std::move(fds)));
}

PhaseResult LoadClient::Run(const std::vector<itspq::QueryRequest>& pool,
                            const std::vector<uint32_t>& picks,
                            const std::vector<double>& offsets, bool traced) {
  PhaseResult result;
  result.records.resize(offsets.size());
  // A short lead so the first sends are not late by thread start-up.
  const int64_t start = NowNs() + 2'000'000;
  for (size_t i = 0; i < offsets.size(); ++i) {
    result.records[i].due_ns = start + static_cast<int64_t>(offsets[i] * 1e9);
    result.records[i].pool_index = picks[i];
  }
  PhaseState state;
  std::thread receiver(ReceiverLoop, std::cref(fds_), traced, &result.records,
                       &state);
  SenderLoop(fds_, pool, picks, traced, &result.records, &state);
  receiver.join();
  result.transport_ok = !state.failed.load();
  result.error = state.error;
  return result;
}

UpdateStreamer::UpdateStreamer(itspq::QueryService* service,
                               const std::vector<itspq::TimedAtiUpdate>* stream)
    : service_(service), stream_(stream) {}

UpdateStreamer::~UpdateStreamer() {
  if (thread_.joinable()) Stop();
}

void UpdateStreamer::Start() {
  stop_.store(false);
  records_.clear();
  thread_ = std::thread(&UpdateStreamer::Loop, this, NowNs());
}

std::vector<UpdateRecord> UpdateStreamer::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return std::move(records_);
}

void UpdateStreamer::Loop(int64_t start_ns) {
  std::deque<std::pair<size_t, std::future<itspq::Status>>> outstanding;
  auto resolve_front = [&] {
    UpdateRecord& record = records_[outstanding.front().first];
    record.ok = outstanding.front().second.get().ok();
    record.commit_ns = NowNs();
    outstanding.pop_front();
  };
  size_t next = 0;
  while (!stop_.load() && next < stream_->size()) {
    const int64_t due =
        start_ns +
        static_cast<int64_t>((*stream_)[next].offset_seconds * 1e9);
    // Poll the stop flag at least every 2 ms.
    const int64_t wake = std::min(due, NowNs() + 2'000'000);
    if (!outstanding.empty()) {
      const auto until = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(wake));
      if (outstanding.front().second.wait_until(until) ==
          std::future_status::ready) {
        resolve_front();
        continue;
      }
    } else if (wake > NowNs()) {
      SleepUntilNs(wake);
    }
    if (NowNs() < due) continue;
    UpdateRecord record;
    record.due_ns = due;
    record.submit_ns = NowNs();
    records_.push_back(std::move(record));
    outstanding.emplace_back(records_.size() - 1,
                             service_->SubmitUpdate((*stream_)[next].update));
    ++next;
  }
  while (!outstanding.empty()) resolve_front();
}

}  // namespace servebench
