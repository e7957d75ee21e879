// In-memory duplex transport and a named in-process "network".
//
// The duplex pipe is two bounded byte queues with optional one-way latency,
// so benchmarks can model a LAN between the Verification Manager, the
// container host and the controller without real sockets. The
// InMemoryNetwork maps string addresses ("controller:8443") to accept
// handlers, which run inline on the connecting thread: the ServerRuntime's
// handler only registers the server end with a shard and returns.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/stream.h"

namespace vnfsgx::net {

/// One-way latency applied to each write (0 = instant).
struct LinkOptions {
  std::chrono::microseconds latency{0};
};

/// Create a connected pair of streams. Data written on `first` is read from
/// `second` and vice versa, after `options.latency`.
std::pair<StreamPtr, StreamPtr> make_pipe(const LinkOptions& options = {});

/// Install (or clear, with nullptr) a readiness hook on a pipe stream from
/// make_pipe: the callback fires every time bytes or EOF become available
/// to read on `stream`. It is invoked from the *writer's* thread while the
/// pipe's internal lock is held, so it must be cheap and must not re-enter
/// the pipe; after a clear() returns, no further invocations happen.
/// Returns false if `stream` is not a pipe stream.
bool set_pipe_readable_callback(Stream& stream, std::function<void()> callback);

/// Level-triggered readiness probe: true when `stream` (a pipe stream) has
/// bytes queued or has seen peer EOF — i.e. a read would not block. This is
/// the pipe analogue of a level-triggered epoll check; pooled runtimes use
/// it to decide whether a parked connection needs a dispatch right now.
/// Returns false for non-pipe streams.
bool pipe_readable(Stream& stream);

/// In-process network with named listeners.
///
/// `serve` registers an address; `connect` creates a pipe, hands the server
/// end to the listener's accept handler on the connecting thread, and
/// returns the client end once the handler returns. Handlers must not block
/// on the peer: it cannot write until connect returns.
class InMemoryNetwork {
 public:
  using AcceptHandler = std::function<void(StreamPtr)>;

  InMemoryNetwork() = default;

  InMemoryNetwork(const InMemoryNetwork&) = delete;
  InMemoryNetwork& operator=(const InMemoryNetwork&) = delete;

  /// Register a listener with one accept handler. Throws Error if the
  /// address is taken.
  void serve(const std::string& address, AcceptHandler handler);

  /// Register a sharded listener: the in-memory analogue of N SO_REUSEPORT
  /// listeners. Each handler registers the server end with one runtime
  /// shard; connects are spread round-robin so every shard exercises the
  /// same per-shard dispatch contract the TCP path uses. Throws Error if
  /// the address is taken or `handlers` is empty.
  void serve_sharded(const std::string& address,
                     std::vector<AcceptHandler> handlers);

  /// Remove a listener (existing connections keep running).
  void stop_serving(const std::string& address);

  /// Connect to a named listener. Throws IoError if nothing listens there.
  StreamPtr connect(const std::string& address);

 private:
  /// Per-shard accept handlers and the round-robin cursor; a plain `serve`
  /// is the one-handler case. Shared so a connect can keep dispatching
  /// after the entry is copied out under the lock.
  struct Listener {
    std::shared_ptr<const std::vector<AcceptHandler>> handlers;
    std::shared_ptr<std::atomic<std::size_t>> cursor;
  };

  std::mutex mutex_;
  std::map<std::string, Listener> listeners_;
};

}  // namespace vnfsgx::net
