// The traced per-layer ledger: in-memory spans (name, start, end, parent,
// operation id) recorded by the benchmark's own decorators around the
// public APIs it calls, plus the analysis that turns them into per-layer
// self times and the coverage check.
//
// Spans are only recorded while ledger::set_enabled(true); disabled, every
// decorator is one relaxed load and a forwarded call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "http/server.h"
#include "net/stream.h"
#include "pki/truststore.h"

namespace fig1 {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-generator-thread operation context. `op` is the operation in
/// flight; `top` is the innermost span the generator thread has open, so
/// work on other threads (server workers, fleet workers) can parent to
/// whatever the generator is blocked in.
struct OpCtx {
  std::atomic<std::uint64_t> op{0};
  std::atomic<std::uint64_t> top{0};
};

struct SpanRec {
  std::uint64_t op = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = operation root
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

namespace ledger {

bool enabled();
void set_enabled(bool on);
/// Drop every recorded span.
void clear();
/// Every recorded span (unordered).
std::vector<SpanRec> spans();
/// Generator threads index their OpCtx here so server-side decorators can
/// find it from a request header.
OpCtx* ctx(std::size_t index);
constexpr std::size_t kMaxContexts = 8;
/// Request header carrying the generator-thread index.
inline constexpr const char* kThreadHeader = "X-Fig1-Thread";

/// Bind the calling thread as generator thread for `ctx` (its spans are
/// published to ctx->top).
void bind_generator(OpCtx* ctx);

}  // namespace ledger

/// RAII span. Parent: the innermost span open on this thread, else the
/// bound context's `top` (the span its generator thread is blocked in).
class Span {
 public:
  Span(OpCtx* ctx, const char* name);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void end();

 private:
  OpCtx* ctx_ = nullptr;
  SpanRec rec_;
  bool active_ = false;
  bool published_ = false;
  std::uint64_t saved_top_ = 0;
};

/// The operation root span: assigns a fresh op id to `ctx`.
class OpSpan {
 public:
  OpSpan(OpCtx* ctx, std::uint64_t start_ns);
  ~OpSpan();
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  OpCtx* ctx_ = nullptr;
  SpanRec rec_;
  bool active_ = false;
};

/// Makes spans opened on this (server or pool) thread belong to `ctx`
/// for the scope's lifetime.
class ServerScope {
 public:
  explicit ServerScope(OpCtx* ctx);
  ~ServerScope();
  ServerScope(const ServerScope&) = delete;
  ServerScope& operator=(const ServerScope&) = delete;

 private:
  OpCtx* saved_;
};

/// Decorating net::Stream. Round-trip mode records one span from the
/// first write of a request to the first read that returns reply bytes
/// (agent RPC, IAS). Call mode records one span per write and per read
/// (the in-enclave TLS tunnel: each is one ECALL).
class TimedStream final : public vnfsgx::net::Stream {
 public:
  static vnfsgx::net::StreamPtr round_trip(vnfsgx::net::StreamPtr inner,
                                           OpCtx* ctx, const char* name);
  static vnfsgx::net::StreamPtr calls(vnfsgx::net::StreamPtr inner,
                                      OpCtx* ctx, const char* write_name,
                                      const char* read_name);

  void write(vnfsgx::ByteView data) override;
  std::size_t read(std::span<std::uint8_t> out) override;
  void close() override { inner_->close(); }
  void set_read_timeout(std::chrono::milliseconds timeout) override {
    inner_->set_read_timeout(timeout);
  }
  bool buffered() const override { return inner_->buffered(); }
  std::size_t park_buffers(vnfsgx::net::BufferPool* pool) override {
    return inner_->park_buffers(pool);
  }

 private:
  TimedStream(vnfsgx::net::StreamPtr inner, OpCtx* ctx, const char* rt,
              const char* write_name, const char* read_name);

  vnfsgx::net::StreamPtr inner_;
  OpCtx* ctx_;
  const char* round_trip_name_;
  const char* write_name_;
  const char* read_name_;
  std::uint64_t pending_start_ = 0;
  std::uint64_t pending_parent_ = 0;
};

/// AttestedCertVerifier decorator: one "ratls.appraise" span per call.
class TimedVerifier final : public vnfsgx::pki::AttestedCertVerifier {
 public:
  explicit TimedVerifier(const vnfsgx::pki::AttestedCertVerifier& inner)
      : inner_(inner) {}
  bool recognizes(const vnfsgx::pki::Certificate& leaf) const override {
    return inner_.recognizes(leaf);
  }
  vnfsgx::pki::VerifyStatus appraise(
      const vnfsgx::pki::Certificate& leaf) const override;
  std::vector<vnfsgx::pki::VerifyStatus> appraise_batch(
      std::span<const vnfsgx::pki::Certificate* const> leaves) const override;
  std::uint64_t policy_generation() const override {
    return inner_.policy_generation();
  }

 private:
  const vnfsgx::pki::AttestedCertVerifier& inner_;
};

/// Router decorator: dispatches every request to `inner`, inside a
/// "controller.read" (GET) or "controller.write" span attributed to the
/// generator thread named by the request's kThreadHeader.
vnfsgx::http::Router timed_router(const vnfsgx::http::Router& inner);

/// Quantile of a sample (q in [0,1], linear interpolation between ranks).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// What the traced run's spans say about one workload.
struct LedgerSummary {
  std::size_t ops = 0;
  double coverage = 0;  // share of all ops' wall time under layer spans
  std::map<std::string, std::vector<double>> durations_us;  // by span name
  std::map<std::string, double> self_us_per_op;             // by layer
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const char* name);

LedgerSummary summarize(const std::vector<SpanRec>& spans);

/// Write spans as JSON lines (at most `limit`); false on I/O failure.
bool write_spans(const std::vector<SpanRec>& spans, const std::string& path,
                 std::size_t limit);

}  // namespace fig1
