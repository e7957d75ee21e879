#include "ledger.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace fig1 {

namespace {

using vnfsgx::ByteView;
namespace net = vnfsgx::net;
namespace pki = vnfsgx::pki;
namespace http = vnfsgx::http;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::array<OpCtx, ledger::kMaxContexts> g_contexts;

// Sharded span store: a recording thread takes only its own shard's lock.
constexpr std::size_t kShards = 16;
constexpr std::size_t kMaxSpans = 4'000'000;
struct alignas(64) Shard {
  std::mutex mutex;
  std::vector<SpanRec> spans;
};
std::array<Shard, kShards> g_shards;
std::atomic<std::size_t> g_recorded{0};

thread_local std::vector<std::uint64_t> tl_stack;  // spans open on this thread
thread_local OpCtx* tl_ctx = nullptr;
thread_local bool tl_generator = false;

std::size_t my_shard() {
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shard;
}

void record(const SpanRec& rec) {
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) return;
  Shard& shard = g_shards[my_shard()];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.spans.push_back(rec);
}

std::uint64_t current_parent(OpCtx* ctx) {
  if (!tl_stack.empty()) return tl_stack.back();
  return ctx ? ctx->top.load(std::memory_order_acquire) : 0;
}

}  // namespace

namespace ledger {

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }

void clear() {
  for (Shard& shard : g_shards) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.spans.clear();
  }
  g_recorded.store(0, std::memory_order_relaxed);
}

std::vector<SpanRec> spans() {
  std::vector<SpanRec> out;
  for (Shard& shard : g_shards) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    out.insert(out.end(), shard.spans.begin(), shard.spans.end());
  }
  return out;
}

OpCtx* ctx(std::size_t index) {
  return index < g_contexts.size() ? &g_contexts[index] : nullptr;
}

void bind_generator(OpCtx* ctx) {
  tl_ctx = ctx;
  tl_generator = true;
}

}  // namespace ledger

Span::Span(OpCtx* ctx, const char* name) {
  if (!ledger::enabled()) return;
  ctx_ = ctx ? ctx : tl_ctx;
  if (!ctx_) return;
  active_ = true;
  rec_.op = ctx_->op.load(std::memory_order_acquire);
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = current_parent(ctx_);
  rec_.name = name;
  tl_stack.push_back(rec_.id);
  if (tl_generator && tl_ctx == ctx_) {
    published_ = true;
    saved_top_ = ctx_->top.exchange(rec_.id, std::memory_order_acq_rel);
  }
  rec_.start_ns = now_ns();
}

void Span::end() {
  if (!active_) return;
  active_ = false;
  rec_.end_ns = now_ns();
  if (!tl_stack.empty() && tl_stack.back() == rec_.id) tl_stack.pop_back();
  if (published_) ctx_->top.store(saved_top_, std::memory_order_release);
  record(rec_);
}

OpSpan::OpSpan(OpCtx* ctx, std::uint64_t start_ns) : ctx_(ctx) {
  if (!ledger::enabled() || !ctx_) return;
  active_ = true;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.op = rec_.id;
  rec_.name = "op";
  rec_.start_ns = start_ns;
  ctx_->op.store(rec_.op, std::memory_order_release);
  ctx_->top.store(rec_.id, std::memory_order_release);
  tl_stack.push_back(rec_.id);
}

OpSpan::~OpSpan() {
  if (!active_) return;
  rec_.end_ns = now_ns();
  if (!tl_stack.empty() && tl_stack.back() == rec_.id) tl_stack.pop_back();
  ctx_->top.store(0, std::memory_order_release);
  record(rec_);
}

ServerScope::ServerScope(OpCtx* ctx) : saved_(tl_ctx) {
  if (ctx) tl_ctx = ctx;
}

ServerScope::~ServerScope() { tl_ctx = saved_; }

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

TimedStream::TimedStream(net::StreamPtr inner, OpCtx* ctx, const char* rt,
                         const char* write_name, const char* read_name)
    : inner_(std::move(inner)),
      ctx_(ctx),
      round_trip_name_(rt),
      write_name_(write_name),
      read_name_(read_name) {}

net::StreamPtr TimedStream::round_trip(net::StreamPtr inner, OpCtx* ctx,
                                       const char* name) {
  return net::StreamPtr(
      new TimedStream(std::move(inner), ctx, name, nullptr, nullptr));
}

net::StreamPtr TimedStream::calls(net::StreamPtr inner, OpCtx* ctx,
                                  const char* write_name,
                                  const char* read_name) {
  return net::StreamPtr(
      new TimedStream(std::move(inner), ctx, nullptr, write_name, read_name));
}

void TimedStream::write(ByteView data) {
  if (write_name_) {
    Span span(ctx_, write_name_);
    inner_->write(data);
    return;
  }
  if (pending_start_ == 0 && ctx_ && ledger::enabled()) {
    pending_parent_ = current_parent(ctx_);
    pending_start_ = now_ns();
  }
  inner_->write(data);
}

std::size_t TimedStream::read(std::span<std::uint8_t> out) {
  if (read_name_) {
    Span span(ctx_, read_name_);
    return inner_->read(out);
  }
  const std::size_t n = inner_->read(out);
  if (pending_start_ != 0 && n > 0) {
    SpanRec rec;
    rec.op = ctx_->op.load(std::memory_order_acquire);
    rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    rec.parent = pending_parent_;
    rec.name = round_trip_name_;
    rec.start_ns = pending_start_;
    rec.end_ns = now_ns();
    pending_start_ = 0;
    if (ledger::enabled()) record(rec);
  }
  return n;
}

pki::VerifyStatus TimedVerifier::appraise(const pki::Certificate& leaf) const {
  Span span(nullptr, "ratls.appraise");
  return inner_.appraise(leaf);
}

std::vector<pki::VerifyStatus> TimedVerifier::appraise_batch(
    std::span<const pki::Certificate* const> leaves) const {
  Span span(nullptr, "ratls.appraise");
  return inner_.appraise_batch(leaves);
}

http::Router timed_router(const http::Router& inner) {
  http::Router router;
  for (const char* method : {"GET", "POST", "DELETE", "PUT"}) {
    const char* name =
        std::string_view(method) == "GET" ? "controller.read" : "controller.write";
    router.add(method, "/*",
               [&inner, name](const http::Request& req,
                              const http::RequestContext& ctx) {
                 OpCtx* op_ctx = nullptr;
                 if (ledger::enabled()) {
                   if (const auto index = req.headers.get(ledger::kThreadHeader)) {
                     op_ctx = ledger::ctx(std::stoul(*index));
                   }
                 }
                 ServerScope scope(op_ctx);
                 Span span(op_ctx, name);
                 return inner.dispatch(req, ctx);
               });
  }
  return router;
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::string layer_of(const char* name) {
  const std::string_view view(name);
  return std::string(view.substr(0, view.find('.')));
}

namespace {

/// Depth of span `i` below its op root (root = 0); -1 when the chain
/// breaks (a parent outside the trace).
int depth_of(std::size_t i, const std::vector<SpanRec>& spans,
             const std::unordered_map<std::uint64_t, std::size_t>& index,
             std::vector<int>& memo) {
  if (memo[i] != -2) return memo[i];
  memo[i] = -1;  // guards against cycles while resolving
  int depth = -1;
  if (spans[i].parent == 0) {
    depth = std::string_view(spans[i].name) == "op" ? 0 : -1;
  } else if (const auto it = index.find(spans[i].parent); it != index.end()) {
    const int parent = depth_of(it->second, spans, index, memo);
    depth = parent < 0 ? -1 : parent + 1;
  }
  memo[i] = depth;
  return depth;
}

}  // namespace

LedgerSummary summarize(const std::vector<SpanRec>& spans) {
  LedgerSummary out;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Group every resolvable span under its op root.
  std::vector<int> memo(spans.size(), -2);
  std::unordered_map<std::uint64_t, std::size_t> root_of_op;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const bool root = std::string_view(s.name) == "op";
    if (!root) out.durations_us[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    if (depth_of(i, spans, index, memo) < 0) continue;
    if (root) root_of_op[s.op] = i;
    members[s.op].push_back(i);
  }
  out.ops = root_of_op.size();
  if (out.ops == 0) return out;

  // Sweep each op's wall time: every instant goes to the deepest spans
  // open at that instant (split evenly when concurrent spans tie), so the
  // layer rows add up to the op's wall time exactly. Instants under the
  // root alone are "unattributed".
  double wall_sum = 0;
  double attributed_sum = 0;
  std::map<std::string, double> attributed;
  for (const auto& [op, root_index] : root_of_op) {
    const SpanRec& root = spans[root_index];
    std::vector<std::uint64_t> cuts;
    for (const std::size_t i : members[op]) {
      cuts.push_back(std::clamp(spans[i].start_ns, root.start_ns, root.end_ns));
      cuts.push_back(std::clamp(spans[i].end_ns, root.start_ns, root.end_ns));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const std::uint64_t lo = cuts[c];
      const std::uint64_t hi = cuts[c + 1];
      int deepest = -1;
      std::vector<std::size_t> owners;
      for (const std::size_t i : members[op]) {
        if (spans[i].start_ns > lo || spans[i].end_ns < hi) continue;
        const int depth = memo[i];
        if (depth > deepest) {
          deepest = depth;
          owners.clear();
        }
        if (depth == deepest) owners.push_back(i);
      }
      const double share = static_cast<double>(hi - lo) / 1000.0 /
                           static_cast<double>(owners.size());
      for (const std::size_t i : owners) {
        const bool root = memo[i] == 0;
        attributed[root ? "unattributed" : layer_of(spans[i].name)] += share;
        if (!root) attributed_sum += share;
      }
    }
    wall_sum += static_cast<double>(root.end_ns - root.start_ns) / 1000.0;
  }
  const double ops = static_cast<double>(out.ops);
  for (const auto& [layer, us] : attributed) out.self_us_per_op[layer] = us / ops;
  out.coverage = wall_sum > 0 ? attributed_sum / wall_sum : 0;
  return out;
}

bool write_spans(const std::vector<SpanRec>& spans, const std::string& path,
                 std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::size_t n = 0;
  for (const SpanRec& s : spans) {
    if (n++ >= limit) break;
    std::fprintf(f,
                 "{\"op\":%llu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace fig1
