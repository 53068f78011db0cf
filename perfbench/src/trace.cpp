#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kRetainedSpansPerThread = 50000;

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t group;
  std::int64_t t0;
  std::int64_t child_ns;
  double weight;
  Layer layer;
  const char* name;
};

struct SpanRecord {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t group;
  std::int64_t t0;
  std::int64_t t1;
  Layer layer;
  const char* name;
};

struct NameTotals {
  const char* name;
  double wall_s = 0.0;
  double inclusive_s = 0.0;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<OpenSpan> stack;
  Ledger ledger;
  std::vector<NameTotals> names;
  std::vector<SpanRecord> retained;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<Region*> g_region{nullptr};
std::mutex g_registry_mutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (!buffer) {
    buffer = std::make_shared<ThreadBuffer>();
    const std::lock_guard lock(g_registry_mutex);
    buffer->tid = static_cast<std::uint32_t>(g_registry.size() + 1);
    g_registry.push_back(buffer);
  }
  return *buffer;
}

void push(ThreadBuffer& tb, Layer layer, const char* name, std::uint64_t group,
          std::uint64_t parent, double weight) {
  tb.stack.push_back(OpenSpan{g_next_id.fetch_add(1, std::memory_order_relaxed), parent, group,
                              now_ns(), 0, weight, layer, name});
}

/// Pops the innermost span and books its self time; returns its duration.
std::int64_t pop(ThreadBuffer& tb, std::int64_t self_override_ns = -1) {
  const OpenSpan open = tb.stack.back();
  tb.stack.pop_back();
  const std::int64_t t1 = now_ns();
  const std::int64_t duration = t1 - open.t0;
  const double self_s =
      static_cast<double>(self_override_ns >= 0 ? self_override_ns : duration - open.child_ns) *
      1e-9;
  const auto layer = static_cast<std::size_t>(open.layer);
  tb.ledger.wall_s[layer] += self_s * open.weight;
  tb.ledger.thread_s[layer] += self_s;
  NameTotals* totals = nullptr;
  for (auto& n : tb.names) {
    if (n.name == open.name) {
      totals = &n;
      break;
    }
  }
  if (totals == nullptr) totals = &tb.names.emplace_back(NameTotals{open.name});
  totals->wall_s += self_s * open.weight;
  totals->inclusive_s += static_cast<double>(duration) * 1e-9;
  ++tb.ledger.spans;
  if (tb.retained.size() < kRetainedSpansPerThread) {
    tb.retained.push_back(
        SpanRecord{open.id, open.parent, open.group, open.t0, t1, open.layer, open.name});
  } else {
    ++tb.ledger.spans_dropped;
  }
  return duration;
}

template <typename Fn>
void for_each_buffer(Fn&& fn) {
  const std::lock_guard lock(g_registry_mutex);
  for (const auto& buffer : g_registry) fn(*buffer);
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kHarness: return "harness";
    case Layer::kVariation: return "variation";
    case Layer::kDevice: return "device";
    case Layer::kCircuit: return "circuit";
    case Layer::kPuf: return "puf";
    case Layer::kMetrics: return "metrics";
    case Layer::kEcc: return "ecc";
    case Layer::kKeygen: return "keygen";
    case Layer::kAuth: return "auth";
    case Layer::kAttack: return "attack";
    case Layer::kSim: return "sim";
    case Layer::kCount: break;
  }
  return "unknown";
}

void enable_tracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool tracing_enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void count(Count what, std::uint64_t n) {
  if (!tracing_enabled()) return;
  local().ledger.counts[static_cast<std::size_t>(what)] += n;
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(Layer layer, const char* name, std::uint64_t group) {
  if (!tracing_enabled()) return;
  ThreadBuffer& tb = local();
  const std::uint64_t parent = tb.stack.empty() ? 0 : tb.stack.back().id;
  const double weight = tb.stack.empty() ? 1.0 : tb.stack.back().weight;
  push(tb, layer, name, group, parent, weight);
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  ThreadBuffer& tb = local();
  const std::int64_t duration = pop(tb);
  if (!tb.stack.empty()) tb.stack.back().child_ns += duration;
}

Region::Region(Layer layer, const char* name, int threads)
    : threads_(threads < 1 ? 1 : threads) {
  if (!tracing_enabled()) return;
  ThreadBuffer& tb = local();
  const std::uint64_t parent = tb.stack.empty() ? 0 : tb.stack.back().id;
  const double weight = tb.stack.empty() ? 1.0 : tb.stack.back().weight;
  push(tb, layer, name, 0, parent, weight);
  id_ = tb.stack.back().id;
  t0_ = tb.stack.back().t0;
  outer_ = g_region.exchange(this);
  active_ = true;
}

Region::~Region() {
  if (!active_) return;
  g_region.store(outer_);
  ThreadBuffer& tb = local();
  // The region keeps the wall time its tasks did not cover: with T threads
  // over wall W, that is W - (sum of task durations) / T.
  const std::int64_t wall = now_ns() - t0_;
  const std::int64_t covered = task_ns_.load() / threads_;
  const std::int64_t duration = pop(tb, wall > covered ? wall - covered : 0);
  if (!tb.stack.empty()) tb.stack.back().child_ns += duration;
}

TaskSpan::TaskSpan(Layer layer, const char* name, std::uint64_t group) {
  if (!tracing_enabled()) return;
  Region* region = g_region.load();
  ThreadBuffer& tb = local();
  if (region == nullptr || !region->active_) {
    push(tb, layer, name, group, tb.stack.empty() ? 0 : tb.stack.back().id,
         tb.stack.empty() ? 1.0 : tb.stack.back().weight);
  } else {
    push(tb, layer, name, group, region->id_, 1.0 / region->threads_);
  }
  active_ = true;
}

TaskSpan::~TaskSpan() {
  if (!active_) return;
  ThreadBuffer& tb = local();
  const std::uint64_t parent = tb.stack.back().parent;
  const std::int64_t duration = pop(tb);
  Region* region = g_region.load();
  if (region != nullptr && region->active_ && region->id_ == parent) {
    region->task_ns_.fetch_add(duration);
  } else if (!tb.stack.empty()) {
    tb.stack.back().child_ns += duration;
  }
}

Ledger ledger() {
  Ledger total;
  for_each_buffer([&](const ThreadBuffer& tb) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      total.wall_s[l] += tb.ledger.wall_s[l];
      total.thread_s[l] += tb.ledger.thread_s[l];
    }
    for (std::size_t c = 0; c < kCountKinds; ++c) total.counts[c] += tb.ledger.counts[c];
    total.spans += tb.ledger.spans;
    total.spans_dropped += tb.ledger.spans_dropped;
  });
  return total;
}

namespace {

template <typename Field>
double sum_named(const std::string& name, Field field) {
  double total = 0.0;
  for_each_buffer([&](const ThreadBuffer& tb) {
    for (const auto& n : tb.names) {
      if (name == n.name) total += n.*field;
    }
  });
  return total;
}

}  // namespace

double named_wall_s(const std::string& name) { return sum_named(name, &NameTotals::wall_s); }
double named_inclusive_s(const std::string& name) {
  return sum_named(name, &NameTotals::inclusive_s);
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  std::int64_t origin = 0;
  for_each_buffer([&](const ThreadBuffer& tb) {
    for (const auto& s : tb.retained) {
      if (origin == 0 || s.t0 < origin) origin = s.t0;
    }
  });
  for_each_buffer([&](const ThreadBuffer& tb) {
    for (const auto& s : tb.retained) {
      out << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << layer_name(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tb.tid
          << ",\"ts\":" << static_cast<double>(s.t0 - origin) / 1000.0
          << ",\"dur\":" << static_cast<double>(s.t1 - s.t0) / 1000.0 << ",\"args\":{\"id\":"
          << s.id << ",\"parent\":" << s.parent << ",\"group\":" << s.group << "}}";
      first = false;
    }
  });
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
