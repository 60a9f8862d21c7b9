#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace ssno::obs {

namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Event {
  const char* name = nullptr;
  std::uint64_t t0 = 0;  // ns since session start
  std::uint64_t t1 = 0;
  std::uint8_t kind = 0;  // 0 = span ("X"), 1 = instant ("i")
  std::uint8_t argc = 0;
  const char* argKeys[kMaxSpanArgs] = {};
  std::uint64_t argVals[kMaxSpanArgs] = {};
};

// Per-thread event buffer with fixed chunk geometry: the owning thread
// appends lock-free and publishes via a release store of `size`; the
// merge reader's acquire load of `size` makes every published event's
// payload visible.  Chunks are never reallocated within a session.
struct TraceBuf {
  static constexpr std::uint32_t kChunkSize = 4096;
  static constexpr std::uint32_t kMaxChunks = 256;  // ~1M events/thread
  std::atomic<Event*> chunks[kMaxChunks] = {};
  std::atomic<std::uint32_t> size{0};
  std::uint32_t tid = 0;

  ~TraceBuf() {
    for (auto& c : chunks) delete[] c.load(std::memory_order_relaxed);
  }

  bool push(const Event& e) {
    const std::uint32_t i = size.load(std::memory_order_relaxed);
    if (i >= kChunkSize * kMaxChunks) return false;
    auto& cell = chunks[i / kChunkSize];
    Event* chunk = cell.load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Event[kChunkSize];
      cell.store(chunk, std::memory_order_release);
    }
    chunk[i % kChunkSize] = e;
    size.store(i + 1, std::memory_order_release);
    return true;
  }

  const Event& at(std::uint32_t i) const {
    return chunks[i / kChunkSize].load(std::memory_order_acquire)
        [i % kChunkSize];
  }
};

struct Tracer {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> session{0};
  std::atomic<std::uint64_t> epochNs{0};
  std::atomic<std::uint64_t> dropped{0};
  std::mutex mu;
  std::vector<std::unique_ptr<TraceBuf>> bufs;
  std::uint32_t nextTid = 1;
};

Tracer& tracer() {
  static Tracer* const t = new Tracer();  // leaked: outlives TU teardown
  return *t;
}

// POD thread-local cache; the session check forces re-registration
// after every startTracing()/clearTrace() (which delete old buffers, so
// those calls must not race threads with spans in flight).
struct TlsBuf {
  std::uint64_t session;
  TraceBuf* buf;
};
thread_local TlsBuf g_tlsBuf;

TraceBuf* bufForCurrentThread() {
  Tracer& t = tracer();
  const std::uint64_t session = t.session.load(std::memory_order_acquire);
  if (g_tlsBuf.buf != nullptr && g_tlsBuf.session == session)
    return g_tlsBuf.buf;
  std::lock_guard<std::mutex> lk(t.mu);
  t.bufs.push_back(std::make_unique<TraceBuf>());
  TraceBuf* buf = t.bufs.back().get();
  buf->tid = t.nextTid++;
  g_tlsBuf = TlsBuf{session, buf};
  return buf;
}

void record(const Event& e) {
  if (!bufForCurrentThread()->push(e))
    tracer().dropped.fetch_add(1, std::memory_order_relaxed);
}

void appendJsonEvent(std::string& out, const Event& e, std::uint32_t tid,
                     bool& first) {
  if (!first) out += ",\n";
  first = false;
  char num[64];
  out += R"({"name":")";
  out += e.name;
  out += R"(","cat":"ssno","pid":1,"tid":)";
  out += std::to_string(tid);
  std::snprintf(num, sizeof num, R"(,"ts":%.3f)",
                static_cast<double>(e.t0) / 1000.0);
  out += num;
  if (e.kind == 0) {
    const std::uint64_t dur = e.t1 >= e.t0 ? e.t1 - e.t0 : 0;
    std::snprintf(num, sizeof num, R"(,"ph":"X","dur":%.3f)",
                  static_cast<double>(dur) / 1000.0);
    out += num;
  } else {
    out += R"(,"ph":"i","s":"t")";
  }
  if (e.argc > 0) {
    out += R"(,"args":{)";
    for (int a = 0; a < e.argc; ++a) {
      if (a > 0) out += ',';
      out += '"';
      out += e.argKeys[a];
      out += R"(":)";
      out += std::to_string(e.argVals[a]);
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

bool tracingEnabled() {
  return tracer().on.load(std::memory_order_relaxed);
}

void startTracing() {
  Tracer& t = tracer();
  clearTrace();
  t.epochNs.store(nowNs(), std::memory_order_relaxed);
  t.on.store(true, std::memory_order_release);
}

void stopTracing() {
  tracer().on.store(false, std::memory_order_release);
}

void clearTrace() {
  Tracer& t = tracer();
  t.on.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lk(t.mu);
  t.bufs.clear();
  t.nextTid = 1;
  t.dropped.store(0, std::memory_order_relaxed);
  t.session.fetch_add(1, std::memory_order_release);
}

std::uint64_t traceDroppedEvents() {
  return tracer().dropped.load(std::memory_order_relaxed);
}

std::string traceJson() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lk(t.mu);
  std::string out;
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& buf : t.bufs) {
    const std::uint32_t n = buf->size.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i)
      appendJsonEvent(out, buf->at(i), buf->tid, first);
  }
  out += "\n]}\n";
  return out;
}

bool writeTrace(const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string json = traceJson();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  f.close();  // a full device fails the final flush, not the write
  return static_cast<bool>(f);
}

TraceSpan::TraceSpan(const char* name) {
  if (!tracingEnabled()) return;
  armed_ = true;
  name_ = name;
  t0_ = nowNs() - tracer().epochNs.load(std::memory_order_relaxed);
}

void TraceSpan::arg(const char* key, std::uint64_t value) {
  if (!armed_ || argc_ >= kMaxSpanArgs) return;
  argKeys_[argc_] = key;
  argVals_[argc_] = value;
  ++argc_;
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  Event e;
  e.name = name_;
  e.t0 = t0_;
  e.t1 = nowNs() - tracer().epochNs.load(std::memory_order_relaxed);
  e.kind = 0;
  e.argc = static_cast<std::uint8_t>(argc_);
  for (int a = 0; a < argc_; ++a) {
    e.argKeys[a] = argKeys_[a];
    e.argVals[a] = argVals_[a];
  }
  record(e);
}

void traceInstant(const char* name) {
  if (!tracingEnabled()) return;
  Event e;
  e.name = name;
  e.t0 = nowNs() - tracer().epochNs.load(std::memory_order_relaxed);
  e.t1 = e.t0;
  e.kind = 1;
  record(e);
}

}  // namespace ssno::obs
