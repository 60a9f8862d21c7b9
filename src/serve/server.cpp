#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <vector>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace ssno::serve {
namespace {

const obs::Counter kRequests =
    obs::Registry::global().counter("serve_requests_total");
const obs::Counter kErrors =
    obs::Registry::global().counter("serve_errors_total");

/// Per-verb latency histogram (ns), covering dispatch through the last
/// byte written (so `result` includes streaming time).
obs::Histogram verbHistogram(const std::string& v) {
  obs::Registry& reg = obs::Registry::global();
  static const obs::Histogram submit = reg.histogram("serve_verb_submit_ns");
  static const obs::Histogram status = reg.histogram("serve_verb_status_ns");
  static const obs::Histogram result = reg.histogram("serve_verb_result_ns");
  static const obs::Histogram stats = reg.histogram("serve_verb_stats_ns");
  static const obs::Histogram metrics = reg.histogram("serve_verb_metrics_ns");
  static const obs::Histogram other = reg.histogram("serve_verb_other_ns");
  if (v == "submit" || v == "resume") return submit;
  if (v == "status" || v == "cancel") return status;
  if (v == "result") return result;
  if (v == "stats" || v == "prune") return stats;
  if (v == "metrics") return metrics;
  return other;
}

/// Buffers one response line; the session's stream sends it with the
/// rest of the reply (see FlushAtEnd).
void emitLine(std::ostream& out, const JsonValue::Object& fields) {
  out << JsonValue(fields).dump() << '\n';
}

/// Flushes the session stream when a request has been answered, so each
/// reply leaves in one write.
class FlushAtEnd {
 public:
  explicit FlushAtEnd(std::ostream& out) : out_(out) {}
  ~FlushAtEnd() { out_.flush(); }
  FlushAtEnd(const FlushAtEnd&) = delete;
  FlushAtEnd& operator=(const FlushAtEnd&) = delete;

 private:
  std::ostream& out_;
};

JsonValue::Object errorObject(const std::string& what) {
  return {{"ok", false}, {"error", what}};
}

/// Applies exp_cli's override semantics (including the preset rate
/// relabel and the limit checks) so a served sweep and a CLI sweep stay
/// name-compatible.
void applyOverrides(const JsonValue& req, std::vector<exp::Scenario>* out) {
  const JsonValue* trials = req.find("trials");
  const JsonValue* seed = req.find("seed");
  const JsonValue* budget = req.find("budget");
  const JsonValue* rate = req.find("rate");
  for (exp::Scenario& s : *out) {
    if (trials) s.trials = static_cast<int>(trials->asInt());
    if (seed) s.seed = static_cast<std::uint64_t>(seed->asInt());
    if (budget) s.budget = budget->asInt();
    if (rate) {
      s.faultRate = rate->asNumber();
      if (const auto tag = s.name.rfind("/rate="); tag != std::string::npos) {
        std::ostringstream label;
        label << s.name.substr(0, tag) << "/rate=" << rate->asNumber();
        s.name = label.str();
      }
    }
    exp::validateLimits(s);
  }
}

/// Bidirectional streambuf over a connected socket fd, buffered both
/// ways.  Output collects in a put area and leaves on sync() (once per
/// request, see FlushAtEnd) or when the area fills, through send() with
/// MSG_NOSIGNAL: a client that has gone away costs an EPIPE that fails
/// this session's stream, not a SIGPIPE that kills the server.  Reads
/// and writes retry on EINTR; with a receive timeout on the fd (see
/// acceptLoop), EAGAIN wakes the read up periodically to re-check the
/// server's shutdown flag, so an idle client connection cannot park a
/// session thread forever.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd, const std::atomic<bool>* stop = nullptr)
      : fd_(fd), stop_(stop) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof out_);
  }

 protected:
  int_type underflow() override {
    for (;;) {
      const ssize_t n = ::read(fd_, in_, sizeof in_);
      if (n > 0) {
        setg(in_, in_, in_ + n);
        return traits_type::to_int_type(*gptr());
      }
      if (n == 0) return traits_type::eof();
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (stop_ != nullptr && stop_->load()) return traits_type::eof();
        continue;  // receive timeout tick: shutdown not requested, wait on
      }
      return traits_type::eof();
    }
  }

  int_type overflow(int_type ch) override {
    if (!drain()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return drain() ? 0 : -1; }

 private:
  /// Sends the put area; false once the peer is gone.
  bool drain() {
    for (const char* p = pbase(); p < pptr();) {
      const ssize_t w = ::send(fd_, p, static_cast<std::size_t>(pptr() - p),
                               MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      p += w;
    }
    setp(out_, out_ + sizeof out_);
    return true;
  }

  int fd_;
  const std::atomic<bool>* stop_;
  char in_[4096];
  char out_[65536];
};

}  // namespace

ExpServer::ExpServer(SchedulerOptions options)
    : scheduler_(options), cache_(options.cache) {}

void ExpServer::handleLine(const std::string& line, std::ostream& out) {
  kRequests.inc();
  JsonValue req;
  try {
    req = JsonValue::parse(line);
    const JsonValue* verb = req.find("verb");
    if (verb == nullptr)
      throw std::invalid_argument("request needs a \"verb\"");
    const std::string& v = verb->asString();
    const obs::ScopedTimer verbTimer(verbHistogram(v));
    const FlushAtEnd flush(out);  // sends before the timer stops

    if (v == "submit" || v == "resume") {
      const int priority =
          req.find("priority")
              ? static_cast<int>(req.find("priority")->asInt())
              : 0;
      std::uint64_t job = 0;
      std::size_t units = 0;
      if (v == "resume") {
        const JsonValue* ckpt = req.find("checkpoint");
        if (ckpt == nullptr)
          throw std::invalid_argument("resume needs a \"checkpoint\"");
        job = scheduler_.resume(ckpt->asString(), priority);
        units = static_cast<std::size_t>(scheduler_.status(job).total);
      } else {
        const JsonValue* target = req.find("target");
        const JsonValue* lines = req.find("scenarios");
        if ((target == nullptr) == (lines == nullptr))
          throw std::invalid_argument(
              "submit needs exactly one of \"target\" or \"scenarios\"");
        std::vector<exp::Scenario> scenarios;
        if (target != nullptr) {
          scenarios = exp::resolve(target->asString());
        } else {
          std::string joined;
          for (const JsonValue& item : lines->asArray())
            joined += item.asString() + "\n";
          std::istringstream stream(joined);
          scenarios = exp::loadScenarios(stream);
        }
        applyOverrides(req, &scenarios);
        if (const JsonValue* only = req.find("only"))
          scenarios = exp::filterOnly(std::move(scenarios), only->asString());
        const JsonValue* ckpt = req.find("checkpoint");
        units = scenarios.size();
        job = scheduler_.submit(std::move(scenarios), priority,
                                ckpt ? ckpt->asString() : std::string{});
      }
      emitLine(out, {{"ok", true},
                     {"job", job},
                     {"units", static_cast<std::uint64_t>(units)}});
      return;
    }

    if (v == "status" || v == "cancel" || v == "result") {
      const JsonValue* jobField = req.find("job");
      if (jobField == nullptr)
        throw std::invalid_argument(v + " needs a \"job\"");
      const auto job = static_cast<std::uint64_t>(jobField->asInt());
      if (v == "cancel") {
        const bool cancelled = scheduler_.cancel(job);
        emitLine(out,
                 {{"ok", true}, {"job", job}, {"cancelled", cancelled}});
        return;
      }
      JobStatus st = scheduler_.status(job);
      if (!st.exists) throw std::invalid_argument("unknown job");
      if (v == "status") {
        const char* state = st.cancelled    ? "cancelled"
                            : st.complete   ? "complete"
                            : st.done + st.failed > 0 ? "running"
                                            : "queued";
        emitLine(out, {{"ok", true},
                       {"job", job},
                       {"state", state},
                       {"total", st.total},
                       {"done", st.done},
                       {"failed", st.failed},
                       {"cached_hits", st.cachedHits}});
        return;
      }
      // result: stream rows in completion order until end of stream.
      // Each batch leaves before the session waits for the next, so a
      // long job streams row by row; the last batch leaves together
      // with the summary line.
      std::size_t cursor = 0;
      for (bool ended = false; !ended;) {
        const std::vector<RowEvent> events =
            scheduler_.eventsSince(job, cursor, &ended);
        cursor += events.size();
        for (const RowEvent& ev : events) {
          JsonValue::Object row = {{"ok", true},
                                   {"job", job},
                                   {"unit", ev.unit},
                                   {"scenario", ev.scenario.name},
                                   {"cached", ev.cached},
                                   {"failed", ev.failed}};
          if (ev.failed)
            row.emplace_back("error", ev.error);
          else
            row.emplace_back("csv", exp::csvRows(ev.result));
          emitLine(out, row);
        }
        if (!ended && !out.flush()) return;  // the client has gone
      }
      st = scheduler_.status(job);
      emitLine(out, {{"ok", true},
                     {"job", job},
                     {"complete", st.complete},
                     {"total", st.total},
                     {"done", st.done},
                     {"failed", st.failed},
                     {"cancelled", st.cancelled}});
      return;
    }

    if (v == "stats") {
      const SchedulerStats ss = scheduler_.stats();
      ResultCache::Counters cc;
      if (cache_ != nullptr) cc = cache_->counters();
      emitLine(out, {{"ok", true},
                     {"cache", cache_ != nullptr},
                     {"hits", cc.hits},
                     {"misses", cc.misses},
                     {"bad_records", cc.badRecords},
                     {"stores", cc.stores},
                     {"jobs", ss.submittedJobs},
                     {"units", ss.submittedUnits},
                     {"deduped_units", ss.dedupedUnits},
                     {"computed", ss.computed},
                     {"queue_depth", ss.queueDepth},
                     {"workers", ss.workers},
                     {"busy_workers", ss.busyWorkers}});
      return;
    }

    if (v == "prune") {
      if (cache_ == nullptr)
        throw std::invalid_argument("prune needs a cache (--cache-dir)");
      const JsonValue* maxBytes = req.find("max_bytes");
      if (maxBytes == nullptr)
        throw std::invalid_argument("prune needs \"max_bytes\"");
      const long long budget = maxBytes->asInt();
      if (budget < 0)
        throw std::invalid_argument("max_bytes must be >= 0");
      const ResultCache::PruneStats ps =
          cache_->prune(static_cast<std::uint64_t>(budget));
      emitLine(out, {{"ok", true},
                     {"removed", ps.removed},
                     {"kept", ps.kept},
                     {"bytes_removed", ps.bytesRemoved},
                     {"bytes_kept", ps.bytesKept}});
      return;
    }

    if (v == "metrics") {
      // Level-style gauges are sampled here, at render time, so the
      // worker pool pays nothing for them between metrics requests.
      const SchedulerStats ss = scheduler_.stats();
      obs::Registry& reg = obs::Registry::global();
      reg.gauge("serve_queue_depth")
          .set(static_cast<std::int64_t>(ss.queueDepth));
      reg.gauge("serve_workers").set(static_cast<std::int64_t>(ss.workers));
      reg.gauge("serve_busy_workers")
          .set(static_cast<std::int64_t>(ss.busyWorkers));
      emitLine(out, {{"ok", true}, {"metrics", reg.renderPrometheus()}});
      return;
    }

    if (v == "shutdown") {
      requestShutdown();
      emitLine(out, {{"ok", true}, {"shutdown", true}});
      return;
    }

    throw std::invalid_argument("unknown verb '" + v + "'");
  } catch (const std::exception& e) {
    kErrors.inc();
    emitLine(out, errorObject(e.what()));
    out.flush();
  }
}

void ExpServer::serveStream(std::istream& in, std::ostream& out) {
  std::string line;
  while (out && !shutdownRequested() && std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    handleLine(line, out);
  }
}

int ExpServer::listenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind(" + path + "): " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen(" + path + "): " + err);
  }
  return fd;
}

void ExpServer::acceptLoop(int fd) {
  // A session that ends takes its fd out of `sessionFds` under `mu` and
  // only then closes it, so the shutdown loop below never reaches a
  // reused descriptor; the accept loop joins ended sessions as it goes.
  std::mutex mu;
  std::vector<int> sessionFds;
  std::vector<std::uint64_t> ended;
  std::map<std::uint64_t, std::thread> sessions;
  const auto joinEnded = [&] {
    std::vector<std::uint64_t> ids;
    {
      std::lock_guard<std::mutex> lk(mu);
      ids.swap(ended);
    }
    for (const std::uint64_t id : ids) {
      const auto it = sessions.find(id);
      it->second.join();
      sessions.erase(it);
    }
  };
  std::uint64_t nextId = 0;
  while (!shutdownRequested()) {
    joinEnded();
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout ms=*/200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check shutdown
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) continue;  // EINTR/ECONNABORTED etc.: keep accepting
    // Receive timeout so a silent client's session thread wakes up
    // periodically to notice a shutdown request (see FdStreamBuf).
    timeval timeout{};
    timeout.tv_usec = 500 * 1000;
    (void)::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    const std::uint64_t id = nextId++;
    {
      std::lock_guard<std::mutex> lk(mu);
      sessionFds.push_back(conn);
    }
    sessions.emplace(id, std::thread([this, conn, id, &mu, &sessionFds,
                                      &ended] {
      // Session isolation: an exception escaping a thread body would
      // std::terminate the whole service.  handleLine already answers
      // per-request errors; this guards everything else (stream-layer
      // failures, bad_alloc during a burst) so one broken connection
      // costs only that session.
      try {
        FdStreamBuf buf(conn, &shutdown_);
        std::istream in(&buf);
        std::ostream out(&buf);
        serveStream(in, out);
      } catch (...) {
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        std::erase(sessionFds, conn);
        ended.push_back(id);
      }
      ::close(conn);
    }));
  }
  // Unblock any session still parked in read() so the joins finish.
  {
    std::lock_guard<std::mutex> lk(mu);
    for (const int conn : sessionFds) ::shutdown(conn, SHUT_RDWR);
  }
  for (auto& [id, th] : sessions) th.join();
  ::close(fd);
}

}  // namespace ssno::serve
