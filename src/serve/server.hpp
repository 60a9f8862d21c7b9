// serve/server — the always-on experiment service front end.
//
// A session is line-delimited JSON: one request object per line, one or
// more response objects per line out (every response line carries
// "ok").  Verbs:
//
//   {"verb":"submit", "target":"<preset-or-triple>"
//                   | "scenarios":["<scenario-file line>", ...],
//    "trials":N, "seed":S, "budget":B, "rate":R,     (optional overrides)
//    "only":"<scenario-name>", "priority":P,
//    "checkpoint":"<name>"}
//       → {"ok":true,"job":J,"units":K}
//   {"verb":"resume","checkpoint":"<name>" [,"priority":P]}
//       → {"ok":true,"job":J,"units":K}      (from the checkpoint file)
//   {"verb":"status","job":J}
//       → {"ok":true,"job":J,"state":"queued|running|complete|cancelled",
//          "total":K,"done":D,"failed":F,"cached_hits":H}
//   {"verb":"result","job":J}
//       → streams, as workers finish (completion order, "unit" is the
//         submit-order index):
//         {"ok":true,"job":J,"unit":U,"scenario":"<name>","cached":B,
//          "failed":false,"csv":"<this scenario's CSV rows>"}
//         ... then one final
//         {"ok":true,"job":J,"complete":true,"total":K,"done":D,
//          "failed":F,"cancelled":B}
//   {"verb":"cancel","job":J}    → {"ok":true,"job":J,"cancelled":B}
//   {"verb":"stats"}             → cache + scheduler counters
//   {"verb":"metrics"}
//       → {"ok":true,"metrics":"<Prometheus text exposition>"}; the
//         text is built from the process-wide obs::Registry (serve_*
//         request/latency/cache series plus every instrumented engine)
//         with queue-depth/worker gauges sampled at render time
//   {"verb":"prune","max_bytes":N}
//       → {"ok":true,"removed":R,"kept":K,"bytes_removed":BR,
//          "bytes_kept":BK}      (LRU-prunes the result cache to N
//                                 bytes; error when no cache is wired)
//   {"verb":"shutdown"}          → {"ok":true}; ends the session and,
//                                  in socket mode, stops the server
//
// Anything malformed answers {"ok":false,"error":"..."} and the session
// continues — a bad request must never take the service down.  The
// "csv" rows reassemble (header + rows sorted by unit) into a byte-
// identical `exp_cli --csv` file; tools/serve_smoke.py does exactly
// that and CI asserts the equality.
//
// Each request's reply is buffered and leaves in one write when the
// request has been answered; a `result` for a job still running also
// sends each batch of rows before it waits for the next.
//
// Transports: serveStream() runs one session over any istream/ostream
// pair (the exp_serve --pipe mode and the unit tests), listenUnix() +
// acceptLoop() serve a local AF_UNIX socket with one thread per
// connection (the exp_serve --socket mode).  A client that disconnects
// ends only its own session.
#ifndef SSNO_SERVE_SERVER_HPP
#define SSNO_SERVE_SERVER_HPP

#include <atomic>
#include <iosfwd>
#include <string>

#include "serve/cache.hpp"
#include "serve/scheduler.hpp"

namespace ssno::serve {

class ExpServer {
 public:
  /// `cache` may be null (service still works, nothing is memoized);
  /// not owned.  Scheduler options take the same cache.
  explicit ExpServer(SchedulerOptions options);

  JobScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] ResultCache* cache() const { return cache_; }

  /// Serves one session until EOF, a shutdown verb, or a failed write
  /// to `out`.
  void serveStream(std::istream& in, std::ostream& out);

  /// Binds and listens on an AF_UNIX socket at `path` (an existing
  /// socket file is replaced).  Returns the listening fd; throws
  /// std::runtime_error on socket errors.
  int listenUnix(const std::string& path);

  /// Accepts connections on `fd` (one session thread each) until a
  /// shutdown verb arrives or requestShutdown() is called.  A session
  /// closes its connection when it ends, and its thread is joined while
  /// the loop runs; the rest are unblocked and joined before returning.
  /// Closes `fd`.
  void acceptLoop(int fd);

  void requestShutdown() { shutdown_.store(true); }
  [[nodiscard]] bool shutdownRequested() const { return shutdown_.load(); }

 private:
  /// Dispatches one request line; response lines go to `out`.
  void handleLine(const std::string& line, std::ostream& out);

  JobScheduler scheduler_;
  ResultCache* cache_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace ssno::serve

#endif  // SSNO_SERVE_SERVER_HPP
