// serve/scheduler — job queue in front of a persistent worker pool.
//
// A *job* is a submitted sweep: an ordered list of scenarios (units).
// Units are deduplicated by canonical scenario text across ALL live
// jobs: submitting a scenario that is already queued or running
// attaches the new (job, unit) as a subscriber to the in-flight
// computation instead of enqueueing a second copy — one computation,
// every subscriber delivered the identical result.  Completed units go
// through the ResultCache (when configured): submit() looks each unit
// that is not in flight up once, under the scheduler lock.  A hit
// settles before submit() returns, without a trip through the queue; a
// miss is queued, and a worker only computes and stores it.  A worker
// stores its record before its unit leaves the in-flight set, so a
// re-submit after completion is one lookup, never a second computation.
//
// Scheduling is by (priority desc, submission order) over computations;
// a deduplicated unit keeps the priority of its first submitter.
// cancel() marks the job: its queued-only units are dropped lazily
// (unless another live job subscribes to them), the currently running
// unit — workers cannot safely abandon a trial mid-flight — completes
// and is still cached, so the work is never wasted.
//
// Checkpoints make sweeps resumable across process death: a job
// submitted with a checkpoint name writes
//
//   <checkpointDir>/<name>.ckpt
//       ssno-checkpoint v1
//       name <name>
//       unit<TAB><display name><TAB><canonical scenario text>   (per unit)
//       done <unit index> <cache key>                (appended, fsynced)
//       complete                                     (on job completion)
//
// A unit a worker settles appends its lines one at a time; the hits
// of one submit() append theirs together, in one write.
//
// resume() re-reads the unit lines and submits them as a fresh job with
// the original display names; units finished before the crash hit the
// cache and settle inside submit(), so a SIGKILLed million-trial sweep
// restarts where it stopped and its final report is byte-identical to
// an uninterrupted run (proved end to end by tests/serve_test.cpp and
// the CI serve-smoke job).  The `done` lines are a human-readable
// progress record; correctness rests on the cache alone.
#ifndef SSNO_SERVE_SCHEDULER_HPP
#define SSNO_SERVE_SCHEDULER_HPP

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "serve/cache.hpp"

namespace ssno::serve {

struct SchedulerOptions {
  int workers = 0;       ///< worker threads; 0 → the usable cores
  int trialThreads = 1;  ///< threads inside one unit's ExperimentRunner
                         ///< (results are thread-count independent; 1
                         ///< keeps total parallelism == workers)
  ResultCache* cache = nullptr;  ///< optional; not owned
  std::string checkpointDir;     ///< empty → checkpoints disabled
};

/// One settled unit, as appended to a job's event log in completion
/// order (the `result` verb streams these as workers finish).
struct RowEvent {
  std::uint64_t job = 0;
  int unit = 0;               ///< index into the job's submit order
  exp::Scenario scenario;     ///< the submitter's scenario (its name)
  bool cached = false;        ///< served from the result cache
  bool failed = false;        ///< threw instead of producing a result
  std::string error;          ///< failure text when failed
  exp::ScenarioResult result; ///< valid when !failed
};

struct JobStatus {
  bool exists = false;
  bool cancelled = false;
  bool complete = false;  ///< every unit settled (done or failed)
  int total = 0;
  int done = 0;    ///< settled successfully (cached counts toward done)
  int failed = 0;
  int cachedHits = 0;
};

struct SchedulerStats {
  std::uint64_t submittedJobs = 0;
  std::uint64_t submittedUnits = 0;
  std::uint64_t dedupedUnits = 0;  ///< attached to in-flight computations
  std::uint64_t computed = 0;      ///< units actually executed (not cached)
  int queueDepth = 0;              ///< computations waiting for a worker
  int workers = 0;
  int busyWorkers = 0;
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions opt);
  /// Drains nothing: stops after in-flight computations finish.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Validates every scenario (trials, topology domain) up front and
  /// throws std::invalid_argument before any work is enqueued.  With a
  /// non-empty `checkpoint` (requires checkpointDir), (re)writes the
  /// checkpoint file.  Units found in the cache have settled when it
  /// returns.  Returns the job id.
  std::uint64_t submit(std::vector<exp::Scenario> sweep, int priority = 0,
                       const std::string& checkpoint = "");

  /// Loads `<checkpointDir>/<name>.ckpt` and submits its units as a new
  /// job under the same checkpoint name; throws std::runtime_error when
  /// the file is missing or malformed.
  std::uint64_t resume(const std::string& checkpoint, int priority = 0);

  [[nodiscard]] JobStatus status(std::uint64_t job) const;

  /// True iff the job existed and was not already cancelled/complete.
  bool cancel(std::uint64_t job);

  /// Blocks until the job completes or is cancelled; results in unit
  /// order (nullopt for failed or cancelled-before-settling units).
  std::vector<std::optional<exp::ScenarioResult>> wait(std::uint64_t job);

  /// Event-log slice [from, log.size()) for `job`, blocking until it is
  /// non-empty, the job completes, or the job is cancelled.  Returns
  /// empty only at end of stream; unknown jobs throw.  `ended`, when
  /// given, is set when no row follows this slice (the job has settled
  /// or was cancelled).
  std::vector<RowEvent> eventsSince(std::uint64_t job, std::size_t from,
                                    bool* ended = nullptr);

  [[nodiscard]] SchedulerStats stats() const;

  /// `<checkpointDir>/<name>.ckpt`; validates the name (path-safe).
  [[nodiscard]] std::string checkpointPath(const std::string& name) const;

 private:
  struct Job {
    std::uint64_t id = 0;
    bool cancelled = false;
    std::vector<exp::Scenario> scenarios;
    std::vector<std::optional<exp::ScenarioResult>> results;
    int settled = 0;
    int done = 0;
    int failed = 0;
    int cachedHits = 0;
    std::vector<RowEvent> log;
    std::string checkpoint;
  };

  /// A deduplicated work unit plus the (job, unit) pairs awaiting it.
  struct Computation {
    std::string canon;
    exp::Scenario scenario;
    std::vector<std::pair<std::uint64_t, int>> subscribers;
  };

  struct QueueEntry {
    int priority = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<Computation> comp;
    bool operator<(const QueueEntry& other) const {
      if (priority != other.priority) return priority < other.priority;
      return seq > other.seq;  // FIFO within a priority band
    }
  };

  void workerLoop();
  /// Settles `unit` of `job`: its row in the event log, its result and
  /// the job's counters.  The checkpoint lines it earns (`done`, then
  /// `complete` when it was the job's last unit) are appended one by
  /// one, or collected into *batch for the caller's single append.
  void settle(Job& job, int unit, bool cached, bool failed,
              const std::string& error, const exp::ScenarioResult& result,
              std::string* batch);
  /// Appends `lines` ('\n'-terminated) to the job's checkpoint, if any.
  void appendCheckpoint(const Job& job, const std::string& lines);

  SchedulerOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Job> jobs_;
  std::map<std::string, std::shared_ptr<Computation>> inflight_;
  std::priority_queue<QueueEntry> queue_;
  std::uint64_t nextJob_ = 1;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t submittedJobs_ = 0, submittedUnits_ = 0, dedupedUnits_ = 0,
                computed_ = 0;
  int busy_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ssno::serve

#endif  // SSNO_SERVE_SCHEDULER_HPP
