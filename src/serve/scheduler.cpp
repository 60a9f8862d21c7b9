#include "serve/scheduler.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/parallel.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"

namespace ssno::serve {
namespace {

constexpr const char* kCheckpointMagic = "ssno-checkpoint v1";

// A partial final line (crash mid-append) skipped by resume().
const obs::Counter kCkptTruncatedLines =
    obs::Registry::global().counter("serve_ckpt_truncated_lines_total");
// done/complete appends that failed to reach disk.  Advisory lines:
// losing one costs a recompute on resume, never correctness — so the
// failure is counted, not thrown.
const obs::Counter kCkptAppendFailures =
    obs::Registry::global().counter("serve_ckpt_append_failures_total");

bool pathSafeName(const std::string& name) {
  if (name.empty() || name[0] == '.') return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
  });
}

}  // namespace

JobScheduler::JobScheduler(SchedulerOptions opt) : opt_(std::move(opt)) {
  if (opt_.workers <= 0) opt_.workers = usableCores();
  if (opt_.trialThreads <= 0) opt_.trialThreads = 1;
  if (!opt_.checkpointDir.empty()) {
    std::error_code ec;
    io::createDirectories(opt_.checkpointDir, ec);
    if (ec || !std::filesystem::is_directory(opt_.checkpointDir))
      throw std::runtime_error("JobScheduler: cannot create checkpoint dir " +
                               opt_.checkpointDir);
  }
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int w = 0; w < opt_.workers; ++w)
    workers_.emplace_back([this] { workerLoop(); });
}

JobScheduler::~JobScheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& th : workers_) th.join();
}

std::string JobScheduler::checkpointPath(const std::string& name) const {
  if (opt_.checkpointDir.empty())
    throw std::invalid_argument("checkpoints are not configured");
  if (!pathSafeName(name))
    throw std::invalid_argument("bad checkpoint name '" + name + "'");
  return opt_.checkpointDir + "/" + name + ".ckpt";
}

void JobScheduler::appendCheckpoint(const Job& job, const std::string& lines) {
  if (job.checkpoint.empty() || lines.empty()) return;
  io::File out = io::File::openAppend(checkpointPath(job.checkpoint));
  // One writeAll per append: a crash tears at most the last line being
  // appended, which resume() skips.  fsync before close so "done" lines
  // survive a post-append power cut.
  if (!out.valid() || !out.writeAll(lines) || !out.sync() || !out.close())
    kCkptAppendFailures.inc();
}

std::uint64_t JobScheduler::submit(std::vector<exp::Scenario> sweep,
                                   int priority,
                                   const std::string& checkpoint) {
  if (sweep.empty())
    throw std::invalid_argument("submit: empty scenario list");
  for (const exp::Scenario& s : sweep) {
    if (s.trials <= 0)
      throw std::invalid_argument("submit: trials must be positive (" +
                                  s.name + ")");
    s.topology.validate();
  }
  // Resolve the path (and validate the name) before mutating any state.
  const std::string ckptPath =
      checkpoint.empty() ? std::string{} : checkpointPath(checkpoint);

  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = nextJob_++;
  Job& job = jobs_[id];
  job.id = id;
  job.scenarios = std::move(sweep);
  job.results.resize(job.scenarios.size());
  job.checkpoint = checkpoint;
  ++submittedJobs_;
  submittedUnits_ += job.scenarios.size();

  if (!ckptPath.empty()) {
    // The unit list is the sweep's source of truth — written durably
    // (temp + fsync + atomic rename + dir fsync) so a crash during
    // submit leaves either no checkpoint or a complete unit list, never
    // a torn one.  Appended done/complete lines are advisory on top.
    std::string body = kCheckpointMagic;
    body += "\nname " + checkpoint + "\n";
    for (const exp::Scenario& s : job.scenarios)
      body += "unit\t" + s.name + "\t" + exp::canonicalScenario(s) + "\n";
    if (!io::writeFileDurable(ckptPath, ".tmp", body))
      throw std::runtime_error("cannot write checkpoint " + ckptPath);
  }

  // A unit not in flight gets its one cache lookup here, under mu_: a
  // worker stores a record before it takes mu_ to leave inflight_, so a
  // finished computation is found either in flight or in the cache and
  // is never run twice.  Queued units have all missed, so workers only
  // compute and store.
  std::string hitLines;  // the hits' checkpoint lines, for one append
  for (int unit = 0; unit < static_cast<int>(job.scenarios.size()); ++unit) {
    const exp::Scenario& s =
        job.scenarios[static_cast<std::size_t>(unit)];
    const std::string canon = exp::canonicalScenario(s);
    const auto it = inflight_.find(canon);
    if (it != inflight_.end()) {
      it->second->subscribers.emplace_back(id, unit);
      ++dedupedUnits_;
      continue;
    }
    if (opt_.cache != nullptr) {
      if (const auto hit = opt_.cache->fetchResult(s)) {
        settle(job, unit, /*cached=*/true, /*failed=*/false, {}, *hit,
               &hitLines);
        continue;
      }
    }
    auto comp = std::make_shared<Computation>();
    comp->canon = canon;
    comp->scenario = s;
    comp->subscribers.emplace_back(id, unit);
    inflight_.emplace(canon, comp);
    queue_.push({priority, nextSeq_++, std::move(comp)});
  }
  appendCheckpoint(job, hitLines);
  cv_.notify_all();
  return id;
}

std::uint64_t JobScheduler::resume(const std::string& checkpoint,
                                   int priority) {
  const std::string path = checkpointPath(checkpoint);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  // Crash-mid-append leaves a final line with no terminating '\n'.
  // That partial line is untrustworthy by construction (the append was
  // torn), so it is skipped — counted, never a parse failure that
  // would lose the whole sweep.  Everything before it is intact: the
  // unit list was written atomically and appends are one line each.
  if (!text.empty() && text.back() != '\n') {
    const auto lastNl = text.find_last_of('\n');
    text.resize(lastNl == std::string::npos ? 0 : lastNl + 1);
    kCkptTruncatedLines.inc();
  }
  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line) || line != kCheckpointMagic)
    throw std::runtime_error("checkpoint " + path + ": bad magic");
  std::vector<exp::Scenario> sweep;
  while (std::getline(lines, line)) {
    if (line.rfind("unit\t", 0) != 0) continue;  // name/done/complete lines
    const auto second = line.find('\t', 5);
    if (second == std::string::npos)
      throw std::runtime_error("checkpoint " + path + ": malformed unit line");
    try {
      exp::Scenario s =
          exp::parseCanonicalScenario(line.substr(second + 1));
      s.name = line.substr(5, second - 5);
      sweep.push_back(std::move(s));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error("checkpoint " + path + ": " + e.what());
    }
  }
  if (sweep.empty())
    throw std::runtime_error("checkpoint " + path + ": no units");
  return submit(std::move(sweep), priority, checkpoint);
}

void JobScheduler::settle(Job& job, int unit, bool cached, bool failed,
                          const std::string& error,
                          const exp::ScenarioResult& result,
                          std::string* batch) {
  RowEvent ev;
  ev.job = job.id;
  ev.unit = unit;
  ev.scenario = job.scenarios[static_cast<std::size_t>(unit)];
  ev.cached = cached;
  ev.failed = failed;
  ev.error = error;
  if (!failed) {
    ev.result = result;
    ev.result.scenario = ev.scenario;  // the submitter's display name
    job.results[static_cast<std::size_t>(unit)] = ev.result;
    ++job.done;
    if (cached) ++job.cachedHits;
  } else {
    ++job.failed;
  }
  ++job.settled;
  if (!job.checkpoint.empty()) {
    const auto earn = [&](const std::string& line) {
      if (batch != nullptr)
        *batch += line;
      else
        appendCheckpoint(job, line);
    };
    if (!failed && opt_.cache != nullptr)
      earn("done " + std::to_string(unit) + " " +
           opt_.cache->keyHex(ev.scenario) + "\n");
    if (job.settled == static_cast<int>(job.scenarios.size()))
      earn("complete\n");
  }
  job.log.push_back(std::move(ev));
}

void JobScheduler::workerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    auto comp = queue_.top().comp;
    queue_.pop();
    // Drop subscribers whose jobs were cancelled while queued; when
    // none remain, the computation itself is dropped (lazy cancel).
    std::erase_if(comp->subscribers,
                  [this](const std::pair<std::uint64_t, int>& sub) {
                    const auto it = jobs_.find(sub.first);
                    return it == jobs_.end() || it->second.cancelled;
                  });
    if (comp->subscribers.empty()) {
      inflight_.erase(comp->canon);
      cv_.notify_all();
      continue;
    }
    ++busy_;
    lk.unlock();

    // submit() already missed the cache for this unit: compute, store.
    bool failed = false, computed = false;
    std::string error;
    exp::ScenarioResult result;
    try {
      const exp::ExperimentRunner runner(opt_.trialThreads);
      result = runner.run(comp->scenario);
      computed = true;
      if (opt_.cache != nullptr) opt_.cache->storeResult(result);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }

    lk.lock();
    --busy_;
    if (computed) ++computed_;
    // Future submits of this scenario go through the cache (or, absent
    // one, recompute) rather than subscribing to a finished unit.
    inflight_.erase(comp->canon);
    for (const auto& [jobId, unit] : comp->subscribers) {
      const auto it = jobs_.find(jobId);
      if (it == jobs_.end() || it->second.cancelled) continue;
      settle(it->second, unit, /*cached=*/false, failed, error, result,
             /*batch=*/nullptr);
    }
    cv_.notify_all();
  }
}

JobStatus JobScheduler::status(std::uint64_t job) const {
  std::lock_guard<std::mutex> lk(mu_);
  JobStatus st;
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return st;
  const Job& j = it->second;
  st.exists = true;
  st.cancelled = j.cancelled;
  st.total = static_cast<int>(j.scenarios.size());
  st.done = j.done;
  st.failed = j.failed;
  st.cachedHits = j.cachedHits;
  st.complete = j.settled == st.total;
  return st;
}

bool JobScheduler::cancel(std::uint64_t job) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end() || it->second.cancelled) return false;
  Job& j = it->second;
  if (j.settled == static_cast<int>(j.scenarios.size())) return false;
  j.cancelled = true;
  cv_.notify_all();
  return true;
}

std::vector<std::optional<exp::ScenarioResult>> JobScheduler::wait(
    std::uint64_t job) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) throw std::invalid_argument("unknown job");
  Job& j = it->second;
  cv_.wait(lk, [&j] {
    return j.cancelled || j.settled == static_cast<int>(j.scenarios.size());
  });
  return j.results;
}

std::vector<RowEvent> JobScheduler::eventsSince(std::uint64_t job,
                                                std::size_t from,
                                                bool* ended) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) throw std::invalid_argument("unknown job");
  Job& j = it->second;
  const auto over = [&j] {
    return j.cancelled || j.settled == static_cast<int>(j.scenarios.size());
  };
  cv_.wait(lk, [&j, from, &over] { return j.log.size() > from || over(); });
  if (ended != nullptr) *ended = over();
  return {j.log.begin() + static_cast<std::ptrdiff_t>(
                              std::min(from, j.log.size())),
          j.log.end()};
}

SchedulerStats JobScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SchedulerStats st;
  st.submittedJobs = submittedJobs_;
  st.submittedUnits = submittedUnits_;
  st.dedupedUnits = dedupedUnits_;
  st.computed = computed_;
  st.queueDepth = static_cast<int>(queue_.size());
  st.workers = opt_.workers;
  st.busyWorkers = busy_;
  return st;
}

}  // namespace ssno::serve
