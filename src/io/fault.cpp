#include "io/fault.hpp"

#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace ssno::io {
namespace {

const obs::Counter kOpCounters[kOpCount] = {
    obs::Registry::global().counter("io_open_total"),
    obs::Registry::global().counter("io_write_total"),
    obs::Registry::global().counter("io_fsync_total"),
    obs::Registry::global().counter("io_rename_total"),
    obs::Registry::global().counter("io_mkdir_total"),
    obs::Registry::global().counter("io_close_total"),
};
const obs::Counter kFaultsInjected =
    obs::Registry::global().counter("io_faults_injected_total");

constexpr std::string_view kOpNames[kOpCount] = {"open",   "write", "fsync",
                                                 "rename", "mkdir", "close"};

std::mutex gMutex;
FaultSchedule gSchedule;        // guarded by gMutex
bool gActive = false;           // guarded by gMutex

[[noreturn]] void failDirective(std::size_t item, const std::string& what) {
  throw std::invalid_argument("io-faults directive " + std::to_string(item) +
                              ": " + what);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

std::optional<Fault> faultFromName(std::string_view name) {
  if (name == "enospc") return Fault::kEnospc;
  if (name == "eio") return Fault::kEio;
  if (name == "eintr") return Fault::kEintr;
  if (name == "short") return Fault::kShort;
  if (name == "torn") return Fault::kTorn;
  if (name == "crash") return Fault::kCrash;
  return std::nullopt;
}

std::optional<Op> opFromName(std::string_view name) {
  for (int i = 0; i < kOpCount; ++i)
    if (kOpNames[i] == name) return static_cast<Op>(i);
  return std::nullopt;
}

double parseProb(std::string_view text, std::size_t item) {
  double p = -1.0;
  std::size_t used = 0;
  try {
    p = std::stod(std::string(text), &used);
  } catch (const std::exception&) {
    failDirective(item, "bad probability '" + std::string(text) + "'");
  }
  if (used != text.size() || p < 0.0 || p > 1.0)
    failDirective(item, "probability must be in [0, 1], got '" +
                            std::string(text) + "'");
  return p;
}

std::uint64_t parseCount(std::string_view text, std::size_t item) {
  unsigned long long n = 0;
  std::size_t used = 0;
  try {
    n = std::stoull(std::string(text), &used);
  } catch (const std::exception&) {
    failDirective(item, "bad call index '" + std::string(text) + "'");
  }
  if (used != text.size() || n == 0)
    failDirective(item, "call index must be a positive integer, got '" +
                            std::string(text) + "'");
  return n;
}

/// SplitMix64 step — deterministic, seedable, no <random> state size.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::string_view opName(Op op) { return kOpNames[static_cast<int>(op)]; }

std::string_view faultName(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kEnospc: return "enospc";
    case Fault::kEio: return "eio";
    case Fault::kEintr: return "eintr";
    case Fault::kShort: return "short";
    case Fault::kTorn: return "torn";
    case Fault::kCrash: return "crash";
  }
  return "none";
}

FaultSchedule FaultSchedule::parse(std::string_view spec) {
  FaultSchedule out;
  std::size_t item = 0;
  std::size_t at = 0;
  while (at <= spec.size()) {
    const std::size_t semi = spec.find(';', at);
    std::string_view directive = trim(
        spec.substr(at, semi == std::string_view::npos ? semi : semi - at));
    at = semi == std::string_view::npos ? spec.size() + 1 : semi + 1;
    if (directive.empty()) continue;
    ++item;

    if (directive.rfind("seed=", 0) == 0) {
      out.seed_ = parseCount(directive.substr(5), item);
      continue;
    }

    Rule rule;
    // Split off the fault name (up to '@' or ':').
    const std::size_t nameEnd = directive.find_first_of("@:");
    const std::string_view name = directive.substr(0, nameEnd);
    const auto fault = faultFromName(name);
    if (!fault)
      failDirective(item, "unknown fault '" + std::string(name) +
                              "' (want enospc|eio|eintr|short|torn|crash)");
    rule.fault = *fault;

    std::string_view rest =
        nameEnd == std::string_view::npos ? "" : directive.substr(nameEnd);
    if (!rest.empty() && rest.front() == '@') {
      rest.remove_prefix(1);
      const std::size_t opEnd = rest.find(':');
      const std::string_view op = rest.substr(0, opEnd);
      const auto parsed = opFromName(op);
      if (!parsed)
        failDirective(item, "unknown op '" + std::string(op) +
                                "' (want open|write|fsync|rename|mkdir|close)");
      rule.op = parsed;
      rest = opEnd == std::string_view::npos ? "" : rest.substr(opEnd);
    }
    // Remaining ":"-separated triggers: N | p=<prob> | path=<substr>.
    while (!rest.empty()) {
      rest.remove_prefix(1);  // ':'
      std::size_t end = rest.find(':');
      // "path=" may legitimately contain ':' — it consumes the rest.
      if (rest.rfind("path=", 0) == 0) end = std::string_view::npos;
      const std::string_view trig = rest.substr(0, end);
      if (trig.rfind("p=", 0) == 0) {
        rule.p = parseProb(trig.substr(2), item);
      } else if (trig.rfind("path=", 0) == 0) {
        rule.pathSub = std::string(trig.substr(5));
        if (rule.pathSub.empty())
          failDirective(item, "empty path= filter");
      } else {
        rule.nth = parseCount(trig, item);
      }
      rest = end == std::string_view::npos ? "" : rest.substr(end);
    }
    if (rule.nth != 0 && rule.p >= 0.0)
      failDirective(item, "give a call index or p=, not both");
    if (!rule.op && rule.p < 0.0 && rule.nth == 0)
      failDirective(item, "a fault without an op needs p= (\"" +
                              std::string(name) +
                              "\" alone would fire on every op)");
    out.rules_.push_back(std::move(rule));
  }
  return out;
}

double FaultSchedule::nextUniform() {
  if (!rngInit_) {
    rngState_ = seed_;
    rngInit_ = true;
  }
  // 53-bit mantissa scaling: uniform in [0, 1).
  return static_cast<double>(splitmix64(rngState_) >> 11) * 0x1.0p-53;
}

Decision FaultSchedule::decide(Op op, std::string_view path) {
  for (Rule& rule : rules_) {
    if (rule.op && *rule.op != op) continue;
    if (!rule.pathSub.empty() &&
        path.find(rule.pathSub) == std::string_view::npos)
      continue;
    ++rule.matched;
    if (rule.nth != 0) {
      if (rule.fired || rule.matched != rule.nth) continue;
      rule.fired = true;
      return {rule.fault};
    }
    if (rule.p >= 0.0) {
      if (nextUniform() >= rule.p) continue;
      return {rule.fault};
    }
    return {rule.fault};  // unconditional: every matching call
  }
  return {};
}

std::string FaultSchedule::render() const {
  std::string out;
  for (const Rule& rule : rules_) {
    if (!out.empty()) out += "; ";
    out += faultName(rule.fault);
    if (rule.op) {
      out += '@';
      out += opName(*rule.op);
    }
    if (rule.nth != 0) {
      out += ':';
      out += std::to_string(rule.nth);
    }
    if (rule.p >= 0.0) {
      out += ":p=" + std::to_string(rule.p);
    }
    if (!rule.pathSub.empty()) out += ":path=" + rule.pathSub;
  }
  return out;
}

void installFaultSchedule(FaultSchedule sched) {
  std::lock_guard<std::mutex> lk(gMutex);
  gActive = !sched.empty();
  gSchedule = std::move(sched);
}

void clearFaultSchedule() { installFaultSchedule(FaultSchedule{}); }

bool faultInjectionActive() {
  std::lock_guard<std::mutex> lk(gMutex);
  return gActive;
}

Decision consultFaults(Op op, std::string_view path) {
  kOpCounters[static_cast<int>(op)].inc();
  std::lock_guard<std::mutex> lk(gMutex);
  if (!gActive) return {};
  const Decision d = gSchedule.decide(op, path);
  if (d.fault != Fault::kNone) kFaultsInjected.inc();
  return d;
}

}  // namespace ssno::io
