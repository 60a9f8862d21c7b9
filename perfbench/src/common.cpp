#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace pb {

bool Checks::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    report(what);
  }
  return ok;
}

bool Checks::extra(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    report(what);
  }
  return ok;
}

void Checks::report(const std::string& what) {
  if (reported_++ < 20)
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<Phase::Best> Phase::best() const {
  std::map<std::string, Best> byInput;
  for (const Op& op : ops) {
    const auto [it, fresh] = byInput.try_emplace(op.input, Best{op.seconds, op.units});
    if (!fresh) it->second.seconds = std::min(it->second.seconds, op.seconds);
  }
  std::vector<Best> out;
  for (const auto& [input, b] : byInput) out.push_back(b);
  return out;
}

std::size_t Phase::inputs() const { return best().size(); }

double Phase::passSeconds() const {
  double seconds = 0;
  for (const Best& b : best()) seconds += b.seconds;
  return seconds;
}

double Phase::workPerSecond() const {
  double seconds = 0, units = 0;
  for (const Best& b : best()) {
    seconds += b.seconds;
    units += b.units;
  }
  return seconds > 0 ? units / seconds : 0;
}

namespace {

/// Tail quantile with at least ten samples beyond it; the median below
/// 100 samples.
double tailQuantile(std::size_t n) {
  if (n >= 1000) return 0.99;
  if (n >= 100) return 0.9;
  return 0.5;
}

}  // namespace

std::vector<double> Phase::bestSeconds() const {
  std::vector<double> out;
  for (const Best& b : best()) out.push_back(b.seconds);
  return out;
}

double Phase::p50Ms() const { return 1e3 * median(bestSeconds()); }

double Phase::tailMs() const {
  const std::vector<double> v = bestSeconds();
  return 1e3 * quantile(v, tailQuantile(v.size()));
}

std::string Phase::tailLabel() const {
  return "p" + std::to_string(static_cast<int>(
                   std::lround(tailQuantile(inputs()) * 100)));
}

void SpanLedger::declare(const std::string& layer, const std::string& parent) {
  nodes_[layer].parent = parent;
}

void SpanLedger::add(const std::string& layer, std::uint64_t ns,
                     std::uint64_t count) {
  Node& node = nodes_[layer];
  node.count += count;
  node.ns += ns;
  if (!node.parent.empty()) nodes_[node.parent].childNs += ns;
}

std::uint64_t SpanLedger::selfNs(const std::string& layer) const {
  const auto it = nodes_.find(layer);
  if (it == nodes_.end()) return 0;
  return it->second.ns > it->second.childNs ? it->second.ns - it->second.childNs
                                            : 0;
}

std::uint64_t SpanLedger::totalNs(const std::string& layer) const {
  const auto it = nodes_.find(layer);
  return it == nodes_.end() ? 0 : it->second.ns;
}

std::string SpanLedger::json() const {
  std::string out = "[";
  bool first = true;
  for (const auto& [name, node] : nodes_) {
    if (!first) out += ",";
    first = false;
    out += "{\"layer\":\"" + name + "\",\"parent\":\"" + node.parent +
           "\",\"count\":" + std::to_string(node.count) +
           ",\"total_ns\":" + std::to_string(node.ns) +
           ",\"self_ns\":" + std::to_string(selfNs(name)) + "}";
  }
  return out + "]";
}

void timeSetUp(Phase& phase, const std::string& input,
               const std::function<void()>& setUp) {
  const auto t0 = Clock::now();
  setUp();
  phase.add(input, secondsBetween(t0, Clock::now()), 1);
}

namespace {

double clockReadNs() {
  static const double ns = [] {
    constexpr int kReads = 20'000;
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
      const auto t0 = Clock::now();
      Clock::time_point last{};
      for (int i = 0; i < kReads; ++i) last = Clock::now();
      batches.push_back(static_cast<double>(nsBetween(t0, last)) / kReads);
    }
    return median(batches);
  }();
  return ns;
}

}  // namespace

double lessClockReads(std::uint64_t ns, std::uint64_t spans) {
  return std::max(0.0, static_cast<double>(ns) -
                           clockReadNs() * static_cast<double>(spans));
}

double pctOver(double value, double base) {
  return base != 0 ? 100.0 * (value - base) / base : 0;
}

double residualPct(double totalNs, double layersNs) {
  return totalNs > 0 ? 100.0 * (totalNs - layersNs) / totalNs : 0;
}

std::uint64_t counterValue(const char* name) {
  return ssno::obs::Registry::global().counterValue(name);
}

std::uint64_t histogramSum(const char* name) {
  for (const auto& m : ssno::obs::Registry::global().snapshot())
    if (m.name == name) return m.sum;
  return 0;
}

std::int64_t gaugeValue(const char* name) {
  return ssno::obs::Registry::global().gauge(name).value();
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t hashInts(const std::vector<int>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const int v : values) {
    h ^= static_cast<std::uint32_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string fmtDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

namespace {

/// Cores the cgroup quota allows (cpu.max "quota period"); 0 = no limit
/// or no cgroup v2 file.
double cgroupCpuLimit() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0;
  if (!(in >> quota >> period) || quota == "max" || period <= 0) return 0;
  return std::stod(quota) / period;
}

/// Integer mixing loop the calibration burn runs; returns iterations
/// completed in `seconds`.
std::uint64_t burn(double seconds) {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, iters = 0;
  while (secondsBetween(t0, Clock::now()) < seconds) {
    for (int i = 0; i < 4096; ++i) x = (x ^ (x >> 29)) * 0xBF58476D1CE4E5B9ULL;
    iters += 4096;
  }
  std::atomic_signal_fence(std::memory_order_seq_cst);
  return iters + (x & 1);
}

/// Throughput of `threads` concurrent burns over one burn's throughput.
double calibrationCores(int threads) {
  constexpr double kBurnSeconds = 0.05;
  const double single = static_cast<double>(burn(kBurnSeconds));
  std::vector<std::uint64_t> done(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&done, t] {
      done[static_cast<std::size_t>(t)] = burn(kBurnSeconds);
    });
  for (std::thread& th : pool) th.join();
  double total = 0;
  for (const std::uint64_t d : done) total += static_cast<double>(d);
  return single > 0 ? total / single : 0;
}

}  // namespace

std::string environmentJson(const Args& args) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) affinity = CPU_COUNT(&set);
  const double quota = cgroupCpuLimit();
  const int burnThreads = std::clamp(affinity, 1, 16);
  const double burnCores = calibrationCores(burnThreads);
  double effective = burnCores;
  if (affinity > 0) effective = std::min(effective, static_cast<double>(affinity));
  if (quota > 0) effective = std::min(effective, quota);
  using ssno::serve::jsonEscape;
  std::ostringstream out;
  out << "{\"env\":{\"affinity_cpus\":" << affinity
      << ",\"cgroup_cpu_limit\":" << fmtDouble(quota)
      << ",\"burn_threads\":" << burnThreads
      << ",\"burn_cores\":" << fmtDouble(burnCores)
      << ",\"effective_cores\":" << fmtDouble(effective)
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"build_type\":\"" << jsonEscape(PERFBENCH_BUILD_TYPE) << "\""
      << ",\"native_arch\":" << (PERFBENCH_NATIVE_ARCH ? "true" : "false")
      << ",\"commit\":\"" << jsonEscape(args.commit) << "\""
      << ",\"workload\":\"" << jsonEscape(args.workload) << "\""
      << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"tiny\":" << (args.tiny ? "true" : "false") << "}}";
  return out.str();
}

}  // namespace pb
