// Shared plumbing for the benchmark workloads: arguments, clocks, the
// correctness ledger, per-phase operation samples, the traced-run span
// ledger, obs counter reads and the run environment.
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline std::uint64_t nsBetween(Clock::time_point a,
                                             Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Self-test sizes: every workload finishes in well under a second.
  bool tiny = false;
  /// Fault injection for the self-test: "count" perturbs one expected
  /// count, "verdict" flips one expected verdict.  Either must make the
  /// run report correct:false.
  std::string corrupt;
  /// Scratch directory for the serve workload's cache and socket
  /// (relative to the working directory; created and removed here).
  std::string workdir = ".bench_build/perfbench-work";
  /// Source revision recorded with the result (git commit or a digest
  /// of the sources, supplied by run.py).
  std::string commit = "unknown";
};

/// Every verified operation is counted once; a failed check is a failed
/// operation and is never dropped.  The first few failures are echoed to
/// stderr with their reason.
class Checks {
 public:
  /// Records one operation; returns `ok`.
  bool op(bool ok, const std::string& what);
  /// A check on an operation already counted by op().
  bool extra(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  void report(const std::string& what);
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int reported_ = 0;
};

/// Samples of one phase of a workload: the latency of each operation
/// and the units of work it completed (moves, states, requests), keyed
/// by the operation's input.  Every input is repeated, and its cost is
/// the best (lowest) latency over its repeats: on a shared host other
/// tenants only ever add time, and the best of a few repeats spread
/// over the run stays steady where a median does not (see README.md).
struct Phase {
  struct Op {
    std::string input;
    double seconds = 0;
    double units = 0;
  };
  std::vector<Op> ops;

  void add(const std::string& input, double seconds, double units) {
    ops.push_back({input, seconds, units});
  }
  /// Units per second over one pass of the inputs: summed units over
  /// summed best latencies.
  [[nodiscard]] double workPerSecond() const;
  /// Median over the inputs of their best latency, in ms.
  [[nodiscard]] double p50Ms() const;
  /// Tail over the inputs of their best latency, in ms: p99 with at
  /// least 1000 inputs, p90 with at least 100, else the median.
  [[nodiscard]] double tailMs() const;
  /// The tail quantile tailMs() used, e.g. "p90".
  [[nodiscard]] std::string tailLabel() const;
  /// Summed best latencies of one pass over the inputs, in seconds.
  [[nodiscard]] double passSeconds() const;
  [[nodiscard]] std::size_t inputs() const;

 private:
  struct Best {
    double seconds = 0;
    double units = 0;
  };
  [[nodiscard]] std::vector<Best> best() const;
  [[nodiscard]] std::vector<double> bestSeconds() const;
};

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Metric name -> (value, unit), printed in name order.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Span ledger for the traced run.  Spans are aggregated in memory per
/// layer (count, total and child time) and printed when the run ends;
/// a layer's self time is its total minus the time its child spans
/// cover.  Hot loops record spans from chained timestamps, so one clock
/// read closes a span and opens the next.
class SpanLedger {
 public:
  /// Declares a layer and its parent ("" for a root).
  void declare(const std::string& layer, const std::string& parent);
  /// Adds `count` spans of `ns` total to `layer` and charges the time to
  /// the parent's child time.
  void add(const std::string& layer, std::uint64_t ns,
           std::uint64_t count = 1);
  [[nodiscard]] std::uint64_t selfNs(const std::string& layer) const;
  [[nodiscard]] std::uint64_t totalNs(const std::string& layer) const;
  /// One JSON object per layer: name, parent, count, total/self ns.
  [[nodiscard]] std::string json() const;

 private:
  struct Node {
    std::string parent;
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
    std::uint64_t childNs = 0;
  };
  std::map<std::string, Node> nodes_;
};

/// Runs `setUp` once and records its time in `phase` under `input`.
/// Set-up is a phase like the others: every workload sets each of its
/// inputs up again between its passes, and setup_s is the sum of the
/// inputs' best set-up times.
void timeSetUp(Phase& phase, const std::string& input,
               const std::function<void()>& setUp);

/// The traced run repeats each of its passes (production entry point,
/// untimed layer loop, traced layer loop) this many times, interleaved,
/// and keeps the best of each.
inline constexpr int kTraceRepeats = 3;

/// Clock reads on a chained-timestamp path charge one read to each
/// span: `ns` minus `spans` calibrated clock-read costs, floored at zero.
[[nodiscard]] double lessClockReads(std::uint64_t ns, std::uint64_t spans);

/// Clock::now() when the path is traced; a constant otherwise, so the
/// same loop body runs untraced for the overhead comparison.
template <bool kTimed>
[[nodiscard]] inline Clock::time_point stamp() {
  if constexpr (kTimed) return Clock::now();
  return {};
}

/// (value - base) / base in percent; 0 when base is 0.
[[nodiscard]] double pctOver(double value, double base);

/// Share of an untraced end-to-end time not covered by the traced layer
/// self times: (total - layers) / total in percent.
[[nodiscard]] double residualPct(double totalNs, double layersNs);

/// obs registry reads (merged over all threads).
[[nodiscard]] std::uint64_t counterValue(const char* name);
/// Sum of the values a histogram observed.
[[nodiscard]] std::uint64_t histogramSum(const char* name);
[[nodiscard]] std::int64_t gaugeValue(const char* name);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peakRssMb();

/// FNV-1a over a raw configuration (final-state comparisons).
[[nodiscard]] std::uint64_t hashInts(const std::vector<int>& values);

/// One JSON object describing where and how the run happened: CPU
/// affinity, cgroup quota, a calibration burn, build type, native-arch
/// flag, source revision and seed.
[[nodiscard]] std::string environmentJson(const Args& args);

/// Shortest round-tripping decimal form of a double.
[[nodiscard]] std::string fmtDouble(double v);

}  // namespace pb

#endif  // PERFBENCH_COMMON_HPP
