#include "exp/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "exp/fmt.hpp"

namespace ssno::exp {
namespace {

std::string num(double v) { return shortestDouble(v); }

/// RFC-4180 quoting for fields that may contain commas or quotes
/// (chordal-ring names do: "chordring:16:2,5").
std::string csvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void writeScenarioJson(std::ostream& out, const ScenarioResult& r,
                       const std::string& indent, bool includeTiming) {
  const Scenario& s = r.scenario;
  out << indent << "{\n";
  out << indent << "  \"scenario\": \"" << jsonEscape(s.name) << "\",\n";
  out << indent << "  \"protocol\": \"" << protocolKindName(s.protocol)
      << "\",\n";
  out << indent << "  \"daemon\": \"" << daemonKindName(s.daemon) << "\",\n";
  out << indent << "  \"topology\": \"" << jsonEscape(s.topology.name())
      << "\",\n";
  out << indent << "  \"nodes\": " << r.nodeCount << ",\n";
  out << indent << "  \"edges\": " << r.edgeCount << ",\n";
  out << indent << "  \"seed\": " << s.seed << ",\n";
  out << indent << "  \"budget\": " << s.budget << ",\n";
  out << indent << "  \"cores\": " << r.cores << ",\n";
  if (s.protocol == ProtocolKind::kModelCheck)
    out << indent << "  \"mc_threads\": " << s.mcThreads << ",\n";
  if (s.faultRate > 0)
    out << indent << "  \"fault_rate\": " << num(s.faultRate) << ",\n";
  if (usesFaultK(s.protocol))
    out << indent << "  \"fault_k\": " << s.faultK << ",\n";
  out << indent << "  \"trials\": " << r.trials << ",\n";
  out << indent << "  \"failed_trials\": " << r.failedTrials << ",\n";
  // One "{name: summary, ...}" object; shared by "metrics" and "timing".
  const auto summaryMap =
      [&out, &indent](const std::map<std::string, Summary>& entries) {
        bool first = true;
        for (const auto& [name, m] : entries) {
          if (!first) out << ",";
          first = false;
          out << "\n" << indent << "    \"" << jsonEscape(name) << "\": {"
              << "\"count\": " << m.count << ", \"min\": " << num(m.min)
              << ", \"max\": " << num(m.max) << ", \"mean\": " << num(m.mean)
              << ", \"stddev\": " << num(m.stddev) << ", \"p50\": " << num(m.p50)
              << ", \"p95\": " << num(m.p95) << "}";
        }
        if (!first) out << "\n" << indent << "  ";
      };
  // Timing breakdown (runner-stamped wall clock per trial, and any
  // phase timings a trial kind adds) — JSON-only observability data;
  // CSV rows and cached payloads never carry it.
  if (includeTiming && !r.timing.empty()) {
    out << indent << "  \"timing\": {";
    summaryMap(r.timing);
    out << "},\n";
  }
  out << indent << "  \"metrics\": {";
  summaryMap(r.metrics);
  out << "}\n" << indent << "}";
}

}  // namespace

std::string csvHeader() {
  return "scenario,protocol,daemon,topology,nodes,edges,trials,"
         "failed_trials,fault_rate,metric,count,min,max,mean,stddev,p50,p95";
}

std::string csvRows(const ScenarioResult& r) {
  const Scenario& s = r.scenario;
  const std::string prefix = csvField(s.name) + "," +
                             protocolKindName(s.protocol) + "," +
                             daemonKindName(s.daemon) + "," +
                             csvField(s.topology.name()) + "," +
                             std::to_string(r.nodeCount) + "," +
                             std::to_string(r.edgeCount) + "," +
                             std::to_string(r.trials) + "," +
                             std::to_string(r.failedTrials) + "," +
                             num(s.faultRate);
  std::string out;
  if (r.metrics.empty()) return out + prefix + ",,0,,,,,,\n";
  for (const auto& [name, m] : r.metrics) {
    out += prefix + "," + name + "," + std::to_string(m.count) + "," +
           num(m.min) + "," + num(m.max) + "," + num(m.mean) + "," +
           num(m.stddev) + "," + num(m.p50) + "," + num(m.p95) + "\n";
  }
  return out;
}

void writeCsv(std::ostream& out, const std::vector<ScenarioResult>& results) {
  out << csvHeader() << "\n";
  for (const ScenarioResult& r : results) out << csvRows(r);
}

void writeJson(std::ostream& out, const std::vector<ScenarioResult>& results,
               bool includeTiming) {
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    writeScenarioJson(out, results[i], "  ", includeTiming);
    if (i + 1 < results.size()) out << ",";
    out << "\n";
  }
  out << "]\n";
}

std::string toCsv(const std::vector<ScenarioResult>& results) {
  std::ostringstream out;
  writeCsv(out, results);
  return out.str();
}

std::string toJson(const std::vector<ScenarioResult>& results,
                   bool includeTiming) {
  std::ostringstream out;
  writeJson(out, results, includeTiming);
  return out.str();
}

void printTable(std::ostream& out, const std::vector<ScenarioResult>& results) {
  std::ostringstream line;
  line << std::left << std::setw(36) << "scenario" << std::right
       << std::setw(7) << "n" << std::setw(8) << "m" << std::setw(7) << "ok"
       << std::left << "  " << std::setw(18) << "metric" << std::right
       << std::setw(12) << "mean" << std::setw(12) << "p50" << std::setw(12)
       << "p95" << std::setw(12) << "max";
  out << line.str() << "\n";
  for (const ScenarioResult& r : results) {
    const std::string ok = convergedLabel(r.trials, r.failedTrials);
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
      std::ostringstream row;
      row << std::left << std::setw(36)
          << (first ? r.scenario.name : std::string{}) << std::right
          << std::setw(7) << (first ? std::to_string(r.nodeCount) : "")
          << std::setw(8) << (first ? std::to_string(r.edgeCount) : "")
          << std::setw(7) << (first ? ok : "") << std::left << "  "
          << std::setw(18) << name << std::right << std::fixed
          << std::setprecision(2) << std::setw(12) << m.mean << std::setw(12)
          << m.p50 << std::setw(12) << m.p95 << std::setw(12) << m.max;
      out << row.str() << "\n";
      first = false;
    }
    if (r.metrics.empty()) {
      std::ostringstream row;
      row << std::left << std::setw(36) << r.scenario.name << std::right
          << std::setw(7) << r.nodeCount << std::setw(8) << r.edgeCount
          << std::setw(7) << ok << "  (no converged trials)";
      out << row.str() << "\n";
    }
  }
}

}  // namespace ssno::exp
