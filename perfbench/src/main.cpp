// ssno_perfbench — the repository benchmark's entry point.
//
//   ssno_perfbench --workload converge|stepping|verify|serve --seed N
//                  --seconds S --trace 0|1 [--tiny] [--corrupt count|verdict]
//                  [--workdir DIR] [--commit REV]
//
// Prints one JSON line describing the environment, one or more detail
// lines, and as its last line the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set of the workload;
// with --trace 1 the run is the layer ledger: every workload is driven
// through its layers' public calls with spans around them, and the
// metrics are the per-layer set (the named workload runs first).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

const std::vector<std::string> kWorkloads = {"converge", "stepping", "verify",
                                             "serve"};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: ssno_perfbench --workload converge|stepping|verify|serve"
               " --seed N --seconds S --trace 0|1\n"
               "       [--tiny] [--corrupt count|verdict] [--workdir DIR]"
               " [--commit REV]\n",
               why.c_str());
  return 2;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size())
        throw std::invalid_argument(args[i] + " needs a value");
      return args[++i];
    };
    if (args[i] == "--workload") {
      a.workload = value();
      haveWorkload = true;
    } else if (args[i] == "--seed") {
      a.seed = std::stoull(value());
    } else if (args[i] == "--seconds") {
      a.seconds = std::stoi(value());
    } else if (args[i] == "--trace") {
      const std::string& t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = t == "1";
    } else if (args[i] == "--tiny") {
      a.tiny = true;
    } else if (args[i] == "--corrupt") {
      a.corrupt = value();
      if (a.corrupt != "count" && a.corrupt != "verdict")
        throw std::invalid_argument("--corrupt takes count or verdict");
    } else if (args[i] == "--workdir") {
      a.workdir = value();
    } else if (args[i] == "--commit") {
      a.commit = value();
    } else {
      throw std::invalid_argument("unknown option " + args[i]);
    }
  }
  if (!haveWorkload ||
      std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
          kWorkloads.end())
    throw std::invalid_argument("--workload must be one of converge, "
                                "stepping, verify, serve");
  if (a.seconds < 1 || a.seconds > 600)
    throw std::invalid_argument("--seconds must be in 1..600");
  return a;
}

EndToEnd runEndToEnd(const Args& args, Checks& checks) {
  if (args.workload == "converge") return convergeRun(args, checks);
  if (args.workload == "stepping") return steppingRun(args, checks);
  if (args.workload == "verify") return verifyRun(args, checks);
  return serveRun(args, checks);
}

void runTrace(const std::string& workload, const Args& args, Checks& checks,
              SpanLedger& spans, Metrics& out) {
  if (workload == "converge") convergeTrace(args, checks, spans, out);
  if (workload == "stepping") steppingTrace(args, checks, spans, out);
  if (workload == "verify") verifyTrace(args, checks, spans, out);
  if (workload == "serve") serveTrace(args, checks, spans, out);
}

std::string resultJson(const Checks& checks, const Metrics& metrics) {
  std::string out = "{\"correct\":";
  out += checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(checks.attempted());
  out += ",\"failed\":" + std::to_string(checks.failed());
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"value\":" + fmtDouble(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  try {
    args = pb::parseArgs(argc, argv);
  } catch (const std::exception& e) {
    return pb::usage(e.what());
  }
  try {
    std::cout << pb::environmentJson(args) << "\n" << std::flush;
    pb::Checks checks;
    pb::Metrics metrics;
    if (!args.trace) {
      const pb::EndToEnd e = pb::runEndToEnd(args, checks);
      std::cout << e.info << "\n";
      metrics["setup_s"] = {e.setup.passSeconds(), "s"};
      metrics["peak_rss_mb"] = {pb::peakRssMb(), "MB"};
      metrics["a_work_per_s"] = {e.a.workPerSecond(), "1/s"};
      metrics["b_work_per_s"] = {e.b.workPerSecond(), "1/s"};
      // Latencies are reported, not gated: on a shared host their
      // run-to-run spread exceeds any bound worth having (README.md).
      std::cout << "{\"latency_ms\":{\"a_p50\":" << pb::fmtDouble(e.a.p50Ms())
                << ",\"a_tail\":" << pb::fmtDouble(e.a.tailMs())
                << ",\"a_tail_quantile\":\"" << e.a.tailLabel()
                << "\",\"b_p50\":" << pb::fmtDouble(e.b.p50Ms())
                << ",\"b_tail\":" << pb::fmtDouble(e.b.tailMs())
                << ",\"b_tail_quantile\":\"" << e.b.tailLabel()
                << "\",\"setup_ops\":" << e.setup.ops.size()
                << ",\"setup_inputs\":" << e.setup.inputs()
                << ",\"a_ops\":" << e.a.ops.size()
                << ",\"a_inputs\":" << e.a.inputs()
                << ",\"b_ops\":" << e.b.ops.size()
                << ",\"b_inputs\":" << e.b.inputs() << "}}\n";
    } else {
      pb::SpanLedger spans;
      std::vector<std::string> order = {args.workload};
      for (const std::string& w : pb::kWorkloads)
        if (w != args.workload) order.push_back(w);
      for (const std::string& w : order)
        pb::runTrace(w, args, checks, spans, metrics);
      std::cout << "{\"spans\":" << spans.json() << "}\n";
    }
    std::cout << pb::resultJson(checks, metrics) << "\n" << std::flush;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
