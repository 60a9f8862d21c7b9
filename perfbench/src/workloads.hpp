// The four workloads.  Each has an untraced end-to-end run (two phases
// of verified operations, measured through the library's production
// entry points) and a traced run that drives the same seeded inputs
// through the public calls of each layer with spans around them.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>

#include "common.hpp"

namespace pb {

/// Untraced result: set-up and the two phases of operations.
struct EndToEnd {
  Phase setup;
  Phase a;
  Phase b;
  /// Extra JSON object printed before the result (sample counts,
  /// per-phase details).
  std::string info;
};

EndToEnd convergeRun(const Args& args, Checks& checks);
EndToEnd steppingRun(const Args& args, Checks& checks);
EndToEnd verifyRun(const Args& args, Checks& checks);
EndToEnd serveRun(const Args& args, Checks& checks);

/// Traced runs: add "<workload>.<layer>.<metric>" entries to `out` and
/// the workload's spans to `spans`.
void convergeTrace(const Args& args, Checks& checks, SpanLedger& spans,
                   Metrics& out);
void steppingTrace(const Args& args, Checks& checks, SpanLedger& spans,
                   Metrics& out);
void verifyTrace(const Args& args, Checks& checks, SpanLedger& spans,
                 Metrics& out);
void serveTrace(const Args& args, Checks& checks, SpanLedger& spans,
                Metrics& out);

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_HPP
