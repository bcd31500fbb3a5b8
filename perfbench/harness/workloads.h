#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Each entry point runs one workload as asked by `options`: the timed
/// closed loop with tracing off (end-to-end metrics), or with
/// options.trace the single-threaded traced replay (per-layer metrics).
/// Answers are checked in both modes, outside the timed phase.
Outcome RunLargeDoc(const RunOptions& options);
Outcome RunSmallDoc(const RunOptions& options);
Outcome RunColdChurn(const RunOptions& options);
Outcome RunSchemaStatic(const RunOptions& options);

/// Feeds every check a tampered answer and reports which ones failed to
/// reject it. Returns the number of checks that did not catch the tamper.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
