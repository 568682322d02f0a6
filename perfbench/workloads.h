// The benchmark's workloads. Each runs with tracing off and reports the
// end-to-end metrics, or (RunOptions::trace) runs traced and reports the
// per-layer metrics of the layers it exercises.
#pragma once

#include "harness.h"

namespace perfbench {

void run_fig1(const RunOptions& options, Report& report);
void run_campaign(const RunOptions& options, Report& report);
void run_stream(const RunOptions& options, Report& report);
void run_serve(const RunOptions& options, Report& report);

}  // namespace perfbench
