// Per-layer metrics of a traced run, named after the src/ modules:
// core (stage kernels, BlockCodec, data shape), engine, common, net
// (frames, ping, and the ServiceServer/CereszClient spans joined by the
// stitcher), mapping and wse (WaferMapper spans and fabric counts), obs
// (tracing overhead), and a host memory-bandwidth probe. Each layer is
// timed by calling its public functions on the workload's own inputs.
#pragma once

#include <vector>

#include "bench.h"
#include "workloads.h"

namespace perfbench {

struct LayerRunInputs {
  const Params& params;
  const std::vector<Input>& inputs;
  const WorkloadRun& untraced;  ///< end-to-end run without tracing
  const WorkloadRun& traced;    ///< the same workload with tracing on
  Tracers& tracers;
  f64 sim_scaling_eff = 0.0;    ///< 1 vs sim_threads simulator threads
};

/// Append every per-layer metric to `out`; probe failures go to `tally`.
void measure_layers(const LayerRunInputs& in, Report& out, Tally& tally);

}  // namespace perfbench
