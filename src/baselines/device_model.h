// Analytic device throughput model for the cross-platform comparison
// (Figures 11-12).
//
// We cannot measure an NVIDIA A100 or a 64-core EPYC on this host, so
// baseline *throughput* (and only throughput — ratios and quality are
// measured from the real reimplementations) comes from a small analytic
// model calibrated against the paper's reported numbers:
//   - cuSZp averages ~93 GB/s compression / ~120 GB/s decompression
//     (CereSZ's 457.35 / 581.31 GB/s averages divided by its reported
//     4.9x / 4.8x speedups);
//   - cuSZ sits well below cuSZp (Huffman stages), SZp (multi-core EPYC) in
//     the tens of GB/s, and SZ3 "routinely less than 1 GB/s" (Section 5.3).
//
// Shape effects mirror the mechanisms the paper describes: zero blocks
// speed all block-wise codecs up (Section 5.2's error-bound/throughput
// coupling), and denser bit payloads slow them down. Every number derived
// from this model is labeled "modeled" in the benches.
#pragma once

#include <string>

#include "baselines/compressor.h"
#include "common/types.h"

namespace ceresz::baselines {

/// Which paper platform a baseline runs on.
enum class Device {
  kEpyc7742,  ///< AMD EPYC 7742, 64C/128T (CPU baselines)
  kA100,      ///< NVIDIA A100, 108 SMs, 40 GB (GPU baselines)
};

const char* to_string(Device device);

/// Calibrated throughput curve of one baseline compressor.
struct DeviceThroughputModel {
  std::string compressor;
  Device device = Device::kA100;
  f64 base_gbps = 0.0;      ///< dense-data compression throughput
  f64 zero_boost = 0.0;     ///< relative speedup at 100% zero blocks
  f64 bits_penalty = 0.0;   ///< relative slowdown per mean payload bit
  f64 decomp_factor = 1.0;  ///< decompression vs compression

  /// Modeled compression throughput for a run with the given stream shape.
  f64 compress_gbps(const BaselineStats& stats) const;

  /// Modeled decompression throughput.
  f64 decompress_gbps(const BaselineStats& stats) const;
};

/// Calibrated models of the four baselines.
DeviceThroughputModel szp_model();
DeviceThroughputModel cuszp_model();
DeviceThroughputModel sz3_model();
DeviceThroughputModel cusz_model();

}  // namespace ceresz::baselines
