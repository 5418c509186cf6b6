#include "baselines/device_model.h"

namespace ceresz::baselines {

const char* to_string(Device device) {
  switch (device) {
    case Device::kEpyc7742: return "AMD EPYC 7742 (64C)";
    case Device::kA100: return "NVIDIA A100 (108 SMs)";
  }
  return "?";
}

f64 DeviceThroughputModel::compress_gbps(const BaselineStats& stats) const {
  const f64 zero = stats.zero_fraction;
  const f64 bits = stats.mean_code_bits;
  f64 gbps = base_gbps;
  gbps *= 1.0 + zero_boost * zero;
  gbps /= 1.0 + bits_penalty * bits;
  return gbps;
}

f64 DeviceThroughputModel::decompress_gbps(const BaselineStats& stats) const {
  return compress_gbps(stats) * decomp_factor;
}

// Calibration notes (all against the paper's Figures 11-12 and Section 5):
//   cuSZp: dense payloads (~10 mean bits) land near 93 GB/s; heavy
//     zero-block streams (RTM/NYX at REL 1e-2) reach the ~190 GB/s that
//     makes CereSZ's smallest speedup 2.43x.
//   SZp:   multi-threaded on 64 EPYC cores; an order of magnitude under cuSZp.
//   cuSZ:  Huffman codebook construction and encoding dominate; its
//     decompression is slower than compression (serial-ish decode).
//   SZ3:   single-threaded CPU, sub-GB/s.
DeviceThroughputModel cuszp_model() {
  return {"cuSZp", Device::kA100, /*base=*/85.0, /*zero_boost=*/0.55,
          /*bits_penalty=*/0.020, /*decomp_factor=*/1.28};
}

DeviceThroughputModel szp_model() {
  return {"SZp", Device::kEpyc7742, /*base=*/14.0, /*zero_boost=*/0.5,
          /*bits_penalty=*/0.018, /*decomp_factor=*/1.15};
}

DeviceThroughputModel cusz_model() {
  return {"cuSZ", Device::kA100, /*base=*/38.0, /*zero_boost=*/0.25,
          /*bits_penalty=*/0.015, /*decomp_factor=*/0.85};
}

DeviceThroughputModel sz3_model() {
  return {"SZ", Device::kEpyc7742, /*base=*/0.55, /*zero_boost=*/0.25,
          /*bits_penalty=*/0.010, /*decomp_factor=*/1.05};
}

}  // namespace ceresz::baselines
