#include "mapping/profile.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/flenc.h"
#include "core/lorenzo.h"
#include "core/prequant.h"

namespace ceresz::mapping {

DataProfile StageProfiler::profile(std::span<const f32> data,
                                   core::ErrorBound bound, u64 seed) const {
  CERESZ_CHECK(sample_fraction_ > 0.0 && sample_fraction_ <= 1.0,
               "StageProfiler: sample fraction must be in (0, 1]");
  const u32 L = codec_.block_size;

  DataProfile p;
  const ArraySummary summary = summarize(data);
  p.eps_abs = bound.resolve(summary.range());
  if (data.size() < L) {
    // Degenerate input: assume a mid-range encoding length.
    p.est_fixed_length = 8;
    p.compress_cycles =
        cost_.compress_block_cycles(L, p.est_fixed_length, false);
    p.decompress_cycles =
        cost_.decompress_block_cycles(L, p.est_fixed_length, false);
    return p;
  }

  // Sample whole blocks (the fixed length is a per-block property) until
  // we have covered ~sample_fraction of the data points.
  const u64 n_blocks = data.size() / L;
  const u64 sample_blocks = std::max<u64>(
      1, static_cast<u64>(static_cast<f64>(n_blocks) * sample_fraction_));
  Rng rng(seed);

  std::vector<i32> quant(L);
  std::vector<u32> absv(L);
  std::vector<u8> signs(L / 8);
  u32 max_fl = 0;
  u64 zero_blocks = 0;
  for (u64 s = 0; s < sample_blocks; ++s) {
    const u64 b = rng.next_below(n_blocks);
    core::prequant(data.subspan(b * L, L), quant, 2.0 * p.eps_abs);
    core::lorenzo_forward(quant, quant);
    const u32 m = core::split_sign_max(quant, absv, signs);
    if (m == 0) {
      ++zero_blocks;
    } else {
      max_fl = std::max(max_fl, core::effective_bits(m));
    }
  }

  p.zero_fraction =
      static_cast<f64>(zero_blocks) / static_cast<f64>(sample_blocks);
  p.est_fixed_length = std::max(max_fl, 1u);
  p.compress_cycles =
      cost_.compress_block_cycles(L, p.est_fixed_length, false);
  p.decompress_cycles =
      cost_.decompress_block_cycles(L, p.est_fixed_length, false);
  return p;
}

}  // namespace ceresz::mapping
