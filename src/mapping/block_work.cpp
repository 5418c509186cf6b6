#include "mapping/block_work.h"

#include <algorithm>

#include "common/error.h"
#include "core/flenc.h"
#include "core/lorenzo.h"
#include "core/prequant.h"

namespace ceresz::mapping {

SubStageExecutor::SubStageExecutor(core::CodecConfig codec,
                                   core::PeCostModel cost, f64 eps)
    : records_(codec), cost_(cost), eps_(eps) {
  CERESZ_CHECK(!codec.constant_block_shortcut,
               "SubStageExecutor: the pipelines implement the paper's record "
               "format, without the constant-block extension");
  CERESZ_CHECK(eps_ > 0.0, "SubStageExecutor: eps must be positive");
}

Cycles SubStageExecutor::apply(BlockWork& work,
                               const core::SubStage& stage) const {
  using core::SubStageKind;
  const u32 L = codec().block_size;
  const Cycles full = cost_.substage_cycles(stage, L);

  switch (stage.kind) {
    case SubStageKind::kPrequantMul:
      CERESZ_CHECK(work.input.size() == L, "apply: bad input block");
      work.scratch.resize(L);
      core::prequant_multiply(work.input, work.scratch, 1.0 / (2.0 * eps_));
      return full;

    case SubStageKind::kPrequantAdd:
      work.quant.resize(L);
      core::prequant_add_floor(work.scratch, work.quant);
      return full;

    case SubStageKind::kLorenzo:
      core::lorenzo_forward(work.quant, work.quant);
      return full;

    case SubStageKind::kSign:
      work.absv.resize(L);
      work.signs.resize(L / 8);
      core::split_sign(work.quant, work.absv, work.signs);
      return full;

    case SubStageKind::kMax:
      work.maxval = core::block_max(work.absv);
      return full;

    case SubStageKind::kGetLength: {
      work.fl = core::effective_bits(work.maxval);
      work.zero = codec().zero_block_shortcut && work.maxval == 0;
      if (!work.zero) work.fl = std::max(work.fl, 1u);
      work.length_known = true;
      if (work.zero) {
        work.planes.clear();
        return cost_.zero_block_tail;
      }
      work.planes.assign(static_cast<std::size_t>(work.fl) * (L / 8), 0);
      return full;
    }

    case SubStageKind::kShuffleBit: {
      CERESZ_CHECK(work.length_known, "apply: shuffle before GetLength");
      if (work.zero || stage.bit_index >= work.fl) return kSkipCycles;
      // A tail stage covers every remaining plane: the plan was built from
      // the sampled fixed-length estimate, and blocks whose true length
      // exceeds it overflow onto the last shuffle PE.
      const u32 last_bit = stage.tail ? work.fl : stage.bit_index + 1;
      const std::size_t plane_bytes = L / 8;
      for (u32 k = stage.bit_index; k < last_bit; ++k) {
        core::bit_shuffle_plane(
            work.absv, k,
            std::span<u8>(work.planes.data() + k * plane_bytes, plane_bytes));
      }
      return full * (last_bit - stage.bit_index);
    }

    case SubStageKind::kUnshuffleBit: {
      // First unshuffle sub-stage parses the record header.
      if (!work.length_known) {
        work.fl = records_.read_header(work.record);
        work.zero = work.fl == 0;
        work.length_known = true;
        work.absv.assign(L, 0);
      }
      if (work.zero || stage.bit_index >= work.fl) return kSkipCycles;
      const u32 last_bit = stage.tail ? work.fl : stage.bit_index + 1;
      const std::size_t plane_bytes = L / 8;
      for (u32 k = stage.bit_index; k < last_bit; ++k) {
        const std::size_t plane_at =
            codec().header_bytes + plane_bytes +
            static_cast<std::size_t>(k) * plane_bytes;
        CERESZ_CHECK(work.record.size() >= plane_at + plane_bytes,
                     "apply: truncated record payload");
        for (std::size_t j = 0; j < L; ++j) {
          const u32 bit = (work.record[plane_at + j / 8] >> (j % 8)) & 1u;
          work.absv[j] |= bit << k;
        }
      }
      return full * (last_bit - stage.bit_index);
    }

    case SubStageKind::kPrefixSum: {
      work.quant.resize(L);
      if (work.zero) {
        std::fill(work.quant.begin(), work.quant.end(), 0);
        return kSkipCycles;
      }
      const std::size_t plane_bytes = L / 8;
      std::span<const u8> signs(work.record.data() + codec().header_bytes,
                                plane_bytes);
      core::apply_sign(work.absv, signs, work.quant);
      core::lorenzo_inverse(work.quant, work.quant);
      return full;
    }

    case SubStageKind::kDequantMul:
      work.output.resize(L);
      core::dequant(work.quant, work.output, 2.0 * eps_);
      return work.zero ? cost_.zero_block_tail : full;
  }
  CERESZ_FAIL("apply: unknown sub-stage kind");
}

std::size_t SubStageExecutor::assemble_record(const BlockWork& work,
                                              std::vector<u8>& out) const {
  CERESZ_CHECK(work.length_known, "assemble_record: pipeline incomplete");
  const std::size_t before = out.size();
  u8* body = records_.append_record(work.zero ? 0 : work.fl, out);
  if (!work.zero) {
    CERESZ_CHECK(work.signs.size() + work.planes.size() ==
                     out.size() - before - codec().header_bytes,
                 "assemble_record: planes do not match the fixed length");
    body = std::copy(work.signs.begin(), work.signs.end(), body);
    std::copy(work.planes.begin(), work.planes.end(), body);
  }
  return out.size() - before;
}

}  // namespace ceresz::mapping
