// The in-flight state of one block as it moves through a compression or
// decompression pipeline, plus the sub-stage executor that each PE's stage
// group applies to it.
//
// On hardware each PE holds only the buffers its own sub-stages need; here
// one BlockWork travels with the block (attached to the fabric message) so
// the simulation stays functional end-to-end — the bytes emitted by the
// last pipeline PE are bit-identical to the host StreamCodec's output,
// which the integration tests assert.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "core/block_codec.h"
#include "core/config.h"
#include "core/costmodel.h"
#include "core/stage.h"

namespace ceresz::mapping {

struct BlockWork {
  // --- compression direction ---
  std::vector<f32> input;    ///< raw block
  std::vector<f64> scratch;  ///< after Multiplication
  std::vector<i32> quant;    ///< after Addition / Lorenzo
  std::vector<u32> absv;     ///< after Sign
  std::vector<u8> signs;
  u32 maxval = 0;
  u32 fl = 0;
  bool length_known = false;
  bool zero = false;
  std::vector<u8> planes;  ///< bit-shuffled payload

  // --- decompression direction ---
  std::vector<u8> record;    ///< one compressed block record
  std::vector<f32> output;   ///< reconstructed floats
};

/// Executes individual sub-stages on a BlockWork and reports the cycles
/// they actually cost (data-dependent: stages past a zero block's
/// GetLength, or shuffle planes beyond the block's true fixed length, are
/// skipped at a nominal dispatch cost).
class SubStageExecutor {
 public:
  SubStageExecutor(core::CodecConfig codec, core::PeCostModel cost, f64 eps);

  /// Apply one sub-stage; returns the cycles consumed.
  Cycles apply(BlockWork& work, const core::SubStage& stage) const;

  /// Assemble the final compressed record (header + signs + planes) into
  /// `out` through core::BlockCodec's record writer. Returns record size.
  std::size_t assemble_record(const BlockWork& work,
                              std::vector<u8>& out) const;

  /// Cycles a sub-stage costs when skipped (zero block / absent plane).
  static constexpr Cycles kSkipCycles = 20;

  f64 eps() const { return eps_; }
  const core::CodecConfig& codec() const { return records_.config(); }

 private:
  core::BlockCodec records_;  ///< the record format (header read/write)
  core::PeCostModel cost_;
  f64 eps_;
};

}  // namespace ceresz::mapping
