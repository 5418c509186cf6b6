#include "common/byte_io.h"

#include <string>

#include "common/error.h"

namespace ceresz {

void ByteReader::truncated(u64 count, std::size_t elem_bytes) const {
  std::string msg = std::string(context_) + ": truncated input (" +
                    std::to_string(count);
  msg += elem_bytes == 1 ? " bytes"
                         : " elements of " + std::to_string(elem_bytes) +
                               " bytes";
  msg += " wanted at offset " + std::to_string(pos_) + ", " +
         std::to_string(remaining()) + " remain)";
  CERESZ_FAIL(msg);
}

}  // namespace ceresz
