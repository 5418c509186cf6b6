#include "common/error.h"

#include <sstream>

namespace ceresz::detail {

void throw_error(const char* file, int line, const char* cond,
                 const std::string& message, ErrorKind kind) {
  std::ostringstream oss;
  oss << message << " [" << cond << " at " << file << ':' << line << ']';
  throw Error(oss.str(), kind);
}

}  // namespace ceresz::detail
