#include "common/status.h"

#include <ostream>

namespace netcache {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::ostream& operator<<(std::ostream& os, StatusCode code) { return os << StatusCodeName(code); }

std::string Status::ToString() const {
  std::string s = StatusCodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace netcache
