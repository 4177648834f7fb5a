// Lightweight error handling without exceptions.
//
// Status carries an error code + message; Result<T> is Status-or-value.
// These mirror the subset of absl::Status/StatusOr that the project needs.

#ifndef NETCACHE_COMMON_STATUS_H_
#define NETCACHE_COMMON_STATUS_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace netcache {

enum class StatusCode : int {
  kOk = 0,
  kNotFound = 1,
  kAlreadyExists = 2,
  kResourceExhausted = 3,
  kInvalidArgument = 4,
  kFailedPrecondition = 5,
  kUnavailable = 6,
  kInternal = 7,
};

const char* StatusCodeName(StatusCode code);

// Streams the code's name, so test failures and log lines read "NOT_FOUND"
// rather than raw enum bytes (gtest picks this up for EXPECT_EQ messages).
std::ostream& operator<<(std::ostream& os, StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "") { return Status(StatusCode::kNotFound, std::move(m)); }
  static Status AlreadyExists(std::string m = "") {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status ResourceExhausted(std::string m = "") {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status FailedPrecondition(std::string m = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Unavailable(std::string m = "") {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Internal(std::string m = "") { return Status(StatusCode::kInternal, std::move(m)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}            // NOLINT(google-explicit-constructor)
  Result(Status status) : value_(std::move(status)) {      // NOLINT(google-explicit-constructor)
    NC_CHECK(!std::get<Status>(value_).ok()) << "Result constructed from OK status";
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  const T& value() const& {
    NC_CHECK(ok()) << status().ToString();
    return std::get<T>(value_);
  }
  T& value() & {
    NC_CHECK(ok()) << status().ToString();
    return std::get<T>(value_);
  }
  T&& value() && {
    NC_CHECK(ok()) << status().ToString();
    return std::get<T>(std::move(value_));
  }

  Status status() const { return ok() ? Status::Ok() : std::get<Status>(value_); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

}  // namespace netcache

#endif  // NETCACHE_COMMON_STATUS_H_
