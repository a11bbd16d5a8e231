// Status / StatusOr: exception-free error propagation, following the
// convention of Google-style database codebases.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace burtree {

/// Coarse error taxonomy for the library's public API.
enum class StatusCode {
  kOk = 0,
  kNotFound,        ///< Object / page / entry missing.
  kInvalidArgument, ///< Caller passed something out of contract.
  kCorruption,      ///< On-page structure failed validation.
  kResourceExhausted, ///< Buffer pool full of pinned pages, etc.
  kAborted,         ///< Operation gave up (e.g., lock wait timeout).
  kUnsupported,     ///< Feature disabled by options.
  kLatchContention, ///< Page-latched path must escalate / retry (cc layer).
  kIoError,         ///< Operating-system I/O failure (file backend).
};

/// Value-semantic success/error result. Cheap to copy on the OK path.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string m = "not found") {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status Corruption(std::string m) {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Aborted(std::string m = "aborted") {
    return Status(StatusCode::kAborted, std::move(m));
  }
  static Status Unsupported(std::string m) {
    return Status(StatusCode::kUnsupported, std::move(m));
  }
  /// The operation cannot complete under the latches it currently holds
  /// (page-latch scope too small, or a try-latch lost a race). Never an
  /// application-visible error: the cc layer catches it and retries the
  /// operation under the tree-wide exclusive latch.
  static Status LatchContention(std::string m = "latch contention") {
    return Status(StatusCode::kLatchContention, std::move(m));
  }
  static Status IoError(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + msg_;
  }

  static const char* CodeName(StatusCode c) {
    switch (c) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kCorruption: return "Corruption";
      case StatusCode::kResourceExhausted: return "ResourceExhausted";
      case StatusCode::kAborted: return "Aborted";
      case StatusCode::kUnsupported: return "Unsupported";
      case StatusCode::kLatchContention: return "LatchContention";
      case StatusCode::kIoError: return "IoError";
    }
    return "Unknown";
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value of T or an error Status. Access to value() on error
/// aborts (programming error), mirroring absl::StatusOr semantics.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status s) : v_(std::move(s)) {  // NOLINT implicit
    BURTREE_DCHECK(!std::get<Status>(v_).ok());
  }
  StatusOr(T value) : v_(std::move(value)) {}  // NOLINT implicit

  bool ok() const { return std::holds_alternative<T>(v_); }
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(v_);
  }
  const T& value() const& {
    BURTREE_CHECK(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    BURTREE_CHECK(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    BURTREE_CHECK(ok());
    return std::move(std::get<T>(v_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  std::variant<Status, T> v_;
};

}  // namespace burtree

/// Propagate a non-OK Status to the caller.
#define BURTREE_RETURN_IF_ERROR(expr)         \
  do {                                        \
    ::burtree::Status _st = (expr);           \
    if (!_st.ok()) return _st;                \
  } while (0)
