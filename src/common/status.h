#ifndef DISCSEC_COMMON_STATUS_H_
#define DISCSEC_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace discsec {

/// A Status encapsulates the result of an operation. It may indicate success,
/// or it may indicate an error with an associated error message.
///
/// No exceptions cross the public API of this library; every fallible
/// operation returns a Status (or a Result<T>, see result.h).
class Status {
 public:
  /// Error categories used throughout the library.
  enum class Code {
    kOk = 0,
    kInvalidArgument,     ///< caller passed something malformed
    kNotFound,            ///< a referenced entity does not exist
    kCorruption,          ///< stored/transmitted data failed structural checks
    kParseError,          ///< XML or script text could not be parsed
    kCryptoError,         ///< a cryptographic primitive failed
    kVerificationFailed,  ///< a signature / MAC / certificate check failed
    kPermissionDenied,    ///< access-control policy denied the request
    kUnsupported,         ///< algorithm or feature not implemented
    kIOError,             ///< filesystem or channel failure
    kResourceExhausted,   ///< embedded-profile budget exceeded
    kUnavailable,         ///< transient failure; a retry may succeed
    kDeadlineExceeded,    ///< operation (or its retry budget) timed out
  };

  /// Creates an OK (success) status.
  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(Code::kParseError, std::move(msg));
  }
  static Status CryptoError(std::string msg) {
    return Status(Code::kCryptoError, std::move(msg));
  }
  static Status VerificationFailed(std::string msg) {
    return Status(Code::kVerificationFailed, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(Code::kPermissionDenied, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(Code::kUnsupported, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }

  /// Builds a status from a code chosen at runtime (fault injection, wire
  /// decoding). Make(Code::kOk, ...) returns OK and drops the message.
  static Status Make(Code code, std::string msg) {
    if (code == Code::kOk) return Status();
    return Status(code, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsParseError() const { return code_ == Code::kParseError; }
  bool IsCryptoError() const { return code_ == Code::kCryptoError; }
  bool IsVerificationFailed() const {
    return code_ == Code::kVerificationFailed;
  }
  bool IsPermissionDenied() const { return code_ == Code::kPermissionDenied; }
  bool IsUnsupported() const { return code_ == Code::kUnsupported; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code_ == Code::kDeadlineExceeded;
  }

  /// gRPC-style retryability taxonomy: only kUnavailable marks a transient
  /// condition a retry may cure. Deadline expiry is terminal (the budget is
  /// spent), and every logic/corruption/security error is deterministic.
  bool IsRetryable() const { return code_ == Code::kUnavailable; }

  /// Human-readable rendering, e.g. "VerificationFailed: digest mismatch".
  std::string ToString() const;

  /// Returns a copy of this status with extra context prepended to the
  /// message, preserving the code (and any retry-after hint). OK statuses
  /// are returned unchanged.
  /// Chains: st.WithContext("a").WithContext("b") reads "b: a: <msg>".
  Status WithContext(std::string_view context) const;

  /// Server-supplied backoff hint: how long the caller should wait before
  /// retrying, microseconds. 0 means "no hint" (the normal case); an
  /// overloaded responder sets it on the kUnavailable it sheds with, and
  /// RetryAsync then uses it in place of its own exponential step (its
  /// jitter still applies, so a shed fleet re-spreads instead of retrying
  /// in lockstep). Carried by value through WithContext/Result plumbing.
  int64_t retry_after_us() const { return retry_after_us_; }

  /// Returns a copy of this status carrying `retry_after_us` as its backoff
  /// hint. OK statuses are returned unchanged (a success carries no hint).
  Status WithRetryAfter(int64_t retry_after_us) const {
    if (ok()) return *this;
    Status copy = *this;
    copy.retry_after_us_ = retry_after_us < 0 ? 0 : retry_after_us;
    return copy;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
  int64_t retry_after_us_ = 0;
};

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define DISCSEC_RETURN_IF_ERROR(expr)              \
  do {                                             \
    ::discsec::Status _st = (expr);                \
    if (!_st.ok()) return _st;                     \
  } while (0)

}  // namespace discsec

#endif  // DISCSEC_COMMON_STATUS_H_
