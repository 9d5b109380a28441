// Precondition/assertion helpers used across the library.
//
// The library reports contract violations with exceptions so that callers
// (tests, experiment harnesses) can observe them; there is no "abort" mode.
#pragma once

#include <stdexcept>
#include <string>

namespace talon {

/// Thrown when a function precondition is violated.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when an operation is attempted in an invalid state
/// (e.g. reading firmware sweep info before the patch is applied).
class StateError : public std::runtime_error {
 public:
  explicit StateError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown on malformed external input (e.g. a corrupt pattern CSV file).
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a serialized state snapshot cannot be decoded: truncated
/// payload, bad magic, unsupported version, or an internal length field
/// that contradicts the data. Distinct from ParseError so callers can
/// separate "bad snapshot file" from "bad configuration input".
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a computed result breaks a documented output invariant
/// (e.g. a selection outside the search grid): a defect surfaced as an
/// error instead of a silent garbage result.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void fail_expects(const char* cond, const char* file, int line) {
  throw PreconditionError(std::string("precondition failed: ") + cond + " at " +
                          file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace talon

/// Precondition check; throws talon::PreconditionError on violation.
#define TALON_EXPECTS(cond)                                          \
  do {                                                               \
    if (!(cond)) ::talon::detail::fail_expects(#cond, __FILE__, __LINE__); \
  } while (false)
