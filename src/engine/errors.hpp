// errors.hpp — structured error model for the evaluation pipeline.
//
// The engine is the inner loop of an automated design tool that may grind
// through thousands of candidates; a raw exception escaping one evaluation
// must not poison a whole sweep. At engine boundaries, failures are values:
// an Expected<T> either holds the computed T or an EvalError drawn from a
// small closed taxonomy, so callers can isolate, retry, or skip per request
// instead of unwinding the batch. Exceptions still exist *inside* the
// models (they are the cheapest way to bail out of a deep computation); the
// engine converts them to EvalErrors exactly once, at its boundary, via
// errorFromCurrentException().
//
// Taxonomy:
//   kInvalidDesign     — the design itself is malformed (null, fails model
//                        preconditions, unserializable); deterministic.
//   kInvalidScenario   — the failure scenario is malformed; deterministic.
//   kResourceExhausted — allocation or capacity failure; transient by
//                        definition (retry may succeed).
//   kCancelled         — a CancellationToken was triggered before this
//                        request ran.
//   kDeadlineExceeded  — the batch/search wall-clock deadline passed before
//                        this request ran.
//   kInjected          — a FaultInjector fired (tests only); transient when
//                        the plan says so.
//   kUnavailable       — a transport-layer failure reaching a remote
//                        evaluator (connect refused/reset, request could not
//                        be delivered, response lost or timed out, circuit
//                        breaker open); transient — a retry against a
//                        recovered peer may succeed.
//   kInternal          — anything else; a bug or an unclassified exception.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace stordep::engine {

enum class EvalErrorCode {
  kInvalidDesign,
  kInvalidScenario,
  kResourceExhausted,
  kCancelled,
  kDeadlineExceeded,
  kInjected,
  kUnavailable,
  kInternal,
};

/// Stable lowercase name ("invalid-design", "cancelled", ...) for logs,
/// journals and reports.
[[nodiscard]] const char* toString(EvalErrorCode code) noexcept;

/// One structured failure. `transient` marks errors that trying again may
/// clear (ResourceExhausted always; Injected when the fault plan says so);
/// `attempts` records how many evaluation attempts were consumed (the
/// engine makes at most one; a request cancelled before it started
/// reports 0).
struct EvalError {
  EvalErrorCode code = EvalErrorCode::kInternal;
  std::string message;
  bool transient = false;
  int attempts = 1;

  [[nodiscard]] std::string describe() const;
};

/// Exception carrying an EvalError across a boundary that still throws
/// (Expected::value() on an error slot, legacy throwing entry points).
class EvalException : public std::runtime_error {
 public:
  explicit EvalException(EvalError error)
      : std::runtime_error(error.describe()), error_(std::move(error)) {}
  [[nodiscard]] const EvalError& error() const noexcept { return error_; }

 private:
  EvalError error_;
};

/// Typed exceptions model code can throw to control classification; anything
/// else is classified by errorFromCurrentException()'s fallback rules.
class InvalidDesignError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};
class InvalidScenarioError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Classifies the in-flight exception (call inside a catch block only):
/// InjectedFault → kInjected (transient per the fault plan), bad_alloc →
/// kResourceExhausted (transient), invalid_argument/domain_error/
/// out_of_range and design-document errors → kInvalidDesign, typed scenario
/// errors → kInvalidScenario, everything else → kInternal.
[[nodiscard]] EvalError errorFromCurrentException();

/// The result-or-error sum type returned at engine boundaries. Cheap,
/// value-semantic, default-constructible (a default instance is an
/// kInternal "not evaluated" error so unfilled batch slots are loud).
template <typename T>
class Expected {
 public:
  Expected() : data_(EvalError{EvalErrorCode::kInternal, "not evaluated",
                               /*transient=*/false, /*attempts=*/0}) {}
  Expected(T value) : data_(std::move(value)) {}            // NOLINT(google-explicit-constructor)
  Expected(EvalError error) : data_(std::move(error)) {}    // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(data_);
  }
  explicit operator bool() const noexcept { return ok(); }

  /// The value; throws EvalException when this holds an error.
  [[nodiscard]] const T& value() const& {
    if (!ok()) throw EvalException(std::get<EvalError>(data_));
    return std::get<T>(data_);
  }
  [[nodiscard]] T& value() & {
    if (!ok()) throw EvalException(std::get<EvalError>(data_));
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw EvalException(std::get<EvalError>(data_));
    return std::get<T>(std::move(data_));
  }

  /// The error; throws std::logic_error when this holds a value.
  [[nodiscard]] const EvalError& error() const {
    if (ok()) throw std::logic_error("Expected holds a value, not an error");
    return std::get<EvalError>(data_);
  }

  /// Pointer view for branch-free inspection (nullptr on error / value).
  [[nodiscard]] const T* valueIf() const noexcept {
    return std::get_if<T>(&data_);
  }
  [[nodiscard]] const EvalError* errorIf() const noexcept {
    return std::get_if<EvalError>(&data_);
  }

 private:
  std::variant<T, EvalError> data_;
};

}  // namespace stordep::engine
