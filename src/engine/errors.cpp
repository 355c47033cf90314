#include "engine/errors.hpp"

#include <new>

#include "config/design_io.hpp"
#include "engine/fault_injection.hpp"

namespace stordep::engine {

const char* toString(EvalErrorCode code) noexcept {
  switch (code) {
    case EvalErrorCode::kInvalidDesign:
      return "invalid-design";
    case EvalErrorCode::kInvalidScenario:
      return "invalid-scenario";
    case EvalErrorCode::kResourceExhausted:
      return "resource-exhausted";
    case EvalErrorCode::kCancelled:
      return "cancelled";
    case EvalErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case EvalErrorCode::kInjected:
      return "injected";
    case EvalErrorCode::kUnavailable:
      return "unavailable";
    case EvalErrorCode::kInternal:
      return "internal";
  }
  return "internal";
}

std::string EvalError::describe() const {
  std::string out = toString(code);
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

EvalError errorFromCurrentException() {
  try {
    throw;
  } catch (const EvalException& e) {
    return e.error();
  } catch (const InjectedFault& e) {
    return EvalError{EvalErrorCode::kInjected, e.what(), e.transient()};
  } catch (const InvalidScenarioError& e) {
    return EvalError{EvalErrorCode::kInvalidScenario, e.what()};
  } catch (const InvalidDesignError& e) {
    return EvalError{EvalErrorCode::kInvalidDesign, e.what()};
  } catch (const std::bad_alloc& e) {
    return EvalError{EvalErrorCode::kResourceExhausted, e.what(),
                     /*transient=*/true};
  } catch (const config::DesignIoError& e) {
    return EvalError{EvalErrorCode::kInvalidDesign, e.what()};
  } catch (const std::invalid_argument& e) {
    return EvalError{EvalErrorCode::kInvalidDesign, e.what()};
  } catch (const std::domain_error& e) {
    return EvalError{EvalErrorCode::kInvalidDesign, e.what()};
  } catch (const std::out_of_range& e) {
    return EvalError{EvalErrorCode::kInvalidDesign, e.what()};
  } catch (const std::length_error& e) {
    return EvalError{EvalErrorCode::kResourceExhausted, e.what(),
                     /*transient=*/true};
  } catch (const std::exception& e) {
    return EvalError{EvalErrorCode::kInternal, e.what()};
  } catch (...) {
    return EvalError{EvalErrorCode::kInternal, "unknown exception"};
  }
}

}  // namespace stordep::engine
