#ifndef DISCSEC_SCRIPT_INTERPRETER_H_
#define DISCSEC_SCRIPT_INTERPRETER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "script/ast.h"
#include "script/value.h"

namespace discsec {
namespace script {

/// Execution limits for the embedded player profile (§8: the prototype ran
/// on a CE reference platform; a real engine must bound rogue scripts —
/// the §1 "malicious application" threat).
struct Limits {
  /// Maximum evaluation steps (each node visit counts one). 0 = unlimited.
  uint64_t max_steps = 1'000'000;
  /// Maximum function-call depth.
  size_t max_call_depth = 128;
};

/// A tree-walking interpreter for the ECMAScript subset — the Code part of
/// the Application Manifest (paper §2/§8, script = ECMAScript).
///
/// The host (the Interactive Application Engine) registers native functions
/// and objects as globals before running; scripts call them like ordinary
/// functions. Errors are Status values (no exceptions), including
/// ResourceExhausted when a limit trips.
///
/// The interpreter owns every scope it creates (DESIGN.md §16): the global
/// scope, each call frame and each `for` scope. A frame or `for` scope is
/// freed when it exits unless a closure captured it; captured scopes live
/// until the interpreter is destroyed, so no script value keeps a session
/// alive. Each capture costs at least one step, so `Limits::max_steps`
/// bounds what a session retains.
class Interpreter {
 public:
  explicit Interpreter(Limits limits = Limits());

  /// Defines a global (host object, constant, native function).
  void DefineGlobal(const std::string& name, Value value);

  /// Shorthand for DefineGlobal(name, Value::Native(fn)).
  void DefineNative(const std::string& name, NativeFn fn);

  /// Parses and runs a source text in the global scope. Returns the value
  /// of the last expression statement (like a REPL), or undefined.
  /// The program's functions are retained by the interpreter (closures
  /// point into them).
  Result<Value> Run(const std::string& source);

  /// Calls a previously defined global function (e.g. an event handler the
  /// script registered by name).
  Result<Value> CallGlobal(const std::string& name,
                           const std::vector<Value>& args);

  /// Calls any callable value.
  Result<Value> CallValue(const Value& callee, const std::vector<Value>& args);

  /// Reads a global variable (undefined when unbound).
  Value GetGlobal(const std::string& name);

  /// Steps consumed so far (for the embedded-profile benchmarks).
  uint64_t steps_used() const { return steps_used_; }
  void ResetStepBudget() { steps_used_ = 0; }

 private:
  struct Flow;  // control-flow signal (return/break/continue)
  class Scope;  // a call frame or `for` scope, released on exit

  Result<Value> EvalNode(const Node& node, Environment* env, Flow* flow);
  Result<Value> EvalUpdate(const Node& node, Environment* env, Flow* flow);
  Status Tick(const Node& node);

  Limits limits_;
  uint64_t steps_used_ = 0;
  size_t call_depth_ = 0;
  std::unique_ptr<Environment> globals_;
  /// Scopes a closure captured, kept from their exit to the destructor.
  std::vector<std::unique_ptr<Environment>> captured_;
  /// Every function of every source run, kept alive for the closures.
  std::vector<std::unique_ptr<FunctionDef>> functions_;
};

}  // namespace script
}  // namespace discsec

#endif  // DISCSEC_SCRIPT_INTERPRETER_H_
