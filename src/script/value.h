#ifndef DISCSEC_SCRIPT_VALUE_H_
#define DISCSEC_SCRIPT_VALUE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace discsec {
namespace script {

class Value;
struct FunctionDef;
class Environment;

/// Host (native) function: receives evaluated arguments, returns a value.
/// Player APIs (storage, drawing, network) are exposed this way.
using NativeFn =
    std::function<Result<Value>(const std::vector<Value>& args)>;

/// A dynamically typed ECMAScript value. Objects and arrays have reference
/// semantics (shared between copies), matching ECMAScript.
class Value {
 public:
  enum class Kind {
    kUndefined,
    kNull,
    kBoolean,
    kNumber,
    kString,
    kObject,
    kArray,
    kFunction,
    kNative,
  };

  using Object = std::map<std::string, Value>;
  using Array = std::vector<Value>;

  /// A user-defined function: its definition (parameter names and body)
  /// and the closure environment, both owned by the Interpreter that made
  /// it. Neither pointer owns, so a closure value must not be called after
  /// that Interpreter is destroyed.
  struct Closure {
    const FunctionDef* def = nullptr;
    Environment* env = nullptr;
  };

  Value() : kind_(Kind::kUndefined) {}
  static Value Undefined() { return Value(); }
  static Value Null() {
    Value v;
    v.kind_ = Kind::kNull;
    return v;
  }
  static Value Boolean(bool b) {
    Value v;
    v.kind_ = Kind::kBoolean;
    v.boolean_ = b;
    return v;
  }
  static Value Number(double d) {
    Value v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.kind_ = Kind::kString;
    v.string_ = std::make_shared<std::string>(std::move(s));
    return v;
  }
  static Value MakeObject() {
    Value v;
    v.kind_ = Kind::kObject;
    v.object_ = std::make_shared<Object>();
    return v;
  }
  static Value MakeArray() {
    Value v;
    v.kind_ = Kind::kArray;
    v.array_ = std::make_shared<Array>();
    return v;
  }
  static Value Native(NativeFn fn) {
    Value v;
    v.kind_ = Kind::kNative;
    v.native_ = std::make_shared<NativeFn>(std::move(fn));
    return v;
  }
  static Value Function(Closure closure) {
    Value v;
    v.kind_ = Kind::kFunction;
    v.closure_ = std::make_shared<Closure>(std::move(closure));
    return v;
  }

  Kind kind() const { return kind_; }
  bool IsUndefined() const { return kind_ == Kind::kUndefined; }
  bool IsNull() const { return kind_ == Kind::kNull; }
  bool IsBoolean() const { return kind_ == Kind::kBoolean; }
  bool IsNumber() const { return kind_ == Kind::kNumber; }
  bool IsString() const { return kind_ == Kind::kString; }
  bool IsObject() const { return kind_ == Kind::kObject; }
  bool IsArray() const { return kind_ == Kind::kArray; }
  bool IsCallable() const {
    return kind_ == Kind::kFunction || kind_ == Kind::kNative;
  }

  bool AsBoolean() const { return boolean_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return *string_; }
  Object& AsObject() { return *object_; }
  const Object& AsObject() const { return *object_; }
  Array& AsArray() { return *array_; }
  const Array& AsArray() const { return *array_; }
  const NativeFn& AsNative() const { return *native_; }
  const Closure& AsClosure() const { return *closure_; }

  /// ECMAScript ToBoolean: false for undefined/null/false/0/NaN/"".
  bool Truthy() const;
  /// ToString for display and string concatenation.
  std::string ToDisplayString() const;
  /// ToNumber coercion (NaN on failure).
  double ToNumber() const;
  /// Strict equality (===).
  bool StrictEquals(const Value& other) const;

  const char* KindName() const;

 private:
  Kind kind_;
  bool boolean_ = false;
  double number_ = 0.0;
  std::shared_ptr<std::string> string_;
  std::shared_ptr<Object> object_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<NativeFn> native_;
  std::shared_ptr<Closure> closure_;
};

/// A lexical scope: name -> value, chained to the parent scope. The
/// Interpreter owns every scope; parents and closures point at them without
/// owning (DESIGN.md §16).
class Environment {
 public:
  explicit Environment(Environment* parent = nullptr) : parent_(parent) {}

  /// Declares (or overwrites) in this scope.
  void Define(const std::string& name, Value value) {
    variables_[name] = std::move(value);
  }

  /// Finds the nearest scope defining `name`; null when unbound.
  Value* Lookup(const std::string& name) {
    for (Environment* env = this; env != nullptr; env = env->parent_) {
      auto it = env->variables_.find(name);
      if (it != env->variables_.end()) return &it->second;
    }
    return nullptr;
  }

  /// Assigns to the nearest binding, or defines globally when unbound
  /// (ECMAScript 3 non-strict behaviour).
  void Assign(const std::string& name, Value value) {
    for (Environment* env = this; env != nullptr; env = env->parent_) {
      auto it = env->variables_.find(name);
      if (it != env->variables_.end()) {
        it->second = std::move(value);
        return;
      }
      if (env->parent_ == nullptr) {
        env->variables_[name] = std::move(value);
        return;
      }
    }
  }

  /// Marks this scope and its ancestors as captured by a closure, stopping
  /// at the first scope already marked. A captured scope outlives its exit.
  void MarkCaptured() {
    for (Environment* env = this; env != nullptr && !env->captured_;
         env = env->parent_) {
      env->captured_ = true;
    }
  }
  bool captured() const { return captured_; }

 private:
  std::map<std::string, Value> variables_;
  Environment* parent_;
  bool captured_ = false;
};

}  // namespace script
}  // namespace discsec

#endif  // DISCSEC_SCRIPT_VALUE_H_
