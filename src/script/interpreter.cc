#include "script/interpreter.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>

#include "script/parser.h"

namespace discsec {
namespace script {

/// Control-flow signal threaded through statement evaluation.
struct Interpreter::Flow {
  enum class Kind { kNormal, kReturn, kBreak, kContinue };
  Kind kind = Kind::kNormal;
  Value return_value;

  bool Interrupted() const { return kind != Kind::kNormal; }
  void Clear() {
    kind = Kind::kNormal;
    return_value = Value();
  }
};

namespace {

/// The deterministic standard-library subset every interpreter gets:
/// Math (no Math.random — the player profile is deterministic), number
/// parsing and NaN checks, and String.fromCharCode.
void InstallBuiltins(Environment* globals) {
  Value math = Value::MakeObject();
  auto unary = [](double (*fn)(double)) {
    return Value::Native([fn](const std::vector<Value>& args) -> Result<Value> {
      return Value::Number(fn(args.empty() ? std::nan("") : args[0].ToNumber()));
    });
  };
  math.AsObject()["floor"] = unary([](double v) { return std::floor(v); });
  math.AsObject()["ceil"] = unary([](double v) { return std::ceil(v); });
  math.AsObject()["round"] = unary([](double v) { return std::round(v); });
  math.AsObject()["abs"] = unary([](double v) { return std::fabs(v); });
  math.AsObject()["sqrt"] = unary([](double v) { return std::sqrt(v); });
  math.AsObject()["max"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        double best = -std::numeric_limits<double>::infinity();
        for (const Value& v : args) best = std::max(best, v.ToNumber());
        return Value::Number(args.empty() ? std::nan("") : best);
      });
  math.AsObject()["min"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        double best = std::numeric_limits<double>::infinity();
        for (const Value& v : args) best = std::min(best, v.ToNumber());
        return Value::Number(args.empty() ? std::nan("") : best);
      });
  math.AsObject()["pow"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        if (args.size() < 2) return Value::Number(std::nan(""));
        return Value::Number(std::pow(args[0].ToNumber(),
                                      args[1].ToNumber()));
      });
  globals->Define("Math", math);

  globals->Define(
      "parseInt",
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        if (args.empty()) return Value::Number(std::nan(""));
        std::string s = args[0].ToDisplayString();
        int base = args.size() > 1
                       ? static_cast<int>(args[1].ToNumber())
                       : 10;
        char* end = nullptr;
        long long v = std::strtoll(s.c_str(), &end, base);
        if (end == s.c_str()) return Value::Number(std::nan(""));
        return Value::Number(static_cast<double>(v));
      }));
  globals->Define(
      "parseFloat",
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        if (args.empty()) return Value::Number(std::nan(""));
        std::string s = args[0].ToDisplayString();
        char* end = nullptr;
        double v = std::strtod(s.c_str(), &end);
        if (end == s.c_str()) return Value::Number(std::nan(""));
        return Value::Number(v);
      }));
  globals->Define(
      "isNaN",
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        return Value::Boolean(args.empty() ||
                              std::isnan(args[0].ToNumber()));
      }));

  Value string_ns = Value::MakeObject();
  string_ns.AsObject()["fromCharCode"] =
      Value::Native([](const std::vector<Value>& args) -> Result<Value> {
        std::string out;
        for (const Value& v : args) {
          out.push_back(static_cast<char>(
              static_cast<int>(v.ToNumber()) & 0x7f));
        }
        return Value::String(out);
      });
  globals->Define("String", string_ns);
}

Status UndefinedVariable(const Node& identifier) {
  return Status::NotFound("undefined variable '" + identifier.string_value +
                          "' at line " + std::to_string(identifier.line));
}

/// `object.name`: own properties of objects, array length/push and the
/// string methods; undefined for anything else.
Value ReadMember(const Value& object, const std::string& name) {
  if (object.IsObject()) {
    auto it = object.AsObject().find(name);
    return it != object.AsObject().end() ? it->second : Value();
  }
  if (object.IsArray() && name == "length") {
    return Value::Number(static_cast<double>(object.AsArray().size()));
  }
  if (object.IsArray() && name == "push") {
    Value array = object;  // shares the underlying storage
    return Value::Native([array](const std::vector<Value>& args) mutable
                             -> Result<Value> {
      for (const Value& v : args) array.AsArray().push_back(v);
      return Value::Number(static_cast<double>(array.AsArray().size()));
    });
  }
  if (object.IsString() && name == "length") {
    return Value::Number(static_cast<double>(object.AsString().size()));
  }
  if (object.IsString() && (name == "charAt" || name == "substring" ||
                            name == "indexOf" || name == "toUpperCase" ||
                            name == "toLowerCase")) {
    std::string s = object.AsString();
    if (name == "charAt") {
      return Value::Native(
          [s](const std::vector<Value>& args) -> Result<Value> {
            size_t i = args.empty()
                           ? 0
                           : static_cast<size_t>(args[0].ToNumber());
            return Value::String(i < s.size() ? std::string(1, s[i])
                                              : std::string());
          });
    }
    if (name == "substring") {
      return Value::Native(
          [s](const std::vector<Value>& args) -> Result<Value> {
            size_t b = args.empty()
                           ? 0
                           : static_cast<size_t>(
                                 std::max(0.0, args[0].ToNumber()));
            size_t e = args.size() < 2 ? s.size()
                                       : static_cast<size_t>(std::max(
                                             0.0, args[1].ToNumber()));
            b = std::min(b, s.size());
            e = std::min(e, s.size());
            if (b > e) std::swap(b, e);
            return Value::String(s.substr(b, e - b));
          });
    }
    if (name == "indexOf") {
      return Value::Native(
          [s](const std::vector<Value>& args) -> Result<Value> {
            if (args.empty()) return Value::Number(-1);
            size_t p = s.find(args[0].ToDisplayString());
            return Value::Number(
                p == std::string::npos ? -1 : static_cast<double>(p));
          });
    }
    bool upper = name == "toUpperCase";
    return Value::Native(
        [s, upper](const std::vector<Value>&) -> Result<Value> {
          std::string out = s;
          for (char& c : out) {
            c = upper ? static_cast<char>(std::toupper(
                            static_cast<unsigned char>(c)))
                      : static_cast<char>(std::tolower(
                            static_cast<unsigned char>(c)));
          }
          return Value::String(out);
        });
  }
  return Value();  // missing property -> undefined
}

/// `object[index]` for arrays, objects and strings.
Result<Value> ReadIndex(const Value& object, const Value& index) {
  if (object.IsArray()) {
    double d = index.ToNumber();
    if (std::isnan(d) || d < 0 ||
        static_cast<size_t>(d) >= object.AsArray().size()) {
      return Value();
    }
    return object.AsArray()[static_cast<size_t>(d)];
  }
  if (object.IsObject()) {
    auto it = object.AsObject().find(index.ToDisplayString());
    return it != object.AsObject().end() ? it->second : Value();
  }
  if (object.IsString()) {
    double d = index.ToNumber();
    if (std::isnan(d) || d < 0 ||
        static_cast<size_t>(d) >= object.AsString().size()) {
      return Value();
    }
    return Value::String(
        std::string(1, object.AsString()[static_cast<size_t>(d)]));
  }
  return Status::InvalidArgument(std::string("cannot index ") +
                                 object.KindName());
}

Status WriteMember(Value& object, const std::string& name, Value value) {
  if (!object.IsObject()) {
    return Status::InvalidArgument("cannot set property '" + name + "' on " +
                                   object.KindName());
  }
  object.AsObject()[name] = std::move(value);
  return Status::OK();
}

Status WriteIndex(Value& object, const Value& index, Value value) {
  if (object.IsArray()) {
    double d = index.ToNumber();
    if (std::isnan(d) || d < 0) {
      return Status::InvalidArgument("bad array index");
    }
    size_t i = static_cast<size_t>(d);
    if (i >= object.AsArray().size()) {
      if (i > 1u << 20) {
        return Status::ResourceExhausted("array index too large");
      }
      object.AsArray().resize(i + 1);
    }
    object.AsArray()[i] = std::move(value);
    return Status::OK();
  }
  if (object.IsObject()) {
    object.AsObject()[index.ToDisplayString()] = std::move(value);
    return Status::OK();
  }
  return Status::InvalidArgument(std::string("cannot index ") +
                                 object.KindName());
}

/// Applies a binary operator node's code (a compound assignment's too).
Result<Value> EvalBinary(const Node& node, const Value& lhs,
                         const Value& rhs) {
  switch (node.op) {
    case Op::kAdd:
      if (lhs.IsString() || rhs.IsString()) {
        return Value::String(lhs.ToDisplayString() + rhs.ToDisplayString());
      }
      return Value::Number(lhs.ToNumber() + rhs.ToNumber());
    case Op::kSub:
      return Value::Number(lhs.ToNumber() - rhs.ToNumber());
    case Op::kMul:
      return Value::Number(lhs.ToNumber() * rhs.ToNumber());
    case Op::kDiv:
      return Value::Number(lhs.ToNumber() / rhs.ToNumber());
    case Op::kMod:
      return Value::Number(std::fmod(lhs.ToNumber(), rhs.ToNumber()));
    case Op::kEq:
    case Op::kStrictEq:
      return Value::Boolean(lhs.StrictEquals(rhs));
    case Op::kNe:
    case Op::kStrictNe:
      return Value::Boolean(!lhs.StrictEquals(rhs));
    case Op::kLt:
    case Op::kGt:
    case Op::kLe:
    case Op::kGe: {
      // String/string comparisons are lexicographic, otherwise numeric.
      int cmp;
      if (lhs.IsString() && rhs.IsString()) {
        cmp = lhs.AsString().compare(rhs.AsString());
      } else {
        double a = lhs.ToNumber();
        double b = rhs.ToNumber();
        if (std::isnan(a) || std::isnan(b)) return Value::Boolean(false);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      }
      switch (node.op) {
        case Op::kLt: return Value::Boolean(cmp < 0);
        case Op::kGt: return Value::Boolean(cmp > 0);
        case Op::kLe: return Value::Boolean(cmp <= 0);
        default: return Value::Boolean(cmp >= 0);
      }
    }
    default:
      return Status::Unsupported("binary operator '" + node.string_value +
                                 "'");
  }
}

}  // namespace

/// A call frame or `for` scope. On exit, on every path, the scope is freed
/// unless a closure captured it; a captured scope moves to the interpreter,
/// which frees it in its destructor. A child exits before its parent and
/// marks propagate upwards, so a kept scope never points at a freed one.
class Interpreter::Scope {
 public:
  Scope(Interpreter* interpreter, Environment* parent)
      : interpreter_(interpreter),
        env_(std::make_unique<Environment>(parent)) {}
  ~Scope() {
    if (env_->captured()) interpreter_->captured_.push_back(std::move(env_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Environment* get() const { return env_.get(); }

 private:
  Interpreter* interpreter_;
  std::unique_ptr<Environment> env_;
};

Interpreter::Interpreter(Limits limits)
    : limits_(limits), globals_(std::make_unique<Environment>()) {
  // The global scope lives as long as the interpreter; marking it stops
  // every capture mark there.
  globals_->MarkCaptured();
  InstallBuiltins(globals_.get());
}

void Interpreter::DefineGlobal(const std::string& name, Value value) {
  globals_->Define(name, std::move(value));
}

void Interpreter::DefineNative(const std::string& name, NativeFn fn) {
  globals_->Define(name, Value::Native(std::move(fn)));
}

Status Interpreter::Tick(const Node& node) {
  ++steps_used_;
  if (limits_.max_steps != 0 && steps_used_ > limits_.max_steps) {
    return Status::ResourceExhausted(
        "script exceeded step budget at line " + std::to_string(node.line));
  }
  return Status::OK();
}

Result<Value> Interpreter::Run(const std::string& source) {
  DISCSEC_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  // Closures made below point at these definitions; the statement tree is
  // not needed once it has run.
  for (auto& def : program.functions) functions_.push_back(std::move(def));
  Flow flow;
  Value last;
  for (const NodePtr& stmt : program.root->children) {
    DISCSEC_ASSIGN_OR_RETURN(last, EvalNode(*stmt, globals_.get(), &flow));
    if (flow.Interrupted()) break;  // top-level return ends the script
  }
  return last;
}

Value Interpreter::GetGlobal(const std::string& name) {
  Value* v = globals_->Lookup(name);
  return v != nullptr ? *v : Value();
}

Result<Value> Interpreter::CallGlobal(const std::string& name,
                                      const std::vector<Value>& args) {
  Value* fn = globals_->Lookup(name);
  if (fn == nullptr) {
    return Status::NotFound("no global function '" + name + "'");
  }
  return CallValue(*fn, args);
}

Result<Value> Interpreter::CallValue(const Value& callee,
                                     const std::vector<Value>& args) {
  if (callee.kind() == Value::Kind::kNative) {
    return callee.AsNative()(args);
  }
  if (callee.kind() != Value::Kind::kFunction) {
    return Status::InvalidArgument(std::string("value of type ") +
                                   callee.KindName() + " is not callable");
  }
  if (call_depth_ >= limits_.max_call_depth) {
    return Status::ResourceExhausted("script exceeded call depth");
  }
  const Value::Closure& closure = callee.AsClosure();
  const FunctionDef& def = *closure.def;
  Scope frame(this, closure.env);
  Environment* env = frame.get();
  for (size_t i = 0; i < def.params.size(); ++i) {
    env->Define(def.params[i], i < args.size() ? args[i] : Value());
  }
  // `arguments` array.
  Value arguments = Value::MakeArray();
  arguments.AsArray() = args;
  env->Define("arguments", std::move(arguments));

  ++call_depth_;
  Flow flow;
  auto result = EvalNode(*def.body, env, &flow);
  --call_depth_;
  if (!result.ok()) return result.status();
  if (flow.kind == Flow::Kind::kReturn) return std::move(flow.return_value);
  return Value();
}

/// Assignment (`x = v`, `x op= v`, and prefix ++/-- desugared to `x += 1`)
/// and postfix ++/--, in ECMAScript's order: the target's object and index
/// are evaluated once, before the operand; the forms other than plain `=`
/// then read that slot, and the new value is written back to the same
/// slot. Reading the target counts one step, as evaluating it would.
Result<Value> Interpreter::EvalUpdate(const Node& node, Environment* env,
                                      Flow* flow) {
  const Node& target = *node.children[0];
  const bool reads_target =
      node.type == NodeType::kPostfix || node.op != Op::kNone;
  if (reads_target) DISCSEC_RETURN_IF_ERROR(Tick(target));
  Value* slot = nullptr;
  Value object;
  Value index;
  Value current;
  if (target.type == NodeType::kIdentifier) {
    if (reads_target) {
      slot = env->Lookup(target.string_value);
      if (slot == nullptr) return UndefinedVariable(target);
      current = *slot;
    }
  } else if (target.type == NodeType::kMember) {
    DISCSEC_ASSIGN_OR_RETURN(object,
                             EvalNode(*target.children[0], env, flow));
    if (reads_target) current = ReadMember(object, target.string_value);
  } else if (target.type == NodeType::kIndex) {
    DISCSEC_ASSIGN_OR_RETURN(object,
                             EvalNode(*target.children[0], env, flow));
    DISCSEC_ASSIGN_OR_RETURN(index,
                             EvalNode(*target.children[1], env, flow));
    if (reads_target) {
      DISCSEC_ASSIGN_OR_RETURN(current, ReadIndex(object, index));
    }
  } else {
    return Status::InvalidArgument("invalid assignment target");
  }
  Value updated;
  Value result;
  if (node.type == NodeType::kPostfix) {
    const double old_value = current.ToNumber();
    updated = Value::Number(node.op == Op::kAdd ? old_value + 1
                                                : old_value - 1);
    result = Value::Number(old_value);
  } else {
    DISCSEC_ASSIGN_OR_RETURN(Value rhs,
                             EvalNode(*node.children[1], env, flow));
    if (node.op == Op::kNone) {
      updated = std::move(rhs);
    } else {
      // Prefix ++/-- add to the old value's ToNumber, never concatenate.
      if (node.bool_value) current = Value::Number(current.ToNumber());
      DISCSEC_ASSIGN_OR_RETURN(updated, EvalBinary(node, current, rhs));
    }
    result = updated;
  }
  if (slot != nullptr) {
    // Scopes on the chain stay alive and bindings are never erased, so the
    // slot found above is still the nearest binding.
    *slot = std::move(updated);
  } else if (target.type == NodeType::kIdentifier) {
    env->Assign(target.string_value, std::move(updated));
  } else if (target.type == NodeType::kMember) {
    DISCSEC_RETURN_IF_ERROR(
        WriteMember(object, target.string_value, std::move(updated)));
  } else {
    DISCSEC_RETURN_IF_ERROR(WriteIndex(object, index, std::move(updated)));
  }
  return result;
}

Result<Value> Interpreter::EvalNode(const Node& node, Environment* env,
                                    Flow* flow) {
  DISCSEC_RETURN_IF_ERROR(Tick(node));
  switch (node.type) {
    case NodeType::kNumberLiteral:
      return Value::Number(node.number_value);
    case NodeType::kStringLiteral:
      return Value::String(node.string_value);
    case NodeType::kBooleanLiteral:
      return Value::Boolean(node.bool_value);
    case NodeType::kNullLiteral:
      return Value::Null();
    case NodeType::kUndefinedLiteral:
      return Value();
    case NodeType::kIdentifier: {
      Value* v = env->Lookup(node.string_value);
      if (v == nullptr) return UndefinedVariable(node);
      return *v;
    }
    case NodeType::kArrayLiteral: {
      Value array = Value::MakeArray();
      for (const NodePtr& element : node.children) {
        DISCSEC_ASSIGN_OR_RETURN(Value v, EvalNode(*element, env, flow));
        array.AsArray().push_back(std::move(v));
      }
      return array;
    }
    case NodeType::kObjectLiteral: {
      Value object = Value::MakeObject();
      for (size_t i = 0; i < node.children.size(); ++i) {
        DISCSEC_ASSIGN_OR_RETURN(Value v,
                                 EvalNode(*node.children[i], env, flow));
        object.AsObject()[node.keys[i]] = std::move(v);
      }
      return object;
    }
    case NodeType::kBinary: {
      DISCSEC_ASSIGN_OR_RETURN(Value lhs,
                               EvalNode(*node.children[0], env, flow));
      DISCSEC_ASSIGN_OR_RETURN(Value rhs,
                               EvalNode(*node.children[1], env, flow));
      return EvalBinary(node, lhs, rhs);
    }
    case NodeType::kLogical: {
      DISCSEC_ASSIGN_OR_RETURN(Value lhs,
                               EvalNode(*node.children[0], env, flow));
      const bool decided =
          node.op == Op::kAnd ? !lhs.Truthy() : lhs.Truthy();
      if (decided) return lhs;
      return EvalNode(*node.children[1], env, flow);
    }
    case NodeType::kUnary: {
      DISCSEC_ASSIGN_OR_RETURN(Value operand,
                               EvalNode(*node.children[0], env, flow));
      switch (node.op) {
        case Op::kNeg: return Value::Number(-operand.ToNumber());
        case Op::kPlus: return Value::Number(operand.ToNumber());
        case Op::kNot: return Value::Boolean(!operand.Truthy());
        case Op::kTypeof: return Value::String(operand.KindName());
        default:
          return Status::Unsupported("unary operator " + node.string_value);
      }
    }
    case NodeType::kAssign:
    case NodeType::kPostfix:
      return EvalUpdate(node, env, flow);
    case NodeType::kConditional: {
      DISCSEC_ASSIGN_OR_RETURN(Value cond,
                               EvalNode(*node.children[0], env, flow));
      return EvalNode(cond.Truthy() ? *node.children[1] : *node.children[2],
                      env, flow);
    }
    case NodeType::kCall: {
      DISCSEC_ASSIGN_OR_RETURN(Value callee,
                               EvalNode(*node.children[0], env, flow));
      std::vector<Value> args;
      args.reserve(node.children.size() - 1);
      for (size_t i = 1; i < node.children.size(); ++i) {
        DISCSEC_ASSIGN_OR_RETURN(Value arg,
                                 EvalNode(*node.children[i], env, flow));
        args.push_back(std::move(arg));
      }
      auto result = CallValue(callee, args);
      if (!result.ok()) {
        return result.status().WithContext("call at line " +
                                           std::to_string(node.line));
      }
      return result;
    }
    case NodeType::kMember: {
      DISCSEC_ASSIGN_OR_RETURN(Value object,
                               EvalNode(*node.children[0], env, flow));
      return ReadMember(object, node.string_value);
    }
    case NodeType::kIndex: {
      DISCSEC_ASSIGN_OR_RETURN(Value object,
                               EvalNode(*node.children[0], env, flow));
      DISCSEC_ASSIGN_OR_RETURN(Value index,
                               EvalNode(*node.children[1], env, flow));
      return ReadIndex(object, index);
    }
    case NodeType::kFunctionExpr:
      env->MarkCaptured();
      return Value::Function({node.function, env});

    // ---- statements ----
    case NodeType::kProgram:
    case NodeType::kBlock: {
      Value last;
      for (const NodePtr& stmt : node.children) {
        DISCSEC_ASSIGN_OR_RETURN(last, EvalNode(*stmt, env, flow));
        if (flow->Interrupted()) break;
      }
      return last;
    }
    case NodeType::kVarDecl: {
      Value init;
      if (!node.children.empty()) {
        DISCSEC_ASSIGN_OR_RETURN(init, EvalNode(*node.children[0], env, flow));
      }
      env->Define(node.string_value, std::move(init));
      return Value();
    }
    case NodeType::kFunctionDecl:
      env->MarkCaptured();
      env->Define(node.string_value, Value::Function({node.function, env}));
      return Value();
    case NodeType::kExprStatement:
      return EvalNode(*node.children[0], env, flow);
    case NodeType::kIf: {
      DISCSEC_ASSIGN_OR_RETURN(Value cond,
                               EvalNode(*node.children[0], env, flow));
      if (cond.Truthy()) {
        return EvalNode(*node.children[1], env, flow);
      }
      if (node.children.size() > 2) {
        return EvalNode(*node.children[2], env, flow);
      }
      return Value();
    }
    case NodeType::kWhile: {
      for (;;) {
        DISCSEC_ASSIGN_OR_RETURN(Value cond,
                                 EvalNode(*node.children[0], env, flow));
        if (!cond.Truthy()) break;
        DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                 EvalNode(*node.children[1], env, flow));
        (void)ignored;
        if (flow->kind == Flow::Kind::kBreak) {
          flow->Clear();
          break;
        }
        if (flow->kind == Flow::Kind::kContinue) flow->Clear();
        if (flow->kind == Flow::Kind::kReturn) break;
      }
      return Value();
    }
    case NodeType::kFor: {
      Scope loop(this, env);
      Environment* loop_env = loop.get();
      if (node.children[0]->type != NodeType::kUndefinedLiteral) {
        DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                 EvalNode(*node.children[0], loop_env, flow));
        (void)ignored;
      }
      for (;;) {
        if (node.children[1]->type != NodeType::kUndefinedLiteral) {
          DISCSEC_ASSIGN_OR_RETURN(
              Value cond, EvalNode(*node.children[1], loop_env, flow));
          if (!cond.Truthy()) break;
        }
        DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                 EvalNode(*node.children[3], loop_env, flow));
        (void)ignored;
        if (flow->kind == Flow::Kind::kBreak) {
          flow->Clear();
          break;
        }
        if (flow->kind == Flow::Kind::kContinue) flow->Clear();
        if (flow->kind == Flow::Kind::kReturn) break;
        if (node.children[2]->type != NodeType::kUndefinedLiteral) {
          DISCSEC_ASSIGN_OR_RETURN(
              Value ignored2, EvalNode(*node.children[2], loop_env, flow));
          (void)ignored2;
        }
      }
      return Value();
    }
    case NodeType::kSwitch: {
      DISCSEC_ASSIGN_OR_RETURN(Value discriminant,
                               EvalNode(*node.children[0], env, flow));
      // First pass: find the matching case (strict equality); fall back to
      // the default clause.
      size_t start = node.children.size();
      size_t default_index = node.children.size();
      for (size_t i = 1; i < node.children.size(); ++i) {
        const Node& clause = *node.children[i];
        if (clause.bool_value) {
          default_index = i;
          continue;
        }
        DISCSEC_ASSIGN_OR_RETURN(Value test,
                                 EvalNode(*clause.children[0], env, flow));
        if (discriminant.StrictEquals(test)) {
          start = i;
          break;
        }
      }
      if (start == node.children.size()) start = default_index;
      // Second pass: execute from the matched clause onward (fallthrough),
      // honoring break.
      for (size_t i = start; i < node.children.size(); ++i) {
        const Node& clause = *node.children[i];
        size_t body_from = clause.bool_value ? 0 : 1;
        for (size_t s = body_from; s < clause.children.size(); ++s) {
          DISCSEC_ASSIGN_OR_RETURN(Value ignored,
                                   EvalNode(*clause.children[s], env, flow));
          (void)ignored;
          if (flow->Interrupted()) break;
        }
        if (flow->kind == Flow::Kind::kBreak) {
          flow->Clear();
          return Value();
        }
        if (flow->Interrupted()) return Value();  // return/continue escape
      }
      return Value();
    }
    case NodeType::kCase:
      return Status::Unsupported("case outside switch");
    case NodeType::kReturn: {
      Value value;
      if (!node.children.empty()) {
        DISCSEC_ASSIGN_OR_RETURN(value,
                                 EvalNode(*node.children[0], env, flow));
      }
      flow->kind = Flow::Kind::kReturn;
      flow->return_value = std::move(value);
      return Value();
    }
    case NodeType::kBreak:
      flow->kind = Flow::Kind::kBreak;
      return Value();
    case NodeType::kContinue:
      flow->kind = Flow::Kind::kContinue;
      return Value();
  }
  return Status::Unsupported("AST node type");
}

}  // namespace script
}  // namespace discsec
