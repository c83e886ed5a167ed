#ifndef DISCSEC_SCRIPT_AST_H_
#define DISCSEC_SCRIPT_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace discsec {
namespace script {

/// AST node kinds for the ECMAScript subset. One enum + one node struct
/// keeps the tree compact and the evaluator a single switch.
enum class NodeType : uint8_t {
  // expressions
  kNumberLiteral,    // number_value
  kStringLiteral,    // string_value
  kBooleanLiteral,   // bool_value
  kNullLiteral,
  kUndefinedLiteral,
  kIdentifier,       // string_value = name
  kArrayLiteral,     // children = elements
  kObjectLiteral,    // keys[i] names children[i]
  kBinary,           // op; children = {lhs, rhs}
  kLogical,          // op = kAnd | kOr; children = {lhs, rhs}
  kUnary,            // op = kNeg | kNot | kPlus | kTypeof
  kAssign,           // op = the compound form's binary op, kNone for "=";
                     // children = {target, value}; bool_value true marks
                     // prefix ++/-- (x += 1 over the old value's ToNumber)
  kConditional,      // children = {cond, then, else}
  kCall,             // children = {callee, args...}
  kMember,           // children = {object}; string_value = property name
  kIndex,            // children = {object, index-expr}
  kFunctionExpr,     // function = its definition
  kPostfix,          // op = kAdd for "++", kSub for "--"; children = {target}

  // statements
  kProgram,          // children = statements
  kVarDecl,          // string_value = name; children = {init?} (may be empty)
  kExprStatement,    // children = {expr}
  kBlock,            // children = statements
  kIf,               // children = {cond, then, else?}
  kWhile,            // children = {cond, body}
  kFor,              // children = {init?, cond?, update?, body} (fixed slots,
                     //             kUndefinedLiteral markers when absent)
  kReturn,           // children = {value?} (may be empty)
  kBreak,
  kContinue,
  kFunctionDecl,     // string_value = name; function = its definition
  kSwitch,           // children = {discriminant, case...}; see kCase
  kCase,             // children = {test?, body-statements...}; bool_value
                     // true marks the default clause (no test child)
};

/// Operator codes, resolved once by the parser so evaluation switches on
/// the code. Operator nodes keep the source spelling in string_value for
/// messages.
enum class Op : uint8_t {
  kNone,
  kAdd,       // +
  kSub,       // -
  kMul,       // *
  kDiv,       // /
  kMod,       // %
  kEq,        // ==
  kNe,        // !=
  kStrictEq,  // ===
  kStrictNe,  // !==
  kLt,        // <
  kGt,        // >
  kLe,        // <=
  kGe,        // >=
  kAnd,       // &&
  kOr,        // ||
  kNeg,       // unary -
  kPlus,      // unary +
  kNot,       // !
  kTypeof,    // typeof
};

struct Node;
using NodePtr = std::unique_ptr<Node>;

/// One parsed function: parameter names plus body. Stored in the Program so
/// closures can reference them without owning tree fragments.
struct FunctionDef {
  std::string name;  ///< empty for anonymous function expressions
  std::vector<std::string> params;
  NodePtr body;      ///< a kBlock
};

struct Node {
  explicit Node(NodeType t) : type(t) {}
  NodeType type;
  Op op = Op::kNone;              ///< operator nodes; see NodeType
  bool bool_value = false;
  int line = 0;                   ///< 1-based source line, for diagnostics
  double number_value = 0.0;
  std::string string_value;
  std::vector<std::string> keys;  ///< object literal keys
  std::vector<NodePtr> children;
  /// kFunctionExpr / kFunctionDecl: the definition, owned by the Program
  /// (by the Interpreter once it runs the Program).
  const FunctionDef* function = nullptr;
};

/// A parsed script: the statement tree plus the functions it defines. Owns
/// everything; nodes and closures hold raw FunctionDef pointers, so the
/// functions must outlive any value created from them (the Interpreter
/// keeps them; the statement tree it frees after the run).
struct Program {
  NodePtr root;  ///< kProgram
  std::vector<std::unique_ptr<FunctionDef>> functions;
};

}  // namespace script
}  // namespace discsec

#endif  // DISCSEC_SCRIPT_AST_H_
