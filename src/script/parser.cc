#include "script/parser.h"

#include <optional>

#include "script/lexer.h"
#include "script/value.h"

namespace discsec {
namespace script {

namespace {

/// A binary or logical operator token's precedence (higher binds tighter;
/// 0 for any other token), node type and operator code.
struct BinaryOperator {
  int precedence;
  NodeType type;
  Op op;
};

BinaryOperator BinaryOperatorOf(Punct punct) {
  switch (punct) {
    case Punct::kOr: return {1, NodeType::kLogical, Op::kOr};
    case Punct::kAnd: return {2, NodeType::kLogical, Op::kAnd};
    case Punct::kStrictEq: return {3, NodeType::kBinary, Op::kStrictEq};
    case Punct::kStrictNe: return {3, NodeType::kBinary, Op::kStrictNe};
    case Punct::kEq: return {3, NodeType::kBinary, Op::kEq};
    case Punct::kNe: return {3, NodeType::kBinary, Op::kNe};
    case Punct::kLe: return {4, NodeType::kBinary, Op::kLe};
    case Punct::kGe: return {4, NodeType::kBinary, Op::kGe};
    case Punct::kLt: return {4, NodeType::kBinary, Op::kLt};
    case Punct::kGt: return {4, NodeType::kBinary, Op::kGt};
    case Punct::kPlus: return {5, NodeType::kBinary, Op::kAdd};
    case Punct::kMinus: return {5, NodeType::kBinary, Op::kSub};
    case Punct::kStar: return {6, NodeType::kBinary, Op::kMul};
    case Punct::kSlash: return {6, NodeType::kBinary, Op::kDiv};
    case Punct::kPercent: return {6, NodeType::kBinary, Op::kMod};
    default: return {0, NodeType::kBinary, Op::kNone};
  }
}

/// For an assignment token, the compound form's binary op (kNone for "=");
/// nullopt for any other token.
std::optional<Op> AssignmentOf(Punct punct) {
  switch (punct) {
    case Punct::kAssign: return Op::kNone;
    case Punct::kPlusAssign: return Op::kAdd;
    case Punct::kMinusAssign: return Op::kSub;
    case Punct::kStarAssign: return Op::kMul;
    case Punct::kSlashAssign: return Op::kDiv;
    case Punct::kPercentAssign: return Op::kMod;
    default: return std::nullopt;
  }
}

class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, Program* program)
      : tokens_(std::move(tokens)), program_(program) {}

  Result<NodePtr> Run() {
    auto root = std::make_unique<Node>(NodeType::kProgram);
    while (!AtEnd()) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr stmt, ParseStatement());
      root->children.push_back(std::move(stmt));
    }
    return root;
  }

 private:
  const Token& Peek() const {
    return pos_ < tokens_.size() ? tokens_[pos_] : tokens_.back();
  }
  /// Consumes the current token. Nothing reads a token after it is
  /// consumed, so callers may move its strings out.
  Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool CheckPunct(Punct p) const { return Peek().punct == p; }
  bool CheckKeyword(Keyword k) const { return Peek().keyword == k; }
  bool MatchPunct(Punct p) {
    if (CheckPunct(p)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchKeyword(Keyword k) {
    if (CheckKeyword(k)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at line " +
                              std::to_string(Peek().line));
  }
  Status ExpectPunct(Punct p) {
    if (!MatchPunct(p)) {
      return Error("expected '" + std::string(PunctSpelling(p)) + "', got '" +
                   Peek().text + "'");
    }
    return Status::OK();
  }

  NodePtr MakeNode(NodeType type) {
    auto node = std::make_unique<Node>(type);
    node->line = Peek().line;
    return node;
  }

  // ---- statements ----

  Result<NodePtr> ParseStatement() {
    if (CheckPunct(Punct::kLBrace)) return ParseBlock();
    switch (Peek().keyword) {
      case Keyword::kVar: return ParseVarStatement();
      case Keyword::kFunction: return ParseFunctionDecl();
      case Keyword::kIf: return ParseIf();
      case Keyword::kSwitch: return ParseSwitch();
      case Keyword::kWhile: return ParseWhile();
      case Keyword::kDo: return ParseDoWhile();
      case Keyword::kFor: return ParseFor();
      case Keyword::kReturn: {
        auto node = MakeNode(NodeType::kReturn);
        Advance();
        if (!CheckPunct(Punct::kSemicolon) && !CheckPunct(Punct::kRBrace) &&
            !AtEnd()) {
          DISCSEC_ASSIGN_OR_RETURN(NodePtr value, ParseExpression());
          node->children.push_back(std::move(value));
        }
        MatchPunct(Punct::kSemicolon);
        return node;
      }
      case Keyword::kBreak:
        Advance();
        MatchPunct(Punct::kSemicolon);
        return MakeNode(NodeType::kBreak);
      case Keyword::kContinue:
        Advance();
        MatchPunct(Punct::kSemicolon);
        return MakeNode(NodeType::kContinue);
      default:
        break;
    }
    if (MatchPunct(Punct::kSemicolon)) {
      // Empty statement.
      return MakeNode(NodeType::kBlock);
    }
    auto node = MakeNode(NodeType::kExprStatement);
    DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseExpression());
    node->children.push_back(std::move(expr));
    MatchPunct(Punct::kSemicolon);
    return node;
  }

  Result<NodePtr> ParseBlock() {
    auto node = MakeNode(NodeType::kBlock);
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLBrace));
    while (!CheckPunct(Punct::kRBrace) && !AtEnd()) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr stmt, ParseStatement());
      node->children.push_back(std::move(stmt));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRBrace));
    return node;
  }

  Result<NodePtr> ParseVarStatement() {
    Advance();  // var
    // A comma list becomes a block of declarations.
    const int line = Peek().line;
    DISCSEC_ASSIGN_OR_RETURN(NodePtr decl, ParseSingleVarDecl());
    if (!CheckPunct(Punct::kComma)) {
      MatchPunct(Punct::kSemicolon);
      return decl;
    }
    auto block = std::make_unique<Node>(NodeType::kBlock);
    block->line = line;
    block->children.push_back(std::move(decl));
    while (MatchPunct(Punct::kComma)) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr next, ParseSingleVarDecl());
      block->children.push_back(std::move(next));
    }
    MatchPunct(Punct::kSemicolon);
    return block;
  }

  Result<NodePtr> ParseSingleVarDecl() {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected variable name");
    }
    auto node = MakeNode(NodeType::kVarDecl);
    node->string_value = std::move(Advance().text);
    if (MatchPunct(Punct::kAssign)) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr init, ParseAssignment());
      node->children.push_back(std::move(init));
    }
    return node;
  }

  Result<NodePtr> ParseFunctionDecl() {
    Advance();  // function
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected function name");
    }
    auto node = MakeNode(NodeType::kFunctionDecl);
    node->string_value = std::move(Advance().text);
    DISCSEC_ASSIGN_OR_RETURN(node->function,
                             ParseFunctionRest(node->string_value));
    return node;
  }

  /// Parses "(params) { body }" and registers the FunctionDef.
  Result<const FunctionDef*> ParseFunctionRest(std::string name) {
    auto def = std::make_unique<FunctionDef>();
    def->name = std::move(name);
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLParen));
    if (!CheckPunct(Punct::kRParen)) {
      for (;;) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("expected parameter name");
        }
        def->params.push_back(std::move(Advance().text));
        if (!MatchPunct(Punct::kComma)) break;
      }
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
    DISCSEC_ASSIGN_OR_RETURN(def->body, ParseBlock());
    program_->functions.push_back(std::move(def));
    return program_->functions.back().get();
  }

  Result<NodePtr> ParseIf() {
    auto node = MakeNode(NodeType::kIf);
    Advance();  // if
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLParen));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
    node->children.push_back(std::move(cond));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr then, ParseStatement());
    node->children.push_back(std::move(then));
    if (MatchKeyword(Keyword::kElse)) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr else_branch, ParseStatement());
      node->children.push_back(std::move(else_branch));
    }
    return node;
  }

  Result<NodePtr> ParseSwitch() {
    auto node = MakeNode(NodeType::kSwitch);
    Advance();  // switch
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLParen));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr discriminant, ParseExpression());
    node->children.push_back(std::move(discriminant));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLBrace));
    bool seen_default = false;
    while (!CheckPunct(Punct::kRBrace) && !AtEnd()) {
      auto clause = MakeNode(NodeType::kCase);
      if (MatchKeyword(Keyword::kCase)) {
        DISCSEC_ASSIGN_OR_RETURN(NodePtr test, ParseExpression());
        clause->children.push_back(std::move(test));
      } else if (MatchKeyword(Keyword::kDefault)) {
        if (seen_default) return Error("multiple default clauses");
        seen_default = true;
        clause->bool_value = true;
      } else {
        return Error("expected 'case' or 'default' in switch body");
      }
      DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kColon));
      while (!CheckPunct(Punct::kRBrace) && !CheckKeyword(Keyword::kCase) &&
             !CheckKeyword(Keyword::kDefault) && !AtEnd()) {
        DISCSEC_ASSIGN_OR_RETURN(NodePtr stmt, ParseStatement());
        clause->children.push_back(std::move(stmt));
      }
      node->children.push_back(std::move(clause));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRBrace));
    return node;
  }

  Result<NodePtr> ParseWhile() {
    auto node = MakeNode(NodeType::kWhile);
    Advance();  // while
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLParen));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
    node->children.push_back(std::move(cond));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr body, ParseStatement());
    node->children.push_back(std::move(body));
    return node;
  }

  Result<NodePtr> ParseDoWhile() {
    // Desugar: do S while (C);  =>  S; while (C) S;  -- not identical when S
    // contains break/continue on first run, so keep a real loop: implement
    // as for(;;){ S; if(!C) break; }.
    Advance();  // do
    DISCSEC_ASSIGN_OR_RETURN(NodePtr body, ParseStatement());
    if (!MatchKeyword(Keyword::kWhile)) {
      return Error("expected 'while' after do body");
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLParen));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
    MatchPunct(Punct::kSemicolon);
    // Build: for(;;){ body; if (!cond) break; }
    auto loop = MakeNode(NodeType::kFor);
    loop->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    loop->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    loop->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    auto block = MakeNode(NodeType::kBlock);
    block->children.push_back(std::move(body));
    auto brk_if = MakeNode(NodeType::kIf);
    auto negate = MakeNode(NodeType::kUnary);
    negate->op = Op::kNot;
    negate->string_value = "!";
    negate->children.push_back(std::move(cond));
    brk_if->children.push_back(std::move(negate));
    brk_if->children.push_back(MakeNode(NodeType::kBreak));
    block->children.push_back(std::move(brk_if));
    loop->children.push_back(std::move(block));
    return loop;
  }

  Result<NodePtr> ParseFor() {
    auto node = MakeNode(NodeType::kFor);
    Advance();  // for
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kLParen));
    // init
    if (MatchPunct(Punct::kSemicolon)) {
      node->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    } else if (CheckKeyword(Keyword::kVar)) {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr init, ParseVarStatement());
      node->children.push_back(std::move(init));
      // ParseVarStatement consumed the ';' if present; require it.
    } else {
      auto stmt = MakeNode(NodeType::kExprStatement);
      DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseExpression());
      stmt->children.push_back(std::move(expr));
      node->children.push_back(std::move(stmt));
      DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kSemicolon));
    }
    // condition
    if (CheckPunct(Punct::kSemicolon)) {
      node->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    } else {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseExpression());
      node->children.push_back(std::move(cond));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kSemicolon));
    // update
    if (CheckPunct(Punct::kRParen)) {
      node->children.push_back(MakeNode(NodeType::kUndefinedLiteral));
    } else {
      DISCSEC_ASSIGN_OR_RETURN(NodePtr update, ParseExpression());
      node->children.push_back(std::move(update));
    }
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr body, ParseStatement());
    node->children.push_back(std::move(body));
    return node;
  }

  // ---- expressions ----

  Result<NodePtr> ParseExpression() { return ParseAssignment(); }

  Result<NodePtr> ParseAssignment() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr lhs, ParseConditional());
    const std::optional<Op> op = AssignmentOf(Peek().punct);
    if (!op) return lhs;
    if (lhs->type != NodeType::kIdentifier && lhs->type != NodeType::kMember &&
        lhs->type != NodeType::kIndex) {
      return Error("invalid assignment target");
    }
    auto node = MakeNode(NodeType::kAssign);
    node->op = *op;
    node->string_value = std::move(Advance().text);
    DISCSEC_ASSIGN_OR_RETURN(NodePtr rhs, ParseAssignment());
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    return node;
  }

  Result<NodePtr> ParseConditional() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr cond, ParseBinary(1));
    if (!MatchPunct(Punct::kQuestion)) return cond;
    auto node = MakeNode(NodeType::kConditional);
    node->children.push_back(std::move(cond));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr then, ParseAssignment());
    node->children.push_back(std::move(then));
    DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kColon));
    DISCSEC_ASSIGN_OR_RETURN(NodePtr else_value, ParseAssignment());
    node->children.push_back(std::move(else_value));
    return node;
  }

  /// Precedence climbing over || && equality relational additive
  /// multiplicative, all left-associative: the trees match one
  /// recursive-descent level per precedence.
  Result<NodePtr> ParseBinary(int min_precedence) {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr lhs, ParseUnary());
    for (;;) {
      const BinaryOperator binary = BinaryOperatorOf(Peek().punct);
      if (binary.precedence == 0 || binary.precedence < min_precedence) {
        return lhs;
      }
      auto node = MakeNode(binary.type);
      node->op = binary.op;
      node->string_value = std::move(Advance().text);
      DISCSEC_ASSIGN_OR_RETURN(NodePtr rhs, ParseBinary(binary.precedence + 1));
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
  }

  Result<NodePtr> ParseUnary() {
    Op op = Op::kNone;
    switch (Peek().punct) {
      case Punct::kMinus: op = Op::kNeg; break;
      case Punct::kPlus: op = Op::kPlus; break;
      case Punct::kNot: op = Op::kNot; break;
      case Punct::kPlusPlus:
      case Punct::kMinusMinus: {
        // Prefix inc/dec desugars to compound assignment: ++x -> x += 1,
        // marked so the old value goes through ToNumber first.
        const bool increment = Advance().punct == Punct::kPlusPlus;
        DISCSEC_ASSIGN_OR_RETURN(NodePtr target, ParseUnary());
        auto node = MakeNode(NodeType::kAssign);
        node->op = increment ? Op::kAdd : Op::kSub;
        node->bool_value = true;
        node->string_value = increment ? "+=" : "-=";
        auto one = MakeNode(NodeType::kNumberLiteral);
        one->number_value = 1.0;
        node->children.push_back(std::move(target));
        node->children.push_back(std::move(one));
        return node;
      }
      default:
        if (CheckKeyword(Keyword::kTypeof)) op = Op::kTypeof;
        break;
    }
    if (op == Op::kNone) return ParsePostfix();
    auto node = MakeNode(NodeType::kUnary);
    node->op = op;
    node->string_value = std::move(Advance().text);
    DISCSEC_ASSIGN_OR_RETURN(NodePtr operand, ParseUnary());
    node->children.push_back(std::move(operand));
    return node;
  }

  Result<NodePtr> ParsePostfix() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseCallOrMember());
    if (CheckPunct(Punct::kPlusPlus) || CheckPunct(Punct::kMinusMinus)) {
      auto node = MakeNode(NodeType::kPostfix);
      node->op = CheckPunct(Punct::kPlusPlus) ? Op::kAdd : Op::kSub;
      node->string_value = std::move(Advance().text);
      node->children.push_back(std::move(expr));
      return node;
    }
    return expr;
  }

  Result<NodePtr> ParseCallOrMember() {
    DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParsePrimary());
    for (;;) {
      if (MatchPunct(Punct::kDot)) {
        if (Peek().type != TokenType::kIdentifier &&
            Peek().type != TokenType::kKeyword) {
          return Error("expected property name after '.'");
        }
        auto node = MakeNode(NodeType::kMember);
        node->string_value = std::move(Advance().text);
        node->children.push_back(std::move(expr));
        expr = std::move(node);
      } else if (CheckPunct(Punct::kLBracket)) {
        Advance();
        auto node = MakeNode(NodeType::kIndex);
        node->children.push_back(std::move(expr));
        DISCSEC_ASSIGN_OR_RETURN(NodePtr index, ParseExpression());
        node->children.push_back(std::move(index));
        DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRBracket));
        expr = std::move(node);
      } else if (CheckPunct(Punct::kLParen)) {
        Advance();
        auto node = MakeNode(NodeType::kCall);
        node->children.push_back(std::move(expr));
        if (!CheckPunct(Punct::kRParen)) {
          for (;;) {
            DISCSEC_ASSIGN_OR_RETURN(NodePtr arg, ParseAssignment());
            node->children.push_back(std::move(arg));
            if (!MatchPunct(Punct::kComma)) break;
          }
        }
        DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
        expr = std::move(node);
      } else {
        return expr;
      }
    }
  }

  Result<NodePtr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kNumber: {
        auto node = MakeNode(NodeType::kNumberLiteral);
        node->number_value = Advance().number;
        return node;
      }
      case TokenType::kString: {
        auto node = MakeNode(NodeType::kStringLiteral);
        node->string_value = std::move(Advance().string);
        return node;
      }
      case TokenType::kIdentifier: {
        auto node = MakeNode(NodeType::kIdentifier);
        node->string_value = std::move(Advance().text);
        return node;
      }
      case TokenType::kKeyword: {
        switch (token.keyword) {
          case Keyword::kTrue:
          case Keyword::kFalse: {
            auto node = MakeNode(NodeType::kBooleanLiteral);
            node->bool_value = Advance().keyword == Keyword::kTrue;
            return node;
          }
          case Keyword::kNull:
            Advance();
            return MakeNode(NodeType::kNullLiteral);
          case Keyword::kUndefined:
            Advance();
            return MakeNode(NodeType::kUndefinedLiteral);
          case Keyword::kFunction: {
            Advance();
            std::string name;
            if (Peek().type == TokenType::kIdentifier) {
              name = std::move(Advance().text);
            }
            auto node = MakeNode(NodeType::kFunctionExpr);
            DISCSEC_ASSIGN_OR_RETURN(node->function,
                                     ParseFunctionRest(std::move(name)));
            return node;
          }
          default:
            return Error("unexpected keyword '" + token.text + "'");
        }
      }
      case TokenType::kPunctuator: {
        if (token.punct == Punct::kLParen) {
          Advance();
          DISCSEC_ASSIGN_OR_RETURN(NodePtr expr, ParseExpression());
          DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRParen));
          return expr;
        }
        if (token.punct == Punct::kLBracket) {
          Advance();
          auto node = MakeNode(NodeType::kArrayLiteral);
          if (!CheckPunct(Punct::kRBracket)) {
            for (;;) {
              DISCSEC_ASSIGN_OR_RETURN(NodePtr element, ParseAssignment());
              node->children.push_back(std::move(element));
              if (!MatchPunct(Punct::kComma)) break;
            }
          }
          DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRBracket));
          return node;
        }
        if (token.punct == Punct::kLBrace) {
          Advance();
          auto node = MakeNode(NodeType::kObjectLiteral);
          if (!CheckPunct(Punct::kRBrace)) {
            for (;;) {
              std::string key;
              if (Peek().type == TokenType::kIdentifier ||
                  Peek().type == TokenType::kKeyword) {
                key = std::move(Advance().text);
              } else if (Peek().type == TokenType::kString) {
                key = std::move(Advance().string);
              } else if (Peek().type == TokenType::kNumber) {
                key = Value::Number(Advance().number).ToDisplayString();
              } else {
                return Error("expected property key");
              }
              DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kColon));
              DISCSEC_ASSIGN_OR_RETURN(NodePtr value, ParseAssignment());
              node->keys.push_back(std::move(key));
              node->children.push_back(std::move(value));
              if (!MatchPunct(Punct::kComma)) break;
            }
          }
          DISCSEC_RETURN_IF_ERROR(ExpectPunct(Punct::kRBrace));
          return node;
        }
        return Error("unexpected token '" + token.text + "'");
      }
      case TokenType::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  std::vector<Token> tokens_;
  Program* program_;
  size_t pos_ = 0;
};

}  // namespace

Result<Program> ParseProgram(std::string_view source) {
  DISCSEC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Program program;
  ParserImpl parser(std::move(tokens), &program);
  DISCSEC_ASSIGN_OR_RETURN(program.root, parser.Run());
  return program;
}

}  // namespace script
}  // namespace discsec
