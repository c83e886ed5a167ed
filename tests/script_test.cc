#include <gtest/gtest.h>

#include "bench/alloc_tracker.h"
#include "script/interpreter.h"
#include "script/lexer.h"
#include "script/parser.h"

namespace discsec {
namespace script {
namespace {

/// Runs `source` and returns the final expression value's display string.
std::string Eval(const std::string& source) {
  Interpreter interp;
  auto result = interp.Run(source);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return result->ToDisplayString();
}

// ---------------------------------------------------------------- lexer

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("var x = 42; // comment\n'str' 1.5e2 0xff === !");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].type, TokenType::kKeyword);
  EXPECT_EQ(t[1].type, TokenType::kIdentifier);
  EXPECT_EQ(t[2].text, "=");
  EXPECT_EQ(t[3].number, 42.0);
  EXPECT_EQ(t[5].string, "str");
  EXPECT_EQ(t[6].number, 150.0);
  EXPECT_EQ(t[7].number, 255.0);
  EXPECT_EQ(t[8].text, "===");
}

TEST(LexerTest, BlockCommentsAndEscapes) {
  auto tokens = Tokenize("/* multi\nline */ \"a\\n\\t\\\"b\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].string, "a\n\t\"b");
}

TEST(LexerTest, Rejections) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("/* open").ok());
  EXPECT_FALSE(Tokenize("var x = @").ok());
  EXPECT_FALSE(Tokenize("\"new\nline\"").ok());
}

// String literals are copied in runs up to the closing quote, a backslash
// or a newline. These pin the bytes around each run boundary.

TEST(LexerTest, EscapesAtBothEndsOfLongStringRuns) {
  const std::string run(64 * 1024, 'x');
  auto tokens = Tokenize("\"\\n" + run + "\\t" + run + "\\\\\"");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  EXPECT_EQ(tokens.value()[0].type, TokenType::kString);
  EXPECT_EQ(tokens.value()[0].string, "\n" + run + "\t" + run + "\\");
  EXPECT_EQ(tokens.value()[1].type, TokenType::kEnd);
}

TEST(LexerTest, OtherQuoteInsideStringRunIsData) {
  const std::string run(4096, 'x');
  auto tokens = Tokenize("'" + run + "\"" + run + "' \"" + run + "'" + run +
                         "\" '\\''");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_EQ(tokens.value().size(), 4u);
  EXPECT_EQ(tokens.value()[0].string, run + "\"" + run);
  EXPECT_EQ(tokens.value()[1].string, run + "'" + run);
  EXPECT_EQ(tokens.value()[2].string, "'");
}

TEST(LexerTest, StringRunErrorsKeepMessages) {
  const std::string run(64 * 1024, 'x');
  auto newline = Tokenize("var a = 1;\n'" + run + "\n';");
  ASSERT_FALSE(newline.ok());
  EXPECT_EQ(newline.status().code(), Status::Code::kParseError);
  EXPECT_EQ(newline.status().message(), "newline in string literal at line 2");
  auto unterminated = Tokenize("\"" + run);
  ASSERT_FALSE(unterminated.ok());
  EXPECT_EQ(unterminated.status().message(),
            "unterminated string literal at line 1");
  auto escape = Tokenize("'" + run + "\\");
  ASSERT_FALSE(escape.ok());
  EXPECT_EQ(escape.status().message(), "unterminated escape at line 1");
}

// ---------------------------------------------------------------- parser

TEST(ParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseProgram("var = 3;").ok());
  EXPECT_FALSE(ParseProgram("if (x {}").ok());
  EXPECT_FALSE(ParseProgram("function () {}").ok());  // decl needs a name
  EXPECT_FALSE(ParseProgram("1 +").ok());
  EXPECT_FALSE(ParseProgram("{ unclosed").ok());
  EXPECT_FALSE(ParseProgram("3 = x;").ok());  // bad assignment target
}

TEST(ParserTest, FunctionExpressionIsFine) {
  EXPECT_TRUE(ParseProgram("var f = function () { return 1; };").ok());
}

// ---------------------------------------------------------------- eval

struct EvalCase {
  const char* name;
  const char* source;
  const char* expected;
};

class EvalTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvalTest, Evaluates) {
  EXPECT_EQ(Eval(GetParam().source), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, EvalTest,
    ::testing::Values(
        EvalCase{"add", "1 + 2;", "3"},
        EvalCase{"precedence", "2 + 3 * 4;", "14"},
        EvalCase{"parens", "(2 + 3) * 4;", "20"},
        EvalCase{"modulo", "17 % 5;", "2"},
        EvalCase{"division", "7 / 2;", "3.5"},
        EvalCase{"unary_minus", "-(3 + 4);", "-7"},
        EvalCase{"string_concat", "'high' + 'score';", "highscore"},
        EvalCase{"num_string_concat", "'score: ' + 42;", "score: 42"},
        EvalCase{"compound", "var x = 10; x += 5; x *= 2; x;", "30"},
        EvalCase{"postfix", "var i = 5; var j = i++; j + ',' + i;", "5,6"},
        EvalCase{"prefix", "var i = 5; var j = ++i; j + ',' + i;", "6,6"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

// Compound assignment, prefix and postfix ++/-- evaluate the target's
// object and index once and read-modify-write that slot, in ECMAScript's
// order: the target reference before the right-hand side.
INSTANTIATE_TEST_SUITE_P(
    CompoundAssignment, EvalTest,
    ::testing::Values(
        EvalCase{"index_side_effect_once",
                 "var a = [5, 5]; var i = 0; a[i++] += 10; a + '|' + i;",
                 "15,5|1"},
        EvalCase{"index_call_once",
                 "var calls = 0; function f() { calls++; return 0; } "
                 "var a = [1]; a[f()] += 1; calls + '|' + a;",
                 "1|2"},
        EvalCase{"postfix_index_call_once",
                 "var calls = 0; function f() { calls++; return 0; } "
                 "var a = [1]; a[f()]++; calls + '|' + a;",
                 "1|2"},
        EvalCase{"prefix_index_call_once",
                 "var calls = 0; function f() { calls++; return 0; } "
                 "var a = [1]; ++a[f()]; calls + '|' + a;",
                 "1|2"},
        EvalCase{"member_call_once",
                 "var calls = 0; var o = { x: 1 }; "
                 "function g() { calls++; return o; } g().x += 1; "
                 "calls + '|' + o.x;",
                 "1|2"},
        EvalCase{"plain_index_call_once",
                 "var calls = 0; function f() { calls++; return 0; } "
                 "var a = [1]; a[f()] = 7; calls + '|' + a;",
                 "1|7"},
        EvalCase{"postfix_index_returns_old_value",
                 "var a = [1, 2]; var i = 0; var old = a[i++]++; "
                 "old + '|' + a + '|' + i;",
                 "1|2,2|1"},
        EvalCase{"target_read_before_operand",
                 "var x = 1; x += (x = 5); x;", "6"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

// Plain `=` evaluates the target's object and index before the value, and
// prefix ++/-- convert the old value with ToNumber, as ECMAScript does.
INSTANTIATE_TEST_SUITE_P(
    AssignmentOrder, EvalTest,
    ::testing::Values(
        EvalCase{"plain_index_before_value",
                 "var i = 0; var a = [5, 5]; a[i] = i++; a;", "0,5"},
        EvalCase{"plain_member_object_before_value",
                 "var log = ''; function o() { log += 'o'; return {}; } "
                 "function v() { log += 'v'; return 1; } o().x = v(); log;",
                 "ov"},
        EvalCase{"plain_assign_yields_value",
                 "var a = [0]; var r = (a[0] = 'x'); r + a;", "xx"},
        EvalCase{"plain_target_error_first", "nope2.x = nope;",
                 "ERROR: NotFound: undefined variable 'nope2' at line 1"},
        EvalCase{"prefix_increment_string", "var s = '5'; ++s; s;", "6"},
        EvalCase{"prefix_decrement_string", "var s = '5'; --s; s;", "4"},
        EvalCase{"prefix_yields_new_number",
                 "var s = '5'; var t = ++s; typeof t + ' ' + t;",
                 "number 6"},
        EvalCase{"prefix_undefined_nan", "var u; ++u;", "NaN"},
        EvalCase{"prefix_member_string",
                 "var o = { n: '9' }; ++o.n + 1;", "11"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

// Number display follows ECMA-262 Number::toString: shortest round-trip
// digits, plain notation for decimal exponents in (-6, 21], exponent form
// with an explicit sign otherwise. Concatenation and fractional property
// keys go through the same conversion.
INSTANTIATE_TEST_SUITE_P(
    NumberToString, EvalTest,
    ::testing::Values(
        EvalCase{"zero", "0;", "0"},
        EvalCase{"negative_integer", "-4200;", "-4200"},
        EvalCase{"integer_below_quadrillion", "999999999999999;",
                 "999999999999999"},
        EvalCase{"pi_digits", "3.14159265;", "3.14159265"},
        EvalCase{"sum_round_trip", "0.1 + 0.2;", "0.30000000000000004"},
        EvalCase{"two_thirds", "2 / 3;", "0.6666666666666666"},
        EvalCase{"nine_digits_and_fraction", "123456789.125;",
                 "123456789.125"},
        EvalCase{"small_exponent", "1.5e-7;", "1.5e-7"},
        EvalCase{"negative_micro", "-0.000001;", "-0.000001"},
        EvalCase{"quadrillion", "1e15;", "1000000000000000"},
        EvalCase{"twenty_one_digits", "1e21;", "1e+21"},
        EvalCase{"large_exponent", "1.23e22;", "1.23e+22"},
        EvalCase{"largest_plain", "123456789012345680000;",
                 "123456789012345680000"},
        EvalCase{"denormal_min", "5e-324;", "5e-324"},
        EvalCase{"negative_zero", "-0;", "0"},
        EvalCase{"nan", "0 / 0;", "NaN"},
        EvalCase{"infinity", "1 / 0 + ',' + -1 / 0;", "Infinity,-Infinity"},
        EvalCase{"concat", "'v' + 0.5 + '/' + 1.25e-7;", "v0.5/1.25e-7"},
        EvalCase{"fractional_key", "var o = {}; o[0.1 + 0.2] = 'k'; "
                                   "o['0.30000000000000004'];",
                 "k"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Logic, EvalTest,
    ::testing::Values(
        EvalCase{"eq", "1 === 1;", "true"},
        EvalCase{"neq_types", "1 == '1';", "false"},  // strict by design
        EvalCase{"lt", "3 < 4;", "true"},
        EvalCase{"string_compare", "'abc' < 'abd';", "true"},
        EvalCase{"and_shortcircuit", "false && missing();", "false"},
        EvalCase{"or_shortcircuit", "true || missing();", "true"},
        EvalCase{"or_value", "null || 'fallback';", "fallback"},
        EvalCase{"not", "!0;", "true"},
        EvalCase{"ternary", "5 > 3 ? 'yes' : 'no';", "yes"},
        EvalCase{"typeof", "typeof 'x' + ',' + typeof 1 + ',' + typeof {};",
                 "string,number,object"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    ControlFlow, EvalTest,
    ::testing::Values(
        EvalCase{"if_else", "var x; if (2 > 1) { x = 'a'; } else { x = 'b'; }"
                            " x;",
                 "a"},
        EvalCase{"while_loop",
                 "var s = 0; var i = 1; while (i <= 10) { s += i; i++; } s;",
                 "55"},
        EvalCase{"for_loop",
                 "var s = 0; for (var i = 0; i < 5; i++) { s += i; } s;",
                 "10"},
        EvalCase{"break_stmt",
                 "var i = 0; while (true) { i++; if (i === 7) break; } i;",
                 "7"},
        EvalCase{"continue_stmt",
                 "var s = 0; for (var i = 0; i < 10; i++) { "
                 "if (i % 2 === 0) continue; s += i; } s;",
                 "25"},
        EvalCase{"do_while",
                 "var i = 0; do { i++; } while (i < 3); i;", "3"},
        EvalCase{"nested_loops",
                 "var c = 0; for (var i = 0; i < 3; i++) "
                 "for (var j = 0; j < 4; j++) c++; c;",
                 "12"},
        EvalCase{"switch_match",
                 "var r; switch (2) { case 1: r = 'a'; break; "
                 "case 2: r = 'b'; break; default: r = 'c'; } r;",
                 "b"},
        EvalCase{"switch_default",
                 "var r; switch (9) { case 1: r = 'a'; break; "
                 "default: r = 'd'; } r;",
                 "d"},
        EvalCase{"switch_fallthrough",
                 "var r = ''; switch (1) { case 1: r += 'a'; "
                 "case 2: r += 'b'; break; case 3: r += 'c'; } r;",
                 "ab"},
        EvalCase{"switch_strings",
                 "var r; switch ('Down') { case 'Up': r = -1; break; "
                 "case 'Down': r = 1; break; default: r = 0; } r;",
                 "1"},
        EvalCase{"switch_no_match_no_default",
                 "var r = 'untouched'; switch (7) { case 1: r = 'x'; } r;",
                 "untouched"},
        EvalCase{"switch_return_inside_function",
                 "function f(k) { switch (k) { case 1: return 'one'; "
                 "default: return 'many'; } } f(1) + f(5);",
                 "onemany"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Functions, EvalTest,
    ::testing::Values(
        EvalCase{"simple_call",
                 "function add(a, b) { return a + b; } add(2, 3);", "5"},
        EvalCase{"recursion",
                 "function fib(n) { if (n < 2) return n; "
                 "return fib(n-1) + fib(n-2); } fib(10);",
                 "55"},
        EvalCase{"closure",
                 "function counter() { var n = 0; "
                 "return function () { n += 1; return n; }; } "
                 "var c = counter(); c(); c(); c();",
                 "3"},
        EvalCase{"function_expr",
                 "var square = function (x) { return x * x; }; square(9);",
                 "81"},
        EvalCase{"higher_order",
                 "function apply(f, x) { return f(x); } "
                 "apply(function (v) { return v * 10; }, 4);",
                 "40"},
        EvalCase{"arguments_object",
                 "function count() { return arguments.length; } "
                 "count(1, 2, 3);",
                 "3"},
        EvalCase{"missing_args_undefined",
                 "function f(a, b) { return typeof b; } f(1);", "undefined"},
        EvalCase{"early_return",
                 "function f() { for (var i = 0; i < 100; i++) "
                 "{ if (i === 3) return i; } return -1; } f();",
                 "3"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    ObjectsArrays, EvalTest,
    ::testing::Values(
        EvalCase{"object_literal",
                 "var o = { title: 'Movie', year: 2005 }; "
                 "o.title + ' ' + o.year;",
                 "Movie 2005"},
        EvalCase{"object_assign", "var o = {}; o.x = 1; o['y'] = 2; o.x + o.y;",
                 "3"},
        EvalCase{"nested_object",
                 "var o = { a: { b: { c: 42 } } }; o.a.b.c;", "42"},
        EvalCase{"array_literal", "var a = [1, 2, 3]; a[0] + a[2];", "4"},
        EvalCase{"array_length", "[1, 2, 3, 4].length;", "4"},
        EvalCase{"array_push",
                 "var a = []; a.push(10); a.push(20, 30); a.length;", "3"},
        EvalCase{"array_grow", "var a = []; a[4] = 'x'; a.length;", "5"},
        EvalCase{"array_oob_undefined", "typeof [1][5];", "undefined"},
        EvalCase{"missing_prop_undefined", "typeof ({}).nope;", "undefined"},
        EvalCase{"string_methods",
                 "'Blu-ray'.toUpperCase() + '/' + 'Blu-ray'.indexOf('ray') + "
                 "'/' + 'Blu-ray'.substring(0, 3);",
                 "BLU-RAY/4/Blu"},
        EvalCase{"string_index", "'abc'[1];", "b"},
        EvalCase{"reference_semantics",
                 "var a = { n: 1 }; var b = a; b.n = 2; a.n;", "2"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    Builtins, EvalTest,
    ::testing::Values(
        EvalCase{"math_floor", "Math.floor(3.7);", "3"},
        EvalCase{"math_ceil", "Math.ceil(3.2);", "4"},
        EvalCase{"math_abs", "Math.abs(-5);", "5"},
        EvalCase{"math_sqrt", "Math.sqrt(144);", "12"},
        EvalCase{"math_max_min", "Math.max(1, 9, 4) + Math.min(2, -3);",
                 "6"},
        EvalCase{"math_pow", "Math.pow(2, 10);", "1024"},
        EvalCase{"parse_int", "parseInt('42abc');", "42"},
        EvalCase{"parse_int_hex", "parseInt('ff', 16);", "255"},
        EvalCase{"parse_float", "parseFloat('3.5x');", "3.5"},
        EvalCase{"parse_garbage_nan", "isNaN(parseInt('xyz'));", "true"},
        EvalCase{"is_nan", "isNaN(1) + ',' + isNaN('nope');",
                 "false,true"},
        EvalCase{"from_char_code", "String.fromCharCode(72, 105);", "Hi"}),
    [](const ::testing::TestParamInfo<EvalCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------- errors

TEST(InterpreterErrorTest, UndefinedVariable) {
  Interpreter interp;
  auto result = interp.Run("missing + 1;");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(InterpreterErrorTest, CallingNonFunction) {
  Interpreter interp;
  auto result = interp.Run("var x = 3; x();");
  EXPECT_FALSE(result.ok());
}

TEST(InterpreterErrorTest, StepBudgetEnforced) {
  Limits limits;
  limits.max_steps = 1000;
  Interpreter interp(limits);
  auto result = interp.Run("while (true) {}");
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(InterpreterErrorTest, CallDepthEnforced) {
  Limits limits;
  limits.max_call_depth = 32;
  Interpreter interp(limits);
  auto result = interp.Run("function f() { return f(); } f();");
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(InterpreterErrorTest, HugeArrayIndexRejected) {
  Interpreter interp;
  auto result = interp.Run("var a = []; a[99999999] = 1;");
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

// ---------------------------------------------------------------- host API

TEST(HostBindingTest, NativeFunctionCall) {
  Interpreter interp;
  std::vector<std::string> log;
  interp.DefineNative("print",
                      [&log](const std::vector<Value>& args) -> Result<Value> {
                        std::string line;
                        for (const Value& v : args) {
                          line += v.ToDisplayString();
                        }
                        log.push_back(line);
                        return Value();
                      });
  ASSERT_TRUE(interp.Run("print('hello ', 42);").ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "hello 42");
}

TEST(HostBindingTest, HostObjectWithMethods) {
  Interpreter interp;
  double stored = 0;
  Value storage = Value::MakeObject();
  storage.AsObject()["write"] = Value::Native(
      [&stored](const std::vector<Value>& args) -> Result<Value> {
        stored = args.empty() ? 0 : args[0].ToNumber();
        return Value::Boolean(true);
      });
  storage.AsObject()["read"] = Value::Native(
      [&stored](const std::vector<Value>&) -> Result<Value> {
        return Value::Number(stored);
      });
  interp.DefineGlobal("storage", storage);
  auto result = interp.Run("storage.write(9000); storage.read() + 1;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToDisplayString(), "9001");
}

TEST(HostBindingTest, NativeErrorPropagates) {
  Interpreter interp;
  interp.DefineNative("denied", [](const std::vector<Value>&) -> Result<Value> {
    return Status::PermissionDenied("storage access denied by policy");
  });
  auto result = interp.Run("denied();");
  EXPECT_TRUE(result.status().IsPermissionDenied());
}

TEST(HostBindingTest, CallGlobalEventHandler) {
  Interpreter interp;
  ASSERT_TRUE(
      interp.Run("var clicks = 0; function onClick(n) { clicks += n; "
                 "return clicks; }")
          .ok());
  auto r1 = interp.CallGlobal("onClick", {Value::Number(2)});
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->ToDisplayString(), "2");
  auto r2 = interp.CallGlobal("onClick", {Value::Number(3)});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->ToDisplayString(), "5");
  EXPECT_TRUE(interp.CallGlobal("nope", {}).status().IsNotFound());
}

TEST(HostBindingTest, MultipleRunsShareGlobals) {
  Interpreter interp;
  ASSERT_TRUE(interp.Run("var x = 10; function get() { return x; }").ok());
  ASSERT_TRUE(interp.Run("x = 20;").ok());
  auto result = interp.CallGlobal("get", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToDisplayString(), "20");
}

TEST(HostBindingTest, ClosuresFromEarlierRunSurviveLaterRuns) {
  // Regression guard for the function-table rebasing across Run() calls.
  Interpreter interp;
  ASSERT_TRUE(interp.Run("function mk() { return function () { return 'first'; }; }"
                         "var f = mk();")
                  .ok());
  ASSERT_TRUE(interp.Run("function g() { return 'second'; }").ok());
  auto first = interp.CallGlobal("f", {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToDisplayString(), "first");
  auto second = interp.CallGlobal("g", {});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->ToDisplayString(), "second");
}

// ---------------------------------------------------------------- heap

// The demo application's `main` script (tests/test_world.h), with stub host
// objects that keep no state of their own.
constexpr char kDemoMainScript[] =
    "var round = 0;\n"
    "function onLoad() {\n"
    "  ui.drawText('title', 'Quiz Night!');\n"
    "  scores.submit('alice', 4200);\n"
    "  scores.submit('bob', 3100);\n"
    "  print('best score: ' + scores.best());\n"
    "  return scores.best();\n"
    "}\n";

constexpr char kCounterFactory[] =
    "function counter() { var n = 0; "
    "return function () { n += 1; return n; }; } "
    "var c = counter(); c(); c(); c();";

/// One player session: host API, the demo script, a counter factory and
/// the onLoad event. Returns onLoad's result.
std::string RunDemoSession(double* best) {
  Interpreter interp;
  interp.DefineNative("print",
                      [](const std::vector<Value>&) -> Result<Value> {
                        return Value();
                      });
  Value ui = Value::MakeObject();
  ui.AsObject()["drawText"] =
      Value::Native([](const std::vector<Value>&) -> Result<Value> {
        return Value::Boolean(true);
      });
  interp.DefineGlobal("ui", ui);
  Value scores = Value::MakeObject();
  scores.AsObject()["submit"] =
      Value::Native([best](const std::vector<Value>& args) -> Result<Value> {
        if (args.size() > 1) *best = std::max(*best, args[1].ToNumber());
        return Value::Boolean(true);
      });
  scores.AsObject()["best"] =
      Value::Native([best](const std::vector<Value>&) -> Result<Value> {
        return Value::Number(*best);
      });
  interp.DefineGlobal("scores", scores);
  if (!interp.Run(kDemoMainScript).ok()) return "main failed";
  auto count = interp.Run(kCounterFactory);
  if (!count.ok() || count->ToDisplayString() != "3") return "counter failed";
  auto loaded = interp.CallGlobal("onLoad", {});
  return loaded.ok() ? loaded->ToDisplayString() : "onLoad failed";
}

// No script value keeps a session alive: sessions that declare functions
// and make closures leave the live heap where it was.
TEST(ScriptHeapTest, ThousandSessionsLeaveNoLiveBytes) {
  double best = 0;
  ASSERT_EQ(RunDemoSession(&best), "4200");  // warm-up: one-time statics
  const size_t before = bench::AllocLiveBytes();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(RunDemoSession(&best), "4200");
  }
  EXPECT_EQ(bench::AllocLiveBytes(), before);
}

// Frames no closure captured die at return; keeping every frame until the
// session ends would hold ~1 KB per call here.
TEST(ScriptHeapTest, CallFramesFreedAtReturn) {
  Limits limits;
  limits.max_steps = 0;
  Interpreter interp(limits);
  ASSERT_TRUE(interp.Run("function add(a, b) { return a + b; }").ok());
  ASSERT_TRUE(interp.Run("add(1, 2);").ok());  // warm-up
  bench::ResetAllocStats();
  const size_t before = bench::AllocLiveBytes();
  auto sum = interp.Run(
      "var s = 0; for (var i = 0; i < 50000; i++) { s = add(s, i); } s;");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->ToDisplayString(), "1249975000");
  EXPECT_LE(bench::AllocPeakBytes() - before, size_t{1} << 20);
}

TEST(ScriptHeapTest, CapturedScopesOutliveTheirFrames) {
  Interpreter interp;
  ASSERT_TRUE(interp.Run("function mk(v) { return function () { return v; "
                         "}; } var fs = []; "
                         "for (var i = 0; i < 1000; i++) fs.push(mk(i));")
                  .ok());
  // Every frame of mk (and the loop scope) has exited; each closure still
  // reads its own captured argument.
  const Value fs = interp.GetGlobal("fs");
  ASSERT_TRUE(fs.IsArray());
  ASSERT_EQ(fs.AsArray().size(), 1000u);
  for (size_t k = 0; k < fs.AsArray().size(); ++k) {
    auto v = interp.CallValue(fs.AsArray()[k], {});
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    ASSERT_EQ(v->AsNumber(), static_cast<double>(k));
  }
  // Closures made inside a `for` scope inside a call share that scope.
  auto shared = interp.Run(
      "function loop() { var out = []; for (var j = 0; j < 3; j++) "
      "{ out.push(function () { return j; }); } return out; } "
      "var ls = loop(); '' + ls[0]() + ls[1]() + ls[2]();");
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(shared->ToDisplayString(), "333");
}

TEST(ScriptHeapTest, HandlerDefinedInFunctionSurvivesEvents) {
  Interpreter interp;
  ASSERT_TRUE(interp.Run("function install() { var count = 0; "
                         "onKey = function (k) { count += k; return count; "
                         "}; } install();")
                  .ok());
  for (int event = 1; event <= 100; ++event) {
    auto r = interp.CallGlobal("onKey", {Value::Number(1)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->AsNumber(), static_cast<double>(event));
  }
}

TEST(StepAccountingTest, AssignmentFormsKeepTheirStepCounts) {
  // Each node evaluated costs a step; reading an update target costs one
  // more; plain `=` does not read its target.
  Interpreter plain;
  ASSERT_TRUE(plain.Run("var i = 0; var a = [5, 5]; a[i] = i++; a;").ok());
  EXPECT_EQ(plain.steps_used(), 14u);
  Interpreter prefix;
  ASSERT_TRUE(prefix.Run("var s = '5'; ++s; s;").ok());
  EXPECT_EQ(prefix.steps_used(), 8u);
}

TEST(StepAccountingTest, StepsAccumulate) {
  Interpreter interp;
  ASSERT_TRUE(interp.Run("var s = 0; for (var i = 0; i < 100; i++) s += i;")
                  .ok());
  EXPECT_GT(interp.steps_used(), 100u);
  uint64_t before = interp.steps_used();
  interp.ResetStepBudget();
  EXPECT_EQ(interp.steps_used(), 0u);
  EXPECT_GT(before, 0u);
}

}  // namespace
}  // namespace script
}  // namespace discsec
