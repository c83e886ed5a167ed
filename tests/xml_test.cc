#include <gtest/gtest.h>

#include "xml/c14n.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace discsec {
namespace xml {
namespace {

// ---------------------------------------------------------------- parser

TEST(ParserTest, MinimalDocument) {
  auto doc = Parse("<root/>");
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->root(), nullptr);
  EXPECT_EQ(doc->root()->name(), "root");
  EXPECT_TRUE(doc->root()->children().empty());
}

TEST(ParserTest, XmlDeclarationAndWhitespace) {
  auto doc = Parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a> x </a>\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), " x ");
}

TEST(ParserTest, NestedElementsAndAttributes) {
  auto doc = Parse("<a id=\"1\"><b k=\"v\" j='w'><c/></b>text</a>");
  ASSERT_TRUE(doc.ok());
  Element* a = doc->root();
  EXPECT_EQ(*a->GetAttribute("id"), "1");
  Element* b = a->FirstChildElement("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*b->GetAttribute("k"), "v");
  EXPECT_EQ(*b->GetAttribute("j"), "w");
  ASSERT_NE(b->FirstChildElement("c"), nullptr);
}

TEST(ParserTest, EntitiesAndCharRefs) {
  auto doc = Parse("<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "<>&\"'AB");
}

TEST(ParserTest, CdataFoldedIntoText) {
  auto doc = Parse("<a><![CDATA[<not-a-tag> & raw]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "<not-a-tag> & raw");
  // CDATA becomes a plain text node (as C14N requires).
  ASSERT_EQ(doc->root()->ChildCount(), 1u);
  EXPECT_TRUE(doc->root()->ChildAt(0)->IsText());
}

TEST(ParserTest, CommentsPreserved) {
  auto doc = Parse("<!-- head --><a><!-- inner --></a><!-- tail -->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->children().size(), 3u);
  ASSERT_EQ(doc->root()->ChildCount(), 1u);
  EXPECT_TRUE(doc->root()->ChildAt(0)->IsComment());
}

TEST(ParserTest, ProcessingInstructions) {
  auto doc = Parse("<?pi data here?><a><?inner?></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->children()[0]->IsPi());
  auto* pi = static_cast<Pi*>(doc->children()[0].get());
  EXPECT_EQ(pi->target(), "pi");
  EXPECT_EQ(pi->data(), "data here");
}

TEST(ParserTest, LineEndNormalization) {
  auto doc = Parse("<a>one\r\ntwo\rthree</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "one\ntwo\nthree");
}

TEST(ParserTest, AttributeWhitespaceNormalization) {
  auto doc = Parse("<a k=\"x\ny\tz\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root()->GetAttribute("k"), "x y z");
}

TEST(ParserTest, Utf8Bom) {
  std::string input = "\xef\xbb\xbf<a/>";
  ASSERT_TRUE(Parse(input).ok());
}

struct BadXmlCase {
  const char* name;
  const char* input;
  const char* message = nullptr;  // pinned when set
};

class ParserRejectionTest : public ::testing::TestWithParam<BadXmlCase> {};

TEST_P(ParserRejectionTest, RejectsMalformedInput) {
  auto doc = Parse(GetParam().input);
  ASSERT_FALSE(doc.ok()) << GetParam().name;
  if (GetParam().message != nullptr) {
    EXPECT_EQ(doc.status().message(), GetParam().message);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserRejectionTest,
    ::testing::Values(
        BadXmlCase{"empty", ""},
        BadXmlCase{"unclosed", "<a>"},
        BadXmlCase{"mismatched", "<a></b>"},
        BadXmlCase{"mismatched_nested", "<a><b></a></b>",
                   "mismatched end tag </a> for <b> at line 1, column 10"},
        BadXmlCase{"two_roots", "<a/><b/>"},
        BadXmlCase{"text_at_top", "hello"},
        BadXmlCase{"bad_entity", "<a>&nbsp;</a>"},
        BadXmlCase{"unterminated_entity", "<a>&am</a>"},
        BadXmlCase{"dup_attr", "<a k=\"1\" k=\"2\"/>"},
        BadXmlCase{"unquoted_attr", "<a k=v/>"},
        BadXmlCase{"lt_in_attr", "<a k=\"<\"/>"},
        BadXmlCase{"doctype", "<!DOCTYPE a [<!ENTITY x \"y\">]><a/>"},
        BadXmlCase{"cdata_end_in_text", "<a>]]></a>"},
        BadXmlCase{"unterminated_comment", "<!-- x <a/>"},
        BadXmlCase{"double_dash_comment", "<!-- a -- b --><a/>"}),
    [](const ::testing::TestParamInfo<BadXmlCase>& info) {
      return info.param.name;
    });

TEST(ParserTest, DoctypeAllowedWhenOptedIn) {
  ParseOptions options;
  options.allow_doctype = true;
  auto doc = Parse("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->name(), "a");
}

TEST(ParserTest, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < 300; ++i) deep += "</a>";
  auto doc = Parse(deep);
  EXPECT_TRUE(doc.status().IsResourceExhausted());
}

TEST(ParserTest, InputSizeLimitEnforced) {
  ParseOptions options;
  options.max_input = 10;
  auto doc = Parse("<abcdefghijklmnop/>", options);
  EXPECT_TRUE(doc.status().IsResourceExhausted());
}

TEST(ParserTest, DepthLimitBoundaryIsExact) {
  // max_depth = N accepts N levels below the root and rejects N + 1.
  ParseOptions options;
  options.max_depth = 3;
  std::string at_limit = "<r><a><b><c/></b></a></r>";      // depths 0..3
  std::string one_over = "<r><a><b><c><d/></c></b></a></r>";  // depth 4
  EXPECT_TRUE(Parse(at_limit, options).ok());
  auto over = Parse(one_over, options);
  ASSERT_TRUE(over.status().IsResourceExhausted());
  EXPECT_NE(over.status().message().find("max_depth"), std::string::npos);
}

TEST(ParserTest, AttributeCountLimitEnforced) {
  ParseOptions options;
  options.max_attributes = 4;
  EXPECT_TRUE(Parse("<r a=\"1\" b=\"2\" c=\"3\" d=\"4\"/>", options).ok());
  auto over = Parse("<r a=\"1\" b=\"2\" c=\"3\" d=\"4\" e=\"5\"/>", options);
  ASSERT_TRUE(over.status().IsResourceExhausted());
  EXPECT_NE(over.status().message().find("max_attributes"),
            std::string::npos);
}

TEST(ParserTest, AttributeLimitCountsNamespaceDeclarations) {
  ParseOptions options;
  options.max_attributes = 2;
  auto doc = Parse(
      "<r xmlns=\"urn:a\" xmlns:b=\"urn:b\" xmlns:c=\"urn:c\"/>", options);
  EXPECT_TRUE(doc.status().IsResourceExhausted());
}

TEST(ParserTest, EntityOutputLimitEnforced) {
  ParseOptions options;
  options.max_entity_output = 8;
  // 8 expanded bytes pass; the 9th fails — character and named references
  // both count toward the budget.
  EXPECT_TRUE(Parse("<r>&#65;&#65;&#65;&#65;&amp;&lt;&gt;&#x41;</r>",
                    options)
                  .ok());
  auto over =
      Parse("<r>&#65;&#65;&#65;&#65;&amp;&lt;&gt;&#x41;&#65;</r>", options);
  ASSERT_TRUE(over.status().IsResourceExhausted());
  EXPECT_NE(over.status().message().find("entity expansion"),
            std::string::npos);
}

TEST(ParserTest, EntityOutputLimitAppliesToAttributes) {
  ParseOptions options;
  options.max_entity_output = 2;
  auto doc = Parse("<r a=\"&#65;&#65;&#65;\"/>", options);
  EXPECT_TRUE(doc.status().IsResourceExhausted());
}

// Character data is copied in runs between '<', '&', ']' and CR. These pin
// the bytes around each run boundary.

std::string Filler(size_t n, char c = 'x') { return std::string(n, c); }

TEST(ParserRunTest, ReferencesAtBothEndsOfLongRuns) {
  const std::string run = Filler(64 * 1024);
  auto doc = Parse("<a>&amp;" + run + "&#x41;" + run + "&amp;&#x41;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->TextContent(), "&" + run + "A" + run + "&A");
  ASSERT_EQ(doc->root()->ChildCount(), 1u);
  auto bad = Parse("<a>&amp;" + run + "&#1;</a>");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            "character reference out of range at line 1, column 65549");
}

TEST(ParserRunTest, LineEndsAtRunBoundaries) {
  const std::string run = Filler(64 * 1024);
  auto doc = Parse("<a>\r\n" + run + "\r" + run + "\r\n\r</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->TextContent(), "\n" + run + "\n" + run + "\n\n");
  // A CR right before markup, and CR LF split across a reference.
  auto split = Parse("<a>" + run + "\r<b/>\r&amp;\n</a>");
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->root()->TextContent(), run + "\n\n&\n");
}

TEST(ParserRunTest, LoneBracketsInsideRunsAreData) {
  const std::string run = Filler(4096);
  auto doc = Parse("<a>]" + run + "]" + run + "]]" + run + "]]]</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->TextContent(),
            "]" + run + "]" + run + "]]" + run + "]]]");
  // "]]" followed by anything but '>' is data; "]]]>" ends in "]]>".
  EXPECT_TRUE(Parse("<a>" + run + "]]x]]</a>").ok());
  auto bad = Parse("<a>" + run + "]]]></a>");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            "']]>' not allowed in content at line 1, column 4101");
}

TEST(ParserRunTest, CdataEndAfterLongRunKeepsErrorPosition) {
  const std::string run = Filler(64 * 1024);
  auto doc = Parse("<a>" + run + "\n" + Filler(100, 'y') + "]]></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), Status::Code::kParseError);
  EXPECT_EQ(doc.status().message(),
            "']]>' not allowed in content at line 2, column 101");
  auto same_line = Parse("<a>" + run + "]]></a>");
  ASSERT_FALSE(same_line.ok());
  EXPECT_EQ(same_line.status().message(),
            "']]>' not allowed in content at line 1, column 65540");
  auto extra_bracket = Parse("<a>\n" + run + "]]]></a>");
  ASSERT_FALSE(extra_bracket.ok());
  EXPECT_EQ(extra_bracket.status().message(),
            "']]>' not allowed in content at line 2, column 65538");
}

TEST(ParserRunTest, CdataAfterRunJoinsTheText) {
  const std::string run = Filler(64 * 1024);
  auto doc = Parse("<a>" + run + "<![CDATA[<&]]>" + run + "</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->root()->ChildCount(), 1u);
  EXPECT_EQ(doc->root()->TextContent(), run + "<&" + run);
  // An empty section after brackets, a reference and a CR LF.
  auto mixed = Parse("<a>]" + run + "\r\n" + run + "]]&amp;<![CDATA[]]>" +
                     run + "</a>");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed->root()->ChildCount(), 1u);
  EXPECT_EQ(mixed->root()->TextContent(),
            "]" + run + "\n" + run + "]]&" + run);
}

// Names and attribute values are scanned in runs too, and each attribute
// is moved into its element after the duplicate check.

TEST(ParserRunTest, AttributeValuesAcrossRunBoundaries) {
  const std::string run = Filler(4096);
  auto doc = Parse("<a x=\"&lt;" + run + "\t" + run + "&amp;\r\n" + run +
                   "&gt;\" y='\"" + run + "&apos;'/>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->root()->attributes().size(), 2u);
  // TAB, CR and LF each normalize to one space; CR LF is two.
  EXPECT_EQ(*doc->root()->GetAttribute("x"),
            "<" + run + " " + run + "&  " + run + ">");
  EXPECT_EQ(*doc->root()->GetAttribute("y"), "\"" + run + "'");
}

TEST(ParserRunTest, AttributeErrorsKeepTheirPositions) {
  const std::string run = Filler(4096);
  auto lt = Parse("<a x=\"" + run + "<\"/>");
  EXPECT_EQ(lt.status().message(),
            "'<' in attribute value at line 1, column 4103");
  auto open = Parse("<a x='" + run);
  EXPECT_EQ(open.status().message(),
            "unterminated attribute value at line 1, column 4103");
  auto dup = Parse("<a x=\"1\" y=\"" + run + "\" x=\"2\"/>");
  EXPECT_EQ(dup.status().message(),
            "duplicate attribute 'x' at line 1, column 4116");
  auto long_dup = Parse("<a " + run + "=\"v\" " + run + "='w'/>");
  EXPECT_EQ(long_dup.status().message(),
            "duplicate attribute '" + run + "' at line 1, column 8205");
}

TEST(ParserRunTest, LongNamesEndAtTheFirstNonNameByte) {
  const std::string name = "n" + Filler(4096, 'a') + "-1.x:y_z";
  auto doc = Parse("<" + name + " " + name + "='v'>t</" + name + ">");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->name(), name);
  ASSERT_NE(doc->root()->GetAttribute(name), nullptr);
  auto mismatch = Parse("<" + name + "></" + name + "q>");
  EXPECT_EQ(mismatch.status().message(),
            "mismatched end tag </" + name + "q> for <" + name +
                "> at line 1, column 8216");
  EXPECT_EQ(Parse("<a><1b/></a>").status().message(),
            "expected name at line 1, column 5");
  // Bytes of multi-byte UTF-8 sequences are name characters.
  auto utf8 = Parse("<\xc3\xa9t\xc3\xa9 \xc3\xa9='1'/>");
  ASSERT_TRUE(utf8.ok()) << utf8.status().ToString();
  EXPECT_EQ(utf8->root()->name(), "\xc3\xa9t\xc3\xa9");
}

TEST(ParserRunTest, SerializerEscapesResolveLikeAnyReference) {
  auto doc = Parse("<a x=\"&#x3C;&lt;&#60;&amp;lt;\">&lt;&amp;&gt;&amp;amp;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc->root()->GetAttribute("x"), "<<<&lt;");
  EXPECT_EQ(doc->root()->TextContent(), "<&>&amp;");
  // A name that only starts like lt, gt or amp is still an unknown entity,
  // and one without its ';' is still unterminated.
  const std::string run = Filler(4096);
  EXPECT_EQ(Parse("<a x=\"" + run + "&ltx;\"/>").status().message(),
            "unknown entity 'ltx' (custom entities are not supported) at "
            "line 1, column 4108");
  EXPECT_EQ(Parse("<a>" + run + "&gtx;</a>").status().message(),
            "unknown entity 'gtx' (custom entities are not supported) at "
            "line 1, column 4105");
  EXPECT_EQ(Parse("<a x=\"&lt\"/>").status().message(),
            "unterminated entity reference at line 1, column 8");
  EXPECT_EQ(Parse("<a>&amp</a>").status().message(),
            "unterminated entity reference at line 1, column 5");
}

TEST(ParserRunTest, RunToEndOfInputIsUnterminatedElement) {
  auto doc = Parse("<a>\n" + Filler(64 * 1024));
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), Status::Code::kParseError);
  EXPECT_EQ(doc.status().message(),
            "unterminated element <a> at line 2, column 65537");
  auto after_cr = Parse("<a>" + Filler(64 * 1024) + "\r" + Filler(64 * 1024));
  ASSERT_FALSE(after_cr.ok());
  // A lone CR is normalized in the text but does not start a new line in
  // the error position.
  EXPECT_EQ(after_cr.status().message(),
            "unterminated element <a> at line 1, column 131077");
}

TEST(ParserRunTest, EntityOutputLimitCountsAcrossRuns) {
  // Only reference output counts; the runs between references do not.
  ParseOptions options;
  options.max_entity_output = 3;
  const std::string run = Filler(64 * 1024);
  EXPECT_TRUE(
      Parse("<r>" + run + "&amp;" + run + "&#65;" + run + "&lt;</r>", options)
          .ok());
  auto over = Parse(
      "<r>" + run + "&amp;" + run + "&#65;" + run + "&lt;" + run + "&gt;</r>",
      options);
  ASSERT_TRUE(over.status().IsResourceExhausted());
  EXPECT_EQ(over.status().message(),
            "entity expansion output exceeds max_entity_output");
}

// XML 1.0 §4.1, WFC: Legal Character. A character reference must name a
// Char: #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
// [#x10000-#x10FFFF].
TEST(ParserTest, CharacterReferencesMustNameLegalCharacters) {
  for (const char* ref :
       {"&#0;", "&#1;", "&#x8;", "&#xB;", "&#x1F;", "&#xD800;", "&#xDFFF;",
        "&#xFFFE;", "&#xFFFF;", "&#x110000;", "&#99999999;", "&#xFFFFFFFF;"}) {
    const std::string text = std::string("<a>") + ref + "</a>";
    auto doc = Parse(text);
    ASSERT_FALSE(doc.ok()) << ref;
    EXPECT_EQ(doc.status().code(), Status::Code::kParseError) << ref;
    EXPECT_EQ(doc.status().message(),
              "character reference out of range at line 1, column " +
                  std::to_string(4 + std::string_view(ref).size()))
        << ref;
    // Attribute values resolve references through the same check.
    EXPECT_FALSE(Parse(std::string("<a k=\"") + ref + "\"/>").ok()) << ref;
  }
  auto doc = Parse(
      "<a>&#x9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;"
      "</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->TextContent(),
            "\t\n\r \xED\x9F\xBF\xEE\x80\x80\xEF\xBF\xBD"
            "\xF0\x90\x80\x80\xF4\x8F\xBF\xBF");
}

// ---------------------------------------------------------------- DOM

TEST(DomTest, QNameSplitting) {
  auto [p1, l1] = SplitQName("ds:Signature");
  EXPECT_EQ(p1, "ds");
  EXPECT_EQ(l1, "Signature");
  auto [p2, l2] = SplitQName("manifest");
  EXPECT_EQ(p2, "");
  EXPECT_EQ(l2, "manifest");
}

TEST(DomTest, NamespaceResolution) {
  auto doc = Parse(
      "<a xmlns=\"urn:default\" xmlns:ds=\"urn:ds\">"
      "<b><c xmlns=\"urn:inner\"/></b></a>");
  ASSERT_TRUE(doc.ok());
  Element* a = doc->root();
  Element* b = a->FirstChildElement("b");
  Element* c = b->FirstChildElement("c");
  EXPECT_EQ(a->NamespaceUri(), "urn:default");
  EXPECT_EQ(b->NamespaceUri(), "urn:default");
  EXPECT_EQ(c->NamespaceUri(), "urn:inner");
  EXPECT_EQ(b->LookupNamespaceUri("ds"), "urn:ds");
  EXPECT_EQ(b->LookupNamespaceUri("nope"), "");
  EXPECT_EQ(b->LookupNamespaceUri("xml"), kXmlNamespace);
}

TEST(DomTest, FindById) {
  auto doc = Parse("<a><b Id=\"x\"/><c><d id=\"y\"/></c></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->FindById("x"), nullptr);
  EXPECT_EQ(doc->FindById("x")->name(), "b");
  ASSERT_NE(doc->FindById("y"), nullptr);
  EXPECT_EQ(doc->FindById("y")->name(), "d");
  EXPECT_EQ(doc->FindById("z"), nullptr);
}

TEST(DomTest, FindByIdReportsDuplicateCount) {
  auto doc = Parse("<a><b Id=\"x\"/><c Id=\"x\"/><d Id=\"y\"/></a>");
  ASSERT_TRUE(doc.ok());
  size_t count = 0;
  Element* first = doc->FindById("x", &count);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->name(), "b");  // document order, but ambiguity is visible
  EXPECT_EQ(count, 2u);
  EXPECT_NE(doc->FindById("y", &count), nullptr);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(doc->FindById("z", &count), nullptr);
  EXPECT_EQ(count, 0u);
}

TEST(DomTest, FindByIdStrictRejectsDuplicates) {
  auto doc = Parse("<a><b Id=\"x\"/><c Id=\"x\"/><d Id=\"y\"/></a>");
  ASSERT_TRUE(doc.ok());
  auto unique = doc->FindByIdStrict("y");
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(unique.value()->name(), "d");
  auto dup = doc->FindByIdStrict("x");
  ASSERT_TRUE(dup.status().IsCorruption());
  EXPECT_NE(dup.status().message().find("ambiguous"), std::string::npos);
  EXPECT_TRUE(doc->FindByIdStrict("z").status().IsNotFound());
}

TEST(DomTest, IdRegistryEnumeratesDuplicates) {
  auto doc =
      Parse("<a><b Id=\"x\"/><c id=\"x\"/><d Id=\"y\"/><e Id=\"y\"/>"
            "<f Id=\"z\"/></a>")
          .value();
  IdRegistry registry(doc);
  EXPECT_TRUE(registry.HasDuplicates());
  EXPECT_EQ(registry.size(), 3u);  // x, y, z
  EXPECT_EQ(registry.duplicate_ids().size(), 2u);
  ASSERT_NE(registry.AllOf("x"), nullptr);
  EXPECT_EQ(registry.AllOf("x")->size(), 2u);  // Id and id both declare x
  EXPECT_EQ(registry.AllOf("missing"), nullptr);
  EXPECT_TRUE(registry.Find("z").ok());
  EXPECT_TRUE(registry.Find("y").status().IsCorruption());
}

TEST(DomTest, ElementPathNamesStepsWithSiblingIndexes) {
  auto doc =
      Parse("<cluster><track/>text<track><manifest/><manifest/></track>"
            "</cluster>")
          .value();
  Element* second_track = doc.root()->ChildElements("track")[1];
  Element* second_manifest = second_track->ChildElements("manifest")[1];
  EXPECT_EQ(ElementPath(doc.root()), "/cluster");
  EXPECT_EQ(ElementPath(second_track), "/cluster/track[1]");
  EXPECT_EQ(ElementPath(second_manifest), "/cluster/track[1]/manifest[1]");
  EXPECT_EQ(ElementPath(nullptr), "");
}

TEST(DomTest, ChildManipulation) {
  Element root("root");
  Element* a = root.AppendElement("a");
  root.AppendElement("b");
  EXPECT_EQ(root.ChildCount(), 2u);
  EXPECT_EQ(root.IndexOfChild(a), 0u);
  auto removed = root.RemoveChild(a);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(root.ChildCount(), 1u);
  EXPECT_EQ(removed->parent(), nullptr);
  root.InsertChild(0, std::move(removed));
  EXPECT_EQ(root.FirstChildElement()->name(), "a");
}

TEST(DomTest, ReplaceChild) {
  Element root("root");
  Element* a = root.AppendElement("a");
  auto old = root.ReplaceChild(a, std::make_unique<Element>("z"));
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(root.FirstChildElement()->name(), "z");
  EXPECT_EQ(static_cast<Element*>(old.get())->name(), "a");
}

TEST(DomTest, CloneIsDeepAndDetached) {
  auto doc = Parse("<a k=\"v\"><b>t</b></a>");
  ASSERT_TRUE(doc.ok());
  Document copy = doc->Clone();
  EXPECT_EQ(Serialize(*doc), Serialize(copy));
  copy.root()->SetAttribute("k", "changed");
  EXPECT_EQ(*doc->root()->GetAttribute("k"), "v");
}

TEST(DomTest, TextContentConcatenatesDescendants) {
  auto doc = Parse("<a>x<b>y</b>z</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->TextContent(), "xyz");
}

// ---------------------------------------------------------------- serializer

TEST(SerializerTest, CompactRoundTrip) {
  const char* cases[] = {
      "<a/>",
      "<a k=\"v\"><b>text &amp; more</b><c/></a>",
      "<a xmlns:x=\"urn:x\"><x:b x:attr=\"1\"/></a>",
      "<a><!--comment--><?pi data?></a>",
  };
  for (const char* input : cases) {
    auto doc = Parse(input);
    ASSERT_TRUE(doc.ok()) << input;
    SerializeOptions options;
    options.xml_declaration = false;
    std::string once = Serialize(*doc, options);
    auto doc2 = Parse(once);
    ASSERT_TRUE(doc2.ok()) << once;
    EXPECT_EQ(Serialize(*doc2, options), once);
  }
}

TEST(SerializerTest, EscapesSpecials) {
  Element root("a");
  root.SetAttribute("k", "a\"b<c&d");
  root.AppendText("x<y&z>");
  std::string out = SerializeElement(root);
  EXPECT_EQ(out, "<a k=\"a&quot;b&lt;c&amp;d\">x&lt;y&amp;z&gt;</a>");
}

TEST(SerializerTest, PrettyPrintIndents) {
  auto doc = Parse("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions options;
  options.xml_declaration = false;
  options.indent = 2;
  EXPECT_EQ(Serialize(*doc, options), "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
}

// ---------------------------------------------------------------- C14N

TEST(C14NTest, DropsXmlDeclAndNormalizesTags) {
  auto doc = Parse("<?xml version=\"1.0\"?><a   k='v'  ><b   /></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Canonicalize(*doc), "<a k=\"v\"><b></b></a>");
}

TEST(C14NTest, AttributesSortedByNamespaceThenName) {
  auto doc = Parse(
      "<a xmlns:z=\"urn:a\" xmlns:y=\"urn:b\" z:attr=\"1\" y:attr=\"2\" "
      "plain=\"3\" alpha=\"4\"/>");
  ASSERT_TRUE(doc.ok());
  // Unprefixed first (empty URI), sorted by local name; then urn:a, urn:b.
  EXPECT_EQ(Canonicalize(*doc),
            "<a xmlns:y=\"urn:b\" xmlns:z=\"urn:a\" alpha=\"4\" plain=\"3\" "
            "z:attr=\"1\" y:attr=\"2\"></a>");
}

TEST(C14NTest, SuperfluousNamespaceDeclarationsRemoved) {
  auto doc = Parse(
      "<a xmlns:x=\"urn:x\"><b xmlns:x=\"urn:x\"><c xmlns:x=\"urn:y\"/>"
      "</b></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Canonicalize(*doc),
            "<a xmlns:x=\"urn:x\"><b><c xmlns:x=\"urn:y\"></c></b></a>");
}

TEST(C14NTest, DefaultNamespaceHandling) {
  auto doc = Parse("<a xmlns=\"\"><b xmlns=\"urn:d\"><c xmlns=\"\"/></b></a>");
  ASSERT_TRUE(doc.ok());
  // Empty default on the root is the initial state (not rendered); the inner
  // xmlns="" undoes urn:d and must be kept.
  EXPECT_EQ(Canonicalize(*doc),
            "<a><b xmlns=\"urn:d\"><c xmlns=\"\"></c></b></a>");
}

TEST(C14NTest, CommentsExcludedByDefaultIncludedOnRequest) {
  auto doc = Parse("<!--pre--><a><!--in-->x</a><!--post-->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Canonicalize(*doc), "<a>x</a>");
  C14NOptions with;
  with.with_comments = true;
  EXPECT_EQ(Canonicalize(*doc, with),
            "<!--pre-->\n<a><!--in-->x</a>\n<!--post-->");
}

TEST(C14NTest, PisAtDocumentLevelGetLineFeeds) {
  auto doc = Parse("<?pre d?><a/><?post?>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Canonicalize(*doc), "<?pre d?>\n<a></a>\n<?post?>");
}

TEST(C14NTest, TextEscaping) {
  auto doc = Parse("<a>&lt;tag&gt; &amp; &quot;quote&quot;</a>");
  ASSERT_TRUE(doc.ok());
  // " is not escaped in text content; < > & are.
  EXPECT_EQ(Canonicalize(*doc), "<a>&lt;tag&gt; &amp; \"quote\"</a>");
}

TEST(C14NTest, CdataBecomesEscapedText) {
  auto doc = Parse("<a><![CDATA[1<2 & 3>2]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Canonicalize(*doc), "<a>1&lt;2 &amp; 3&gt;2</a>");
}

TEST(C14NTest, EquivalentDocumentsCanonicalizeIdentically) {
  // The paper's §5.4 motivation: syntactic variants, same canonical form.
  auto a = Parse("<m:app xmlns:m=\"urn:m\" x=\"1\" y=\"2\"><m:s/></m:app>");
  auto b = Parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<m:app   y=\"2\"   x=\"1\" xmlns:m=\"urn:m\"><m:s></m:s></m:app>");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Canonicalize(*a), Canonicalize(*b));
}

TEST(C14NTest, IsIdempotent) {
  auto doc = Parse(
      "<a xmlns=\"urn:d\" xmlns:x=\"urn:x\" b=\"2\" a=\"1\">"
      "t1<x:b at=\"v\">t2</x:b><!--c--><?p d?></a>");
  ASSERT_TRUE(doc.ok());
  std::string once = Canonicalize(*doc);
  auto reparsed = Parse(once);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(Canonicalize(*reparsed), once);
}

TEST(C14NTest, SubtreeInheritsNamespaces) {
  auto doc = Parse(
      "<root xmlns:x=\"urn:x\" xmlns=\"urn:d\"><mid><x:leaf a=\"1\"/></mid>"
      "</root>");
  ASSERT_TRUE(doc.ok());
  Element* leaf = doc->root()
                      ->FirstChildElementByLocalName("mid")
                      ->FirstChildElementByLocalName("leaf");
  ASSERT_NE(leaf, nullptr);
  // The apex must render the inherited xmlns:x and default namespace.
  EXPECT_EQ(CanonicalizeElement(*leaf),
            "<x:leaf xmlns=\"urn:d\" xmlns:x=\"urn:x\" a=\"1\"></x:leaf>");
}

TEST(C14NTest, SubtreeInheritsXmlAttributes) {
  auto doc = Parse(
      "<root xml:lang=\"en\"><mid xml:space=\"preserve\"><leaf/></mid>"
      "</root>");
  ASSERT_TRUE(doc.ok());
  Element* leaf = doc->root()
                      ->FirstChildElementByLocalName("mid")
                      ->FirstChildElementByLocalName("leaf");
  EXPECT_EQ(CanonicalizeElement(*leaf),
            "<leaf xml:lang=\"en\" xml:space=\"preserve\"></leaf>");
}

TEST(C14NTest, SubtreeOwnXmlAttributeOverridesInherited) {
  auto doc = Parse("<root xml:lang=\"en\"><leaf xml:lang=\"nl\"/></root>");
  ASSERT_TRUE(doc.ok());
  Element* leaf = doc->root()->FirstChildElementByLocalName("leaf");
  EXPECT_EQ(CanonicalizeElement(*leaf), "<leaf xml:lang=\"nl\"></leaf>");
}

TEST(C14NTest, SubtreeOfStandaloneElementNeedsNoContext) {
  Element e("solo");
  e.SetAttribute("k", "v");
  EXPECT_EQ(CanonicalizeElement(e), "<solo k=\"v\"></solo>");
}

}  // namespace
}  // namespace xml
}  // namespace discsec
