// Differential harness for the streaming verify fast path (DESIGN.md §14).
//
// The streaming pipeline is only allowed to exist because it is provably
// equivalent to the DOM pipeline on everything the player accepts and
// everything the attack corpus throws at it. This suite pins that claim:
//
//   1. Per-reference octet parity: for every eligible <ds:Reference> in
//      every §5 signing scenario, StreamCanonicalize emits byte-for-byte
//      the octets ProcessReferenceTo digests.
//   2. Golden-fixture parity: every *.c14n golden vector is reproduced
//      byte-for-byte by both canonicalizers (canonical XML is a fixpoint).
//   3. Verdict parity on valid documents: both paths return Valid with the
//      same see-what-is-signed resolution, and the streamed-pass counter
//      proves the fast path actually engaged.
//   4. Verdict parity under attack: all corpus cases and pristine
//      baselines produce the identical Status (code AND message) with
//      streaming off and on, through both the verifier and player routes.
//   5. ParseOptions parity: the streaming lexer enforces max_depth /
//      max_attributes / max_entity_output / max_input with the DOM
//      parser's exact ResourceExhausted errors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/algorithms.h"
#include "tests/attacks/attack_corpus.h"
#include "tests/golden/golden_vectors.h"
#include "xml/c14n.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/stream_verify.h"
#include "xmldsig/signer.h"
#include "xmldsig/transforms.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace {

using testing_world::kNow;
using testing_world::World;

const World& SharedWorld() {
  static const World* world = new World();
  return *world;
}

struct LevelSpec {
  authoring::SignLevel level;
  const char* name;  // script / submarkup selector, empty otherwise
};

const LevelSpec kLevels[] = {
    {authoring::SignLevel::kCluster, ""},
    {authoring::SignLevel::kTrack, ""},
    {authoring::SignLevel::kManifest, ""},
    {authoring::SignLevel::kMarkupPart, ""},
    {authoring::SignLevel::kCodePart, ""},
    {authoring::SignLevel::kScript, "main"},
    {authoring::SignLevel::kSubMarkup, "menu"},
};

/// Serialized wire form of the signed document for one §5 scenario.
std::string SignedText(const LevelSpec& spec) {
  const World& world = SharedWorld();
  auto doc = world.MakeAuthor().BuildSigned(world.DemoCluster(), spec.level,
                                            "track-app", spec.name);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return xml::Serialize(doc.value());
}

/// Test-side mirror of the verifier's streaming plan (the real planner is
/// file-local to verifier.cc on purpose): decides eligibility and the
/// StreamingC14N configuration from the Reference element alone. Keeping a
/// second copy here is deliberate — if the production planner drifts, the
/// octet-parity assertions below catch the divergence.
struct MirrorPlan {
  bool eligible = false;
  bool whole_document = false;
  std::string id;
  bool enveloped = false;
  bool with_comments = false;
};

MirrorPlan PlanReference(const xml::Element& ref) {
  MirrorPlan plan;
  const std::string* uri_attr = ref.GetAttribute("URI");
  std::string_view uri = uri_attr != nullptr ? *uri_attr : std::string_view();
  if (!uri.empty() && uri[0] != '#') return plan;
  plan.whole_document = uri.empty();
  if (!plan.whole_document) plan.id = std::string(uri.substr(1));

  std::vector<std::string_view> algs;
  const xml::Element* transforms =
      ref.FirstChildElementByLocalName("Transforms");
  if (transforms != nullptr) {
    for (const auto& child : transforms->children()) {
      if (!child->IsElement()) continue;
      const auto* t = static_cast<const xml::Element*>(child.get());
      if (t->LocalName() != "Transform") continue;
      const std::string* alg = t->GetAttribute("Algorithm");
      if (alg == nullptr) return plan;
      algs.push_back(*alg);
    }
  }
  size_t i = 0;
  if (i < algs.size() && algs[i] == crypto::kAlgEnvelopedSignature) {
    plan.enveloped = true;
    ++i;
  }
  if (i < algs.size() && (algs[i] == crypto::kAlgC14N ||
                          algs[i] == crypto::kAlgC14NWithComments)) {
    plan.with_comments = (algs[i] == crypto::kAlgC14NWithComments);
    ++i;
  }
  if (i != algs.size()) return plan;
  plan.eligible = true;
  return plan;
}

// ---------------------------------------------------------------------------
// 1. Per-reference octet parity across every §5 signing scenario.
// ---------------------------------------------------------------------------

TEST(StreamVerifyDifferential, ReferenceOctetsMatchDomPipeline) {
  for (const LevelSpec& spec : kLevels) {
    SCOPED_TRACE(authoring::SignLevelName(spec.level));
    const std::string text = SignedText(spec);
    auto parsed = xml::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const xml::Document& doc = parsed.value();

    std::vector<xml::Element*> signatures =
        xmldsig::Verifier::FindSignatures(doc.root());
    ASSERT_FALSE(signatures.empty());

    size_t eligible = 0;
    for (xml::Element* signature : signatures) {
      xmldsig::ReferenceContext ctx;
      ctx.document = &doc;
      ctx.signature_path = xmldsig::ComputePath(signature);

      xml::Element* signed_info =
          signature->FirstChildElementByLocalName("SignedInfo");
      ASSERT_NE(signed_info, nullptr);
      for (const auto& child : signed_info->children()) {
        if (!child->IsElement()) continue;
        auto* ref = static_cast<xml::Element*>(child.get());
        if (ref->LocalName() != "Reference") continue;

        MirrorPlan plan = PlanReference(*ref);
        if (!plan.eligible) continue;
        ++eligible;
        SCOPED_TRACE("reference URI '" +
                     (ref->GetAttribute("URI") != nullptr
                          ? *ref->GetAttribute("URI")
                          : std::string())
                     + "'");

        std::string dom_octets;
        StringSink dom_sink(&dom_octets);
        Status dom_status =
            xmldsig::ProcessReferenceTo(*ref, ctx, &dom_sink);
        ASSERT_TRUE(dom_status.ok()) << dom_status.ToString();

        std::vector<size_t> apex_path;
        xml::StreamingC14NOptions c14n;
        c14n.with_comments = plan.with_comments;
        if (!plan.whole_document) {
          xml::IdRegistry ids(doc);
          auto apex = ids.Find(plan.id);
          ASSERT_TRUE(apex.ok()) << apex.status().ToString();
          apex_path = xmldsig::ComputePath(apex.value());
          c14n.apex_path = &apex_path;
        }
        if (plan.enveloped) c14n.skip_path = &ctx.signature_path;

        std::string stream_octets;
        StringSink stream_sink(&stream_octets);
        Status stream_status =
            xml::StreamCanonicalize(text, ctx.parse_options, c14n,
                                    &stream_sink);
        ASSERT_TRUE(stream_status.ok()) << stream_status.ToString();
        EXPECT_EQ(dom_octets, stream_octets);
      }
    }
    // Every scenario's signature must actually exercise the fast path —
    // zero eligible references would make this whole suite vacuous.
    EXPECT_GE(eligible, 1u);
  }
}

// ---------------------------------------------------------------------------
// 2. Golden *.c14n fixtures: canonical XML is a fixpoint of both paths.
// ---------------------------------------------------------------------------

TEST(StreamVerifyDifferential, GoldenC14nFixturesAreFixpointsOfBothPaths) {
  auto vectors = golden::GenerateGoldenVectors();
  ASSERT_TRUE(vectors.ok()) << vectors.status().ToString();
  size_t covered = 0;
  for (const auto& vec : vectors.value()) {
    if (vec.filename.size() < 5 ||
        vec.filename.compare(vec.filename.size() - 5, 5, ".c14n") != 0) {
      continue;
    }
    SCOPED_TRACE(vec.filename);
    ++covered;

    auto parsed = xml::Parse(vec.content);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const std::string dom = xml::Canonicalize(parsed.value());

    std::string streamed;
    StringSink sink(&streamed);
    Status status = xml::StreamCanonicalize(
        vec.content, xml::ParseOptions(), xml::StreamingC14NOptions(), &sink);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(streamed, dom);

    // enc_track-data.c14n is serializer output (self-closing empty tags),
    // not canonical form — parity above still holds, but only genuine C14N
    // output is its own fixpoint.
    if (vec.filename != "enc_track-data.c14n") {
      EXPECT_EQ(dom, vec.content);
      EXPECT_EQ(streamed, vec.content);
    }
  }
  // 7 sign_<level>.c14n + 3 enc in-place + 1 standalone EncryptedData.
  EXPECT_EQ(covered, 11u);
}

// ---------------------------------------------------------------------------
// 3. Verdict parity on valid documents + proof the fast path engaged.
// ---------------------------------------------------------------------------

xmldsig::VerifyOptions TrustedOptions(const pki::CertStore& trust) {
  xmldsig::VerifyOptions options;
  options.cert_store = &trust;
  options.now = kNow;
  return options;
}

TEST(StreamVerifyDifferential, ValidDocumentsVerifyIdenticallyOnBothPaths) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());

  for (const LevelSpec& spec : kLevels) {
    SCOPED_TRACE(authoring::SignLevelName(spec.level));
    const std::string text = SignedText(spec);
    auto parsed = xml::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    auto dom = xmldsig::Verifier::VerifyFirstSignature(parsed.value(),
                                                       TrustedOptions(trust));
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();

    const size_t streamed_before = xml::StreamedCanonicalizationCount();
    xmldsig::VerifyOptions streaming = TrustedOptions(trust);
    streaming.source_text = text;
    auto fast =
        xmldsig::Verifier::VerifyFirstSignature(parsed.value(), streaming);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    EXPECT_GT(xml::StreamedCanonicalizationCount(), streamed_before)
        << "fast path never engaged";

    // The see-what-is-signed report must be indistinguishable.
    EXPECT_EQ(dom.value().reference_uris, fast.value().reference_uris);
    ASSERT_EQ(dom.value().references.size(), fast.value().references.size());
    for (size_t i = 0; i < dom.value().references.size(); ++i) {
      const auto& d = dom.value().references[i];
      const auto& f = fast.value().references[i];
      EXPECT_EQ(d.uri, f.uri);
      EXPECT_EQ(d.resolved_name, f.resolved_name);
      EXPECT_EQ(d.resolved_path, f.resolved_path);
      EXPECT_EQ(d.covers_root, f.covers_root);
      EXPECT_EQ(d.same_document, f.same_document);
    }
    EXPECT_EQ(dom.value().signer_subject, fast.value().signer_subject);
  }
}

TEST(StreamVerifyDifferential, PooledStreamingVerifyMatchesSerial) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());
  ThreadPool pool(4);

  const std::string text = SignedText(kLevels[0]);
  auto parsed = xml::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Run repeatedly so TSan gets real interleavings over the shared
  // IdRegistry and source text.
  for (int i = 0; i < 8; ++i) {
    xmldsig::VerifyOptions options = TrustedOptions(trust);
    options.source_text = text;
    options.pool = &pool;
    auto result =
        xmldsig::Verifier::VerifyFirstSignature(parsed.value(), options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// 4. Verdict parity under attack: corpus + baselines, both routes.
// ---------------------------------------------------------------------------

/// attack_corpus_test's RunCase with a streaming toggle: the same parse,
/// trust store and clock, but the fast path armed when `streaming` is true.
Status RunCase(const attacks::AttackCase& attack, bool streaming) {
  const World& world = SharedWorld();
  if (attack.route == attacks::AttackRoute::kVerifier) {
    auto doc = xml::Parse(attack.xml);
    if (!doc.ok()) return doc.status();
    xmldsig::VerifyOptions options;
    pki::CertStore trust;
    Status added = trust.AddTrustedRoot(world.root_cert);
    if (!added.ok()) return added;
    options.cert_store = &trust;
    options.now = kNow;
    if (streaming) options.source_text = attack.xml;
    return xmldsig::Verifier::VerifyFirstSignature(doc.value(), options)
        .status();
  }
  player::PlayerConfig config = world.MakePlayerConfig();
  if (streaming) {
    config.streaming_verify = true;
    config.arena_parse = true;
  }
  player::InteractiveApplicationEngine engine(std::move(config));
  return engine.LaunchClusterXml(attack.xml, player::Origin::kNetwork)
      .status();
}

TEST(StreamVerifyDifferential, AttackCorpusVerdictsIdenticalWithStreaming) {
  const std::vector<attacks::AttackCase> corpus =
      attacks::BuildAttackCorpus(SharedWorld());
  ASSERT_GE(corpus.size(), 60u);
  for (const attacks::AttackCase& attack : corpus) {
    SCOPED_TRACE(attack.name);
    Status off = RunCase(attack, /*streaming=*/false);
    Status on = RunCase(attack, /*streaming=*/true);
    EXPECT_EQ(off.ok(), on.ok());
    EXPECT_EQ(static_cast<int>(off.code()), static_cast<int>(on.code()))
        << "off: " << off.ToString() << "\n on: " << on.ToString();
    EXPECT_EQ(off.message(), on.message());
  }
}

TEST(StreamVerifyDifferential, PristineBaselinesVerdictsIdentical) {
  for (const attacks::AttackCase& baseline :
       attacks::BuildPristineBaselines(SharedWorld())) {
    SCOPED_TRACE(baseline.name);
    Status off = RunCase(baseline, /*streaming=*/false);
    Status on = RunCase(baseline, /*streaming=*/true);
    EXPECT_TRUE(off.ok()) << off.ToString();
    EXPECT_TRUE(on.ok()) << on.ToString();
    EXPECT_EQ(off.message(), on.message());
  }
}

// ---------------------------------------------------------------------------
// 5. Wire-level parity: Verifier::VerifyStream never builds the DOM, yet
//    must be indistinguishable from xml::Parse + VerifyFirstSignature —
//    verdict, message, and the full see-what-is-signed report.
// ---------------------------------------------------------------------------

TEST(StreamVerifyDifferential, VerifyStreamMatchesDomOnAllSigningLevels) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());

  for (const LevelSpec& spec : kLevels) {
    SCOPED_TRACE(authoring::SignLevelName(spec.level));
    const std::string text = SignedText(spec);

    auto parsed = xml::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto dom = xmldsig::Verifier::VerifyFirstSignature(parsed.value(),
                                                       TrustedOptions(trust));
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();

    const size_t streamed_before = xml::StreamedCanonicalizationCount();
    auto wire = xmldsig::Verifier::VerifyStream(text, TrustedOptions(trust));
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_GT(xml::StreamedCanonicalizationCount(), streamed_before)
        << "wire-level path never streamed";

    EXPECT_EQ(dom.value().reference_uris, wire.value().reference_uris);
    ASSERT_EQ(dom.value().references.size(), wire.value().references.size());
    for (size_t i = 0; i < dom.value().references.size(); ++i) {
      const auto& d = dom.value().references[i];
      const auto& w = wire.value().references[i];
      EXPECT_EQ(d.uri, w.uri);
      EXPECT_EQ(d.resolved_name, w.resolved_name);
      EXPECT_EQ(d.resolved_path, w.resolved_path);
      EXPECT_EQ(d.covers_root, w.covers_root);
      EXPECT_EQ(d.same_document, w.same_document);
    }
    EXPECT_EQ(dom.value().signer_subject, wire.value().signer_subject);
    EXPECT_EQ(dom.value().signature_algorithm,
              wire.value().signature_algorithm);
    EXPECT_EQ(dom.value().key_name, wire.value().key_name);
  }
}

/// The DOM route VerifyStream claims equivalence with: parse (errors
/// included in the verdict), then verify the first signature.
Status DomRouteStatus(const std::string& text,
                      const xmldsig::VerifyOptions& options) {
  auto doc = xml::Parse(text, options.parse_options);
  if (!doc.ok()) return doc.status();
  return xmldsig::Verifier::VerifyFirstSignature(doc.value(), options)
      .status();
}

TEST(StreamVerifyDifferential, VerifyStreamAttackCorpusVerdictsIdentical) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());

  size_t verifier_cases = 0;
  for (const attacks::AttackCase& attack :
       attacks::BuildAttackCorpus(SharedWorld())) {
    if (attack.route != attacks::AttackRoute::kVerifier) continue;
    ++verifier_cases;
    SCOPED_TRACE(attack.name);
    Status dom = DomRouteStatus(attack.xml, TrustedOptions(trust));
    Status wire =
        xmldsig::Verifier::VerifyStream(attack.xml, TrustedOptions(trust))
            .status();
    EXPECT_EQ(dom.ok(), wire.ok());
    EXPECT_EQ(static_cast<int>(dom.code()), static_cast<int>(wire.code()))
        << "dom: " << dom.ToString() << "\nwire: " << wire.ToString();
    EXPECT_EQ(dom.message(), wire.message());
  }
  EXPECT_GE(verifier_cases, 30u);
}

TEST(StreamVerifyDifferential, VerifyStreamPristineBaselinesVerdictsIdentical) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());

  for (const attacks::AttackCase& baseline :
       attacks::BuildPristineBaselines(SharedWorld())) {
    if (baseline.route != attacks::AttackRoute::kVerifier) continue;
    SCOPED_TRACE(baseline.name);
    Status dom = DomRouteStatus(baseline.xml, TrustedOptions(trust));
    Status wire =
        xmldsig::Verifier::VerifyStream(baseline.xml, TrustedOptions(trust))
            .status();
    EXPECT_TRUE(dom.ok()) << dom.ToString();
    EXPECT_TRUE(wire.ok()) << wire.ToString();
  }
}

TEST(StreamVerifyDifferential, VerifyStreamEdgeVerdictsMatchDom) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());

  // Unsigned document, malformed document, and empty input: the wire-level
  // route must report the DOM route's exact status in each case.
  for (const std::string& text :
       {world.DemoCluster().ToXmlString(),
        std::string("<root><unterminated></root"), std::string("")}) {
    SCOPED_TRACE(text.substr(0, 40));
    Status dom = DomRouteStatus(text, TrustedOptions(trust));
    Status wire = xmldsig::Verifier::VerifyStream(text, TrustedOptions(trust))
                      .status();
    ASSERT_FALSE(dom.ok());
    EXPECT_EQ(static_cast<int>(dom.code()), static_cast<int>(wire.code()))
        << "dom: " << dom.ToString() << "\nwire: " << wire.ToString();
    EXPECT_EQ(dom.message(), wire.message());
  }
}

// ---------------------------------------------------------------------------
// 6. Mixed-eligibility documents: the FIRST signature in document order is
//    stream-ineligible (exclusive-C14N reference transform) while a LATER
//    signature is fully eligible. The fast path must fall back transparently
//    on the first — sink untouched, no streamed canonicalization — and still
//    engage on the second, with verdicts identical to DOM on both.
// ---------------------------------------------------------------------------

/// Two detached same-document signatures over sibling subtrees: sig[0]
/// covers "#menu" through exc-C14N (refused by the streaming planner),
/// sig[1] covers "#movie" through the plain transform chain.
std::string BuildMixedEligibilityDocument() {
  const World& world = SharedWorld();
  auto parsed = xml::Parse(
      "<bundle>"
      "<menu id=\"menu\"><item>alpha</item></menu>"
      "<movie id=\"movie\"><clip>beta</clip></movie>"
      "</bundle>");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  xml::Document& doc = parsed.value();

  xmldsig::KeyInfoSpec key_info;
  key_info.certificate_chain = {world.studio_cert, world.root_cert};
  xmldsig::Signer signer(
      xmldsig::SigningKey::Rsa(world.studio_key.private_key), key_info);

  xmldsig::ReferenceSpec ineligible;
  ineligible.uri = "#menu";
  ineligible.transforms = {crypto::kAlgExcC14N};
  xmldsig::ReferenceContext ctx;
  ctx.document = &doc;
  auto first = signer.BuildUnsigned({ineligible}, ctx);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  auto* first_el = static_cast<xml::Element*>(
      doc.root()->AppendChild(std::move(first).value()));
  Status finalized = signer.Finalize(first_el);
  EXPECT_TRUE(finalized.ok()) << finalized.ToString();

  xml::IdRegistry ids(doc);
  auto movie = ids.Find("movie");
  EXPECT_TRUE(movie.ok()) << movie.status().ToString();
  auto second = signer.SignDetached(&doc, movie.value(), "movie", doc.root());
  EXPECT_TRUE(second.ok()) << second.status().ToString();

  return xml::Serialize(doc);
}

TEST(StreamVerifyDifferential, MixedEligibilityFirstIneligibleLaterEligible) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());
  const std::string text = BuildMixedEligibilityDocument();

  auto parsed = xml::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const xml::Document& doc = parsed.value();
  std::vector<xml::Element*> signatures =
      xmldsig::Verifier::FindSignatures(doc.root());
  ASSERT_EQ(signatures.size(), 2u);

  // The mirror planner must classify the split exactly as designed: the
  // first signature's only reference refused, the later one's accepted.
  auto only_reference = [](xml::Element* signature) -> xml::Element* {
    xml::Element* signed_info =
        signature->FirstChildElementByLocalName("SignedInfo");
    EXPECT_NE(signed_info, nullptr);
    return signed_info->FirstChildElementByLocalName("Reference");
  };
  ASSERT_NE(only_reference(signatures[0]), nullptr);
  EXPECT_FALSE(PlanReference(*only_reference(signatures[0])).eligible);
  ASSERT_NE(only_reference(signatures[1]), nullptr);
  EXPECT_TRUE(PlanReference(*only_reference(signatures[1])).eligible);

  // First signature (the ineligible one): DOM and streaming agree the
  // document is Valid, and the fast path provably never engaged — the
  // fallback is per-reference, not per-document.
  auto dom = xmldsig::Verifier::VerifyFirstSignature(doc,
                                                     TrustedOptions(trust));
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  const size_t streamed_before = xml::StreamedCanonicalizationCount();
  xmldsig::VerifyOptions with_text = TrustedOptions(trust);
  with_text.source_text = text;
  auto fast = xmldsig::Verifier::VerifyFirstSignature(doc, with_text);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(xml::StreamedCanonicalizationCount(), streamed_before)
      << "exc-C14N reference must fall back to the DOM pipeline";
  EXPECT_EQ(dom.value().reference_uris, fast.value().reference_uris);
  EXPECT_EQ(dom.value().signer_subject, fast.value().signer_subject);

  // Later signature: identical verdict AND the streamed counter moves —
  // eligibility is decided per reference, so the same document exercises
  // both pipelines.
  auto dom2 = xmldsig::Verifier::Verify(&doc, *signatures[1],
                                        TrustedOptions(trust));
  ASSERT_TRUE(dom2.ok()) << dom2.status().ToString();
  const size_t streamed_mid = xml::StreamedCanonicalizationCount();
  auto fast2 = xmldsig::Verifier::Verify(&doc, *signatures[1], with_text);
  ASSERT_TRUE(fast2.ok()) << fast2.status().ToString();
  EXPECT_GT(xml::StreamedCanonicalizationCount(), streamed_mid)
      << "eligible later signature never engaged the fast path";
  EXPECT_EQ(dom2.value().reference_uris, fast2.value().reference_uris);
  ASSERT_EQ(dom2.value().references.size(), fast2.value().references.size());
  for (size_t i = 0; i < dom2.value().references.size(); ++i) {
    EXPECT_EQ(dom2.value().references[i].resolved_path,
              fast2.value().references[i].resolved_path);
  }

  // Wire-level route on the same document: VerifyStream pre-flights the
  // first signature, sees the ineligible transform chain, and must produce
  // the DOM route's exact verdict through its internal fallback.
  Status dom_route = DomRouteStatus(text, TrustedOptions(trust));
  auto wire = xmldsig::Verifier::VerifyStream(text, TrustedOptions(trust));
  EXPECT_TRUE(dom_route.ok()) << dom_route.ToString();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(dom.value().reference_uris, wire.value().reference_uris);
  EXPECT_EQ(dom.value().signer_subject, wire.value().signer_subject);
}

TEST(StreamVerifyDifferential, MixedEligibilityTamperFailsIdentically) {
  const World& world = SharedWorld();
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());
  const std::string pristine = BuildMixedEligibilityDocument();

  struct Tamper {
    const char* name;
    const char* needle;
    const char* replacement;
    size_t broken_signature;  // index into FindSignatures
  };
  const Tamper kTampers[] = {
      {"menu-subtree (breaks the ineligible first signature)",
       "<item>alpha</item>", "<item>ALPHA</item>", 0},
      {"movie-subtree (breaks the eligible later signature)",
       "<clip>beta</clip>", "<clip>BETA</clip>", 1},
  };
  for (const Tamper& tamper : kTampers) {
    SCOPED_TRACE(tamper.name);
    std::string text = pristine;
    const size_t pos = text.find(tamper.needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string(tamper.needle).size(), tamper.replacement);

    auto parsed = xml::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::vector<xml::Element*> signatures =
        xmldsig::Verifier::FindSignatures(parsed.value().root());
    ASSERT_EQ(signatures.size(), 2u);
    xml::Element* broken = signatures[tamper.broken_signature];

    Status dom = xmldsig::Verifier::Verify(&parsed.value(), *broken,
                                           TrustedOptions(trust))
                     .status();
    xmldsig::VerifyOptions with_text = TrustedOptions(trust);
    with_text.source_text = text;
    Status fast =
        xmldsig::Verifier::Verify(&parsed.value(), *broken, with_text)
            .status();
    ASSERT_FALSE(dom.ok());
    EXPECT_EQ(static_cast<int>(dom.code()), static_cast<int>(fast.code()))
        << "dom: " << dom.ToString() << "\nfast: " << fast.ToString();
    EXPECT_EQ(dom.message(), fast.message());

    // The wire-level route verifies the FIRST signature; the menu tamper
    // must fail it with the DOM route's exact status, the movie tamper
    // must leave it Valid (sig[0] does not cover the movie subtree).
    Status dom_route = DomRouteStatus(text, TrustedOptions(trust));
    Status wire =
        xmldsig::Verifier::VerifyStream(text, TrustedOptions(trust)).status();
    EXPECT_EQ(dom_route.ok(), wire.ok());
    EXPECT_EQ(static_cast<int>(dom_route.code()),
              static_cast<int>(wire.code()))
        << "dom: " << dom_route.ToString() << "\nwire: " << wire.ToString();
    EXPECT_EQ(dom_route.message(), wire.message());
    EXPECT_EQ(dom_route.ok(), tamper.broken_signature == 1);
  }
}

// ---------------------------------------------------------------------------
// 7. ParseOptions parity: identical ResourceExhausted errors per bound.
// ---------------------------------------------------------------------------

/// Drains the streaming lexer over `text`; OK when the document tokenizes
/// to kEndDocument, the lexer's error otherwise.
Status DrainLexer(const std::string& text, const xml::ParseOptions& options) {
  xml::StreamLexer lexer(text, options);
  for (;;) {
    auto token = lexer.Next();
    if (!token.ok()) return token.status();
    if (token.value().kind == xml::StreamLexer::TokenKind::kEndDocument) {
      return Status::OK();
    }
  }
}

void ExpectBombParity(const std::string& text, const xml::ParseOptions& opts,
                      Status::Code expected_code) {
  Status dom = xml::Parse(text, opts).status();
  Status stream = DrainLexer(text, opts);
  ASSERT_FALSE(dom.ok());
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(static_cast<int>(dom.code()), static_cast<int>(expected_code))
      << dom.ToString();
  EXPECT_EQ(dom.ToString(), stream.ToString());
}

TEST(StreamLexerLimits, MaxDepthMatchesDomParser) {
  std::string text;
  for (int i = 0; i < 20; ++i) text += "<a>";
  text += "x";
  for (int i = 0; i < 20; ++i) text += "</a>";
  xml::ParseOptions opts;
  opts.max_depth = 16;
  ExpectBombParity(text, opts, Status::Code::kResourceExhausted);
}

TEST(StreamLexerLimits, MaxAttributesMatchesDomParser) {
  std::string text = "<a";
  for (int i = 0; i < 12; ++i) {
    text += " a" + std::to_string(i) + "=\"v\"";
  }
  text += "/>";
  xml::ParseOptions opts;
  opts.max_attributes = 8;
  ExpectBombParity(text, opts, Status::Code::kResourceExhausted);
}

TEST(StreamLexerLimits, MaxEntityOutputMatchesDomParser) {
  std::string text = "<a>";
  for (int i = 0; i < 64; ++i) text += "&amp;";
  text += "</a>";
  xml::ParseOptions opts;
  opts.max_entity_output = 16;
  ExpectBombParity(text, opts, Status::Code::kResourceExhausted);
}

TEST(StreamLexerLimits, MaxInputMatchesDomParser) {
  std::string text = "<a>" + std::string(256, 'x') + "</a>";
  xml::ParseOptions opts;
  opts.max_input = 64;
  ExpectBombParity(text, opts, Status::Code::kResourceExhausted);
}

TEST(StreamLexerLimits, CharacterReferenceLegalityMatchesDomParser) {
  // XML 1.0 §4.1 WFC: Legal Character, in content and in attribute values:
  // both lexers reject the same references with the same message.
  for (const char* ref :
       {"&#0;", "&#1;", "&#x1F;", "&#xD800;", "&#xDFFF;", "&#xFFFE;",
        "&#xFFFF;", "&#x110000;"}) {
    for (const std::string& text :
         {std::string("<a>x") + ref + "y</a>",
          std::string("<a k=\"") + ref + "\"/>"}) {
      Status dom = xml::Parse(text).status();
      Status stream = DrainLexer(text, xml::ParseOptions());
      ASSERT_FALSE(dom.ok()) << text;
      ASSERT_FALSE(stream.ok()) << text;
      EXPECT_EQ(dom.ToString(), stream.ToString()) << text;
    }
  }
  for (const char* ref : {"&#x9;", "&#xA;", "&#xD;", "&#x20;", "&#xD7FF;",
                          "&#xE000;", "&#xFFFD;", "&#x10000;", "&#x10FFFF;"}) {
    const std::string text = std::string("<a k=\"") + ref + "\">" + ref +
                             "</a>";
    EXPECT_TRUE(xml::Parse(text).ok()) << text;
    EXPECT_TRUE(DrainLexer(text, xml::ParseOptions()).ok()) << text;
  }
}

TEST(StreamLexerLimits, ContentRunBoundariesMatchDomParser) {
  const std::string run(64 * 1024, 'x');
  for (const std::string& text :
       {"<a>" + run + "]]></a>", "<a>\n" + run + "]]]></a>",
        "<a>" + run + "\r" + run, "<a>&amp;" + run + "&#1;</a>"}) {
    Status dom = xml::Parse(text).status();
    Status stream = DrainLexer(text, xml::ParseOptions());
    ASSERT_FALSE(dom.ok());
    EXPECT_EQ(dom.ToString(), stream.ToString());
  }
  const std::string ok =
      "<a>]" + run + "\r\n" + run + "]]&amp;<![CDATA[]]>" + run + "</a>";
  EXPECT_TRUE(xml::Parse(ok).ok());
  EXPECT_TRUE(DrainLexer(ok, xml::ParseOptions()).ok());
}

TEST(StreamLexerLimits, WellFormednessErrorsMatchDomParser) {
  // Mismatched end tag: same ParseError string, not just the same code.
  const std::string text = "<a><b></a></b>";
  Status dom = xml::Parse(text).status();
  Status stream = DrainLexer(text, xml::ParseOptions());
  ASSERT_FALSE(dom.ok());
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(dom.ToString(), stream.ToString());
}

}  // namespace
}  // namespace discsec
