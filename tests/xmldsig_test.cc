#include <gtest/gtest.h>

#include "common/base64.h"

#include "crypto/algorithms.h"
#include "pki/key_codec.h"
#include "xml/c14n.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/constants.h"
#include "xmldsig/signer.h"
#include "xmldsig/transforms.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace xmldsig {
namespace {

constexpr int64_t kNow = 1120000000;
constexpr int64_t kYear = 365LL * 24 * 3600;

class DsigFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(4242);
    signer_key_ = new crypto::RsaKeyPair(
        crypto::RsaGenerateKeyPair(512, rng_).value());
    root_key_ = new crypto::RsaKeyPair(
        crypto::RsaGenerateKeyPair(512, rng_).value());

    pki::CertificateInfo root_info;
    root_info.subject = "CN=Player Root";
    root_info.issuer = root_info.subject;
    root_info.serial = 1;
    root_info.not_before = kNow - kYear;
    root_info.not_after = kNow + 10 * kYear;
    root_info.is_ca = true;
    root_info.public_key = root_key_->public_key;
    root_cert_ = new pki::Certificate(
        pki::IssueCertificate(root_info, root_key_->private_key).value());

    pki::CertificateInfo leaf_info;
    leaf_info.subject = "CN=Studio Signer";
    leaf_info.issuer = root_info.subject;
    leaf_info.serial = 2;
    leaf_info.not_before = kNow - kYear;
    leaf_info.not_after = kNow + kYear;
    leaf_info.public_key = signer_key_->public_key;
    leaf_cert_ = new pki::Certificate(
        pki::IssueCertificate(leaf_info, root_key_->private_key).value());
  }

  /// Signer advertising the raw public key (integrity-only trust model).
  Signer BareSigner(const std::string& alg = crypto::kAlgRsaSha1) {
    KeyInfoSpec ki;
    ki.include_key_value = true;
    return Signer(SigningKey::Rsa(signer_key_->private_key, alg), ki);
  }

  /// Signer carrying a certificate chain (player trust model, §5.5).
  Signer CertSigner() {
    KeyInfoSpec ki;
    ki.certificate_chain = {*leaf_cert_, *root_cert_};
    ki.key_name = pki::KeyFingerprint(signer_key_->public_key);
    return Signer(SigningKey::Rsa(signer_key_->private_key), ki);
  }

  VerifyOptions BareOptions() {
    VerifyOptions options;
    options.allow_bare_key_value = true;
    return options;
  }

  static Rng* rng_;
  static crypto::RsaKeyPair* signer_key_;
  static crypto::RsaKeyPair* root_key_;
  static pki::Certificate* root_cert_;
  static pki::Certificate* leaf_cert_;
};

Rng* DsigFixture::rng_ = nullptr;
crypto::RsaKeyPair* DsigFixture::signer_key_ = nullptr;
crypto::RsaKeyPair* DsigFixture::root_key_ = nullptr;
pki::Certificate* DsigFixture::root_cert_ = nullptr;
pki::Certificate* DsigFixture::leaf_cert_ = nullptr;

// ------------------------------------------------------------- transforms

TEST(TransformPathTest, ComputeAndResolveRoundTrip) {
  auto doc = xml::Parse("<a><b/><c><d/><e/></c></a>").value();
  xml::Element* e =
      doc.root()->FirstChildElement("c")->FirstChildElement("e");
  auto path = ComputePath(e);
  EXPECT_EQ(path, (std::vector<size_t>{1, 1}));
  xml::Document clone = doc.Clone();
  xml::Element* resolved = ResolvePath(clone, path);
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->name(), "e");
}

TEST(TransformPathTest, ResolveOutOfRangeIsNull) {
  auto doc = xml::Parse("<a><b/></a>").value();
  EXPECT_EQ(ResolvePath(doc, {5}), nullptr);
}

// ------------------------------------------------------------- enveloped

TEST_F(DsigFixture, EnvelopedSignRoundTrip) {
  auto doc = xml::Parse("<manifest><markup>ui</markup>"
                        "<code>script</code></manifest>")
                 .value();
  Signer signer = BareSigner();
  auto sig = signer.SignEnveloped(&doc, doc.root());
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();

  auto result = Verifier::Verify(&doc, *sig.value(), BareOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reference_uris, std::vector<std::string>{""});
}

TEST_F(DsigFixture, EnvelopedSurvivesSerialization) {
  auto doc = xml::Parse("<manifest a=\"1\"><markup>x &amp; y</markup>"
                        "</manifest>")
                 .value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  // Serialize, re-parse, verify: the wire round-trip a downloaded app takes.
  std::string wire = xml::Serialize(doc);
  auto reparsed = xml::Parse(wire).value();
  auto result = Verifier::VerifyFirstSignature(reparsed, BareOptions());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(DsigFixture, EnvelopedWorksUnderDefaultNamespace) {
  // Inherited namespace declarations must not break SignedInfo C14N.
  auto doc = xml::Parse("<app xmlns=\"urn:bluray:manifest\" "
                        "xmlns:x=\"urn:x\"><x:part/>content</app>")
                 .value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  std::string wire = xml::Serialize(doc);
  auto reparsed = xml::Parse(wire).value();
  auto result = Verifier::VerifyFirstSignature(reparsed, BareOptions());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(DsigFixture, EnvelopedDetectsContentTamper) {
  auto doc = xml::Parse("<manifest><code>var x = 1;</code></manifest>")
                 .value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  std::string wire = xml::Serialize(doc);
  // The §3.1 tamper threat: flip the script content after signing.
  size_t pos = wire.find("var x = 1;");
  wire.replace(pos, 10, "var x = 2;");
  auto reparsed = xml::Parse(wire).value();
  auto result = Verifier::VerifyFirstSignature(reparsed, BareOptions());
  EXPECT_TRUE(result.status().IsVerificationFailed());
}

TEST_F(DsigFixture, EnvelopedDetectsAttributeTamper) {
  auto doc =
      xml::Parse("<manifest version=\"1\"><m/></manifest>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  doc.root()->SetAttribute("version", "2");
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  EXPECT_TRUE(result.status().IsVerificationFailed());
}

TEST_F(DsigFixture, EnvelopedDetectsInsertedElement) {
  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  doc.root()->AppendElement("injected-script");
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  EXPECT_TRUE(result.status().IsVerificationFailed());
}

TEST_F(DsigFixture, TamperedSignatureValueFails) {
  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer = BareSigner();
  auto sig = signer.SignEnveloped(&doc, doc.root());
  ASSERT_TRUE(sig.ok());
  xml::Element* sv =
      sig.value()->FirstChildElementByLocalName("SignatureValue");
  std::string v = sv->TextContent();
  v[0] = v[0] == 'A' ? 'B' : 'A';
  sv->SetTextContent(v);
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  EXPECT_FALSE(result.ok());
}

TEST_F(DsigFixture, RsaSha256SignatureMethod) {
  auto doc = xml::Parse("<m><x/></m>").value();
  Signer signer = BareSigner(crypto::kAlgRsaSha256);
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->signature_algorithm, crypto::kAlgRsaSha256);
}

TEST_F(DsigFixture, HmacSignatureRoundTrip) {
  Bytes secret = ToBytes("player-shared-secret");
  Signer signer(SigningKey::HmacSecret(secret), {});
  auto doc = xml::Parse("<scores><entry rank=\"1\">9000</entry></scores>")
                 .value();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());

  VerifyOptions options;
  options.hmac_secret = secret;
  auto result = Verifier::VerifyFirstSignature(doc, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  VerifyOptions wrong;
  wrong.hmac_secret = ToBytes("other-secret");
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, wrong)
                  .status()
                  .IsVerificationFailed());
}

// ------------------------------------------------------------- detached

TEST_F(DsigFixture, DetachedSameDocumentSignature) {
  // Fig. 5: sign only the Code part of the manifest.
  auto doc = xml::Parse("<manifest><markup>ui</markup>"
                        "<code>var s = 1;</code></manifest>")
                 .value();
  xml::Element* code = doc.root()->FirstChildElement("code");
  Signer signer = BareSigner();
  auto sig = signer.SignDetached(&doc, code, "code-part", doc.root());
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reference_uris, std::vector<std::string>{"#code-part"});

  // Tampering the signed part is detected...
  std::string wire = xml::Serialize(doc);
  std::string tampered = wire;
  tampered.replace(tampered.find("var s = 1;"), 10, "var s = 9;");
  auto bad = xml::Parse(tampered).value();
  EXPECT_TRUE(Verifier::VerifyFirstSignature(bad, BareOptions())
                  .status()
                  .IsVerificationFailed());

  // ...while the unsigned sibling may change freely (selective signing).
  std::string free = wire;
  free.replace(free.find(">ui<"), 4, ">UI<");
  auto ok_doc = xml::Parse(free).value();
  EXPECT_TRUE(Verifier::VerifyFirstSignature(ok_doc, BareOptions()).ok());
}

TEST_F(DsigFixture, DetachedMissingTargetFails) {
  auto doc = xml::Parse("<m><part Id=\"p\"/></m>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("part"),
                                "p", doc.root())
                  .ok());
  // Remove the signed element entirely.
  doc.root()->RemoveChild(doc.root()->FirstChildElement("part"));
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  EXPECT_TRUE(result.status().IsNotFound());
}

/// Two detached signatures over sibling subtrees, serialized: signature 0
/// covers "#menu" through exclusive C14N, signature 1 covers "#movie" with
/// the default transform chain.
std::string TwoSignatureDocument(const Signer& signer) {
  auto doc = xml::Parse("<bundle>"
                        "<menu id=\"menu\"><item>alpha</item></menu>"
                        "<movie id=\"movie\"><clip>beta</clip></movie>"
                        "</bundle>")
                 .value();
  ReferenceSpec menu;
  menu.uri = "#menu";
  menu.transforms = {crypto::kAlgExcC14N};
  ReferenceContext ctx;
  ctx.document = &doc;
  auto first = signer.BuildUnsigned({menu}, ctx);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  auto* first_el = static_cast<xml::Element*>(
      doc.root()->AppendChild(std::move(first).value()));
  EXPECT_TRUE(signer.Finalize(first_el).ok());
  xml::Element* movie = doc.root()->FirstChildElement("movie");
  EXPECT_TRUE(signer.SignDetached(&doc, movie, "movie", doc.root()).ok());
  return xml::Serialize(doc);
}

TEST_F(DsigFixture, TwoSignaturesOverSiblingSubtreesVerifyIndependently) {
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(*root_cert_).ok());
  VerifyOptions options;
  options.cert_store = &store;
  options.now = kNow;

  auto doc = xml::Parse(TwoSignatureDocument(CertSigner())).value();
  std::vector<xml::Element*> signatures = Verifier::FindSignatures(doc.root());
  ASSERT_EQ(signatures.size(), 2u);
  const struct {
    const char* name;
    const char* path;
  } kTargets[] = {{"menu", "/bundle/menu[0]"}, {"movie", "/bundle/movie[1]"}};
  for (size_t i = 0; i < signatures.size(); ++i) {
    SCOPED_TRACE(kTargets[i].name);
    auto result = Verifier::Verify(&doc, *signatures[i], options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->reference_uris,
              std::vector<std::string>{std::string("#") + kTargets[i].name});
    ASSERT_EQ(result->references.size(), 1u);
    EXPECT_EQ(result->references[0].resolved_name, kTargets[i].name);
    EXPECT_EQ(result->references[0].resolved_path, kTargets[i].path);
    EXPECT_EQ(result->signer_subject, "CN=Studio Signer");
  }
  auto first = Verifier::VerifyFirstSignature(doc, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->reference_uris, std::vector<std::string>{"#menu"});
}

TEST_F(DsigFixture, TamperFailsOnlyTheSignatureOverIt) {
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(*root_cert_).ok());
  VerifyOptions options;
  options.cert_store = &store;
  options.now = kNow;
  const std::string pristine = TwoSignatureDocument(CertSigner());

  struct Tamper {
    const char* needle;
    const char* replacement;
    size_t broken;  // index into FindSignatures
    const char* message;
  };
  const Tamper kTampers[] = {
      {"<item>alpha</item>", "<item>ALPHA</item>", 0,
       "digest mismatch for reference '#menu'"},
      {"<clip>beta</clip>", "<clip>BETA</clip>", 1,
       "digest mismatch for reference '#movie'"},
  };
  for (const Tamper& tamper : kTampers) {
    SCOPED_TRACE(tamper.needle);
    std::string text = pristine;
    const size_t pos = text.find(tamper.needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, std::string(tamper.needle).size(), tamper.replacement);
    auto doc = xml::Parse(text).value();
    std::vector<xml::Element*> signatures =
        Verifier::FindSignatures(doc.root());
    ASSERT_EQ(signatures.size(), 2u);
    for (size_t i = 0; i < signatures.size(); ++i) {
      Status status = Verifier::Verify(&doc, *signatures[i], options).status();
      if (i != tamper.broken) {
        EXPECT_TRUE(status.ok()) << i << ": " << status.ToString();
        continue;
      }
      EXPECT_EQ(status.code(), Status::Code::kVerificationFailed);
      EXPECT_EQ(status.message(), tamper.message);
    }
    // VerifyFirstSignature checks signature 0 only, in document order: the
    // movie tamper leaves it Valid.
    Status first = Verifier::VerifyFirstSignature(doc, options).status();
    if (tamper.broken == 0) {
      EXPECT_EQ(first.message(), tamper.message);
    } else {
      EXPECT_TRUE(first.ok()) << first.ToString();
    }
  }
}

// ------------------------------------------------------------- enveloping

TEST_F(DsigFixture, EnvelopingSignature) {
  auto content = xml::Parse("<bonus-clip title=\"Trailer\"/>").value();
  Signer signer = BareSigner();
  auto sig = signer.SignEnveloping(*content.root());
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();

  // Ship as its own document.
  xml::Document shipped = xml::Document::WithRoot(
      std::unique_ptr<xml::Element>(
          static_cast<xml::Element*>(sig.value().release())));
  std::string wire = xml::Serialize(shipped);
  auto reparsed = xml::Parse(wire).value();
  auto result = Verifier::VerifyFirstSignature(reparsed, BareOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reference_uris, std::vector<std::string>{"#object"});

  // Tampering the wrapped content fails.
  std::string bad = wire;
  bad.replace(bad.find("Trailer"), 7, "Malware");
  auto bad_doc = xml::Parse(bad).value();
  EXPECT_TRUE(Verifier::VerifyFirstSignature(bad_doc, BareOptions())
                  .status()
                  .IsVerificationFailed());
}

// ------------------------------------------------------------- external

TEST_F(DsigFixture, ExternalReferenceWithResolver) {
  // Fig. 3: signing a disc resource (e.g. an image or clip) by URI.
  Bytes resource = ToBytes("MPEG2-TS payload bytes");
  ExternalResolver resolver = [&](const std::string& uri) -> Result<Bytes> {
    if (uri == "disc://clips/trailer.m2ts") return resource;
    return Status::NotFound(uri);
  };
  ReferenceContext ctx;
  ctx.resolver = resolver;
  ReferenceSpec spec;
  spec.uri = "disc://clips/trailer.m2ts";
  Signer signer = BareSigner();
  auto sig = signer.CreateSignature({spec}, ctx);
  ASSERT_TRUE(sig.ok()) << sig.status().ToString();

  VerifyOptions options = BareOptions();
  options.resolver = resolver;
  auto result = Verifier::Verify(nullptr, *sig.value(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  // Changed resource -> digest mismatch.
  resource[0] ^= 1;
  EXPECT_TRUE(Verifier::Verify(nullptr, *sig.value(), options)
                  .status()
                  .IsVerificationFailed());
}

TEST_F(DsigFixture, ExternalReferenceWithoutResolverFails) {
  ReferenceContext ctx;
  ctx.resolver = [](const std::string&) -> Result<Bytes> {
    return Bytes{1, 2, 3};
  };
  ReferenceSpec spec;
  spec.uri = "disc://x";
  Signer signer = BareSigner();
  auto sig = signer.CreateSignature({spec}, ctx);
  ASSERT_TRUE(sig.ok());
  VerifyOptions options = BareOptions();  // no resolver
  EXPECT_TRUE(Verifier::Verify(nullptr, *sig.value(), options)
                  .status()
                  .IsNotFound());
}

TEST_F(DsigFixture, MultipleReferences) {
  // Fig. 4: sign several tracks of the Interactive Cluster in one signature.
  auto doc = xml::Parse("<cluster><track Id=\"t1\">a</track>"
                        "<track Id=\"t2\">b</track></cluster>")
                 .value();
  ReferenceContext ctx;
  ctx.document = &doc;
  ReferenceSpec r1;
  r1.uri = "#t1";
  r1.transforms = {crypto::kAlgC14N};
  ReferenceSpec r2;
  r2.uri = "#t2";
  r2.transforms = {crypto::kAlgC14N};
  Signer signer = BareSigner();
  auto built = signer.BuildUnsigned({r1, r2}, ctx);
  ASSERT_TRUE(built.ok());
  auto* sig = static_cast<xml::Element*>(
      doc.root()->AppendChild(std::move(built).value()));
  ASSERT_TRUE(signer.Finalize(sig).ok());

  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reference_uris.size(), 2u);

  // Either track tampering breaks the (single) signature.
  doc.FindById("t2")->SetTextContent("tampered");
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, BareOptions())
                  .status()
                  .IsVerificationFailed());
}

// ------------------------------------------------------------- transforms

TEST_F(DsigFixture, Base64TransformDecodesBeforeDigest) {
  // A reference whose target holds base64 text: the transform digests the
  // decoded octets, so the signature binds the *binary*, not its encoding.
  Bytes payload = ToBytes("binary resource \x01\x02\x03");
  auto doc = xml::Parse("<pkg><res Id=\"blob\">" + Base64Encode(payload) +
                        "</res></pkg>")
                 .value();
  ReferenceContext ctx;
  ctx.document = &doc;
  ReferenceSpec spec;
  spec.uri = "#blob";
  spec.transforms = {crypto::kAlgBase64Transform};
  Signer signer = BareSigner();
  auto built = signer.BuildUnsigned({spec}, ctx);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto* sig = static_cast<xml::Element*>(
      doc.root()->AppendChild(std::move(built).value()));
  ASSERT_TRUE(signer.Finalize(sig).ok());
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, BareOptions()).ok());

  // Re-wrapping the same octets differently (line folds) still verifies…
  std::string folded = Base64Encode(payload);
  folded.insert(4, "\n");
  doc.FindById("blob")->SetTextContent(folded);
  // …but the Id attribute must survive SetTextContent; re-set it.
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, BareOptions()).ok());

  // While different octets fail.
  Bytes other = payload;
  other[0] ^= 1;
  doc.FindById("blob")->SetTextContent(Base64Encode(other));
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, BareOptions())
                  .status()
                  .IsVerificationFailed());
}

TEST_F(DsigFixture, C14NWithCommentsTransform) {
  auto doc = xml::Parse("<m><part Id=\"p\"><!--note-->x</part></m>").value();
  ReferenceContext ctx;
  ctx.document = &doc;
  ReferenceSpec spec;
  spec.uri = "#p";
  spec.transforms = {crypto::kAlgC14NWithComments};
  Signer signer = BareSigner();
  auto built = signer.BuildUnsigned({spec}, ctx);
  ASSERT_TRUE(built.ok());
  auto* sig = static_cast<xml::Element*>(
      doc.root()->AppendChild(std::move(built).value()));
  ASSERT_TRUE(signer.Finalize(sig).ok());
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, BareOptions()).ok());

  // With the comments variant, editing the comment breaks the signature.
  std::string wire = xml::Serialize(doc);
  size_t pos = wire.find("<!--note-->");
  wire.replace(pos, 11, "<!--edit-->");
  auto reparsed = xml::Parse(wire).value();
  EXPECT_TRUE(Verifier::VerifyFirstSignature(reparsed, BareOptions())
                  .status()
                  .IsVerificationFailed());
}

TEST_F(DsigFixture, DefaultC14NIgnoresComments) {
  auto doc = xml::Parse("<m><part Id=\"p\"><!--note-->x</part></m>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.FindById("p"), "p", doc.root())
                  .ok());
  // Comment edits are invisible to comment-less C14N.
  std::string wire = xml::Serialize(doc);
  size_t pos = wire.find("<!--note-->");
  wire.replace(pos, 11, "<!--edit-->");
  auto reparsed = xml::Parse(wire).value();
  EXPECT_TRUE(Verifier::VerifyFirstSignature(reparsed, BareOptions()).ok());
}

TEST_F(DsigFixture, UnsupportedTransformRejected) {
  auto doc = xml::Parse("<m><p Id=\"x\"/></m>").value();
  ReferenceContext ctx;
  ctx.document = &doc;
  ReferenceSpec spec;
  spec.uri = "#x";
  spec.transforms = {"http://www.w3.org/TR/1999/REC-xslt-19991116"};
  Signer signer = BareSigner();
  EXPECT_TRUE(
      signer.BuildUnsigned({spec}, ctx).status().IsUnsupported());
}

// ------------------------------------------------------------- trust

TEST_F(DsigFixture, CertificateChainTrustModel) {
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(*root_cert_).ok());

  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer = CertSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());

  VerifyOptions options;
  options.cert_store = &store;
  options.now = kNow;
  auto result = Verifier::VerifyFirstSignature(doc, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->signer_subject, "CN=Studio Signer");
  EXPECT_EQ(result->key_name,
            pki::KeyFingerprint(signer_key_->public_key));
}

TEST_F(DsigFixture, UntrustedChainRejected) {
  pki::CertStore empty_store;
  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer = CertSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options;
  options.cert_store = &empty_store;
  options.now = kNow;
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, options)
                  .status()
                  .IsVerificationFailed());
}

TEST_F(DsigFixture, ExpiredCertificateRejected) {
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(*root_cert_).ok());
  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer = CertSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options;
  options.cert_store = &store;
  options.now = kNow + 5 * kYear;  // leaf expired
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, options)
                  .status()
                  .IsVerificationFailed());
}

TEST_F(DsigFixture, RevokedSignerRejected) {
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(*root_cert_).ok());
  store.Revoke(leaf_cert_->info().issuer, leaf_cert_->info().serial);
  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer = CertSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options;
  options.cert_store = &store;
  options.now = kNow;
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, options)
                  .status()
                  .IsVerificationFailed());
}

TEST_F(DsigFixture, BareKeyValueRejectedByDefault) {
  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options;  // no trust source, no opt-in
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, options)
                  .status()
                  .IsVerificationFailed());
}

TEST_F(DsigFixture, TrustedKeyOverride) {
  auto doc = xml::Parse("<manifest><m/></manifest>").value();
  Signer signer(SigningKey::Rsa(signer_key_->private_key), {});  // no KeyInfo
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options;
  options.trusted_key = signer_key_->public_key;
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, options).ok());
  options.trusted_key = root_key_->public_key;  // wrong key
  EXPECT_FALSE(Verifier::VerifyFirstSignature(doc, options).ok());
}

TEST_F(DsigFixture, ResignedByAttackerFailsUnderCertTrust) {
  // An attacker re-signs tampered content with their own key and KeyValue;
  // the cert-store trust model must reject it.
  pki::CertStore store;
  ASSERT_TRUE(store.AddTrustedRoot(*root_cert_).ok());
  auto doc = xml::Parse("<manifest><code>evil</code></manifest>").value();
  Rng rng(5150);
  auto attacker = crypto::RsaGenerateKeyPair(512, &rng).value();
  KeyInfoSpec ki;
  ki.include_key_value = true;
  Signer evil_signer(SigningKey::Rsa(attacker.private_key), ki);
  ASSERT_TRUE(evil_signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options;
  options.cert_store = &store;
  options.now = kNow;
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, options)
                  .status()
                  .IsVerificationFailed());
}

// ------------------------------------------------------------- misc

TEST_F(DsigFixture, FindSignaturesLocatesNested) {
  auto doc = xml::Parse("<m><part/></m>").value();
  Signer signer = BareSigner();
  xml::Element* part = doc.root()->FirstChildElement("part");
  ASSERT_TRUE(signer.SignDetached(&doc, part, "p1", part).ok());
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  EXPECT_EQ(Verifier::FindSignatures(doc.root()).size(), 2u);
}

TEST_F(DsigFixture, NoSignatureIsNotFound) {
  auto doc = xml::Parse("<m/>").value();
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, BareOptions())
                  .status()
                  .IsNotFound());
}

TEST_F(DsigFixture, SignatureNeedsReferences) {
  Signer signer = BareSigner();
  ReferenceContext ctx;
  EXPECT_TRUE(signer.CreateSignature({}, ctx).status().IsInvalidArgument());
}

// ------------------------------------------------------------- streaming

TEST_F(DsigFixture, SignAndVerifyNeverMaterializeCanonicalForm) {
  // The acceptance bar for the streaming pipeline: enveloped + detached
  // sign and verify on same-document references run entirely through
  // ByteSinks — zero buffered canonicalizations along the way.
  auto doc = xml::Parse("<manifest xmlns:m=\"urn:m\"><markup Id=\"part\">"
                        "<m:clip src=\"a\"/>text</markup><code>x</code>"
                        "</manifest>")
                 .value();
  Signer signer = BareSigner();

  size_t before = xml::BufferedCanonicalizationCount();
  // Detached first: the enveloped signature covers the whole document, so
  // it must be the last mutation.
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("markup"),
                                "part", doc.root())
                  .ok());
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  for (xml::Element* sig : Verifier::FindSignatures(doc.root())) {
    ASSERT_TRUE(Verifier::Verify(&doc, *sig, BareOptions()).ok());
  }
  EXPECT_EQ(xml::BufferedCanonicalizationCount(), before)
      << "sign/verify materialized a canonical buffer";
}

TEST_F(DsigFixture, HmacSignAndVerifyAlsoStream) {
  auto doc = xml::Parse("<m><a Id=\"t\">payload</a></m>").value();
  Signer signer(SigningKey::HmacSecret(ToBytes("secret")), {});
  size_t before = xml::BufferedCanonicalizationCount();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options;
  options.hmac_secret = ToBytes("secret");
  ASSERT_TRUE(Verifier::VerifyFirstSignature(doc, options).ok());
  EXPECT_EQ(xml::BufferedCanonicalizationCount(), before);
}

TEST_F(DsigFixture, StreamedReferenceOctetsMatchBufferedApi) {
  // ProcessReferenceTo into a sink is byte-identical to the Bytes-returning
  // ProcessReference for every reference kind the signer emits.
  auto doc = xml::Parse("<root xmlns:n=\"urn:n\"><part Id=\"p\">"
                        "<n:x k=\"v\"/>body</part></root>")
                 .value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("part"),
                                "p", doc.root())
                  .ok());
  ReferenceContext ctx;
  ctx.document = &doc;
  doc.root()->ForEachElement([&](xml::Element* e) {
    if (e->LocalName() != "Reference") return;
    auto buffered = ProcessReference(*e, ctx);
    ASSERT_TRUE(buffered.ok());
    Bytes streamed;
    BytesSink sink(&streamed);
    ASSERT_TRUE(ProcessReferenceTo(*e, ctx, &sink).ok());
    EXPECT_EQ(streamed, buffered.value());
  });
}

TEST_F(DsigFixture, Base64TransformChainStillBuffersCorrectly) {
  // A node-set -> octet transform (base64) cannot stream; the pipeline
  // must fall back to buffering and still produce the decoded octets.
  auto doc = xml::Parse("<root><blob Id=\"b\">aGVsbG8=</blob></root>")
                 .value();
  auto ref = std::make_unique<xml::Element>("ds:Reference");
  ref->SetAttribute("URI", "#b");
  xml::Element* transforms = ref->AppendElement("ds:Transforms");
  transforms->AppendElement("ds:Transform")
      ->SetAttribute("Algorithm", crypto::kAlgBase64Transform);
  ReferenceContext ctx;
  ctx.document = &doc;
  Bytes streamed;
  BytesSink sink(&streamed);
  ASSERT_TRUE(ProcessReferenceTo(*ref, ctx, &sink).ok());
  EXPECT_EQ(ToString(streamed), "hello");
}

// ------------------------------------------------- the omitted signature

/// Signs a small document enveloped, gives the element `local` of the
/// signature (the ds:Signature itself or one inside it) an Id and points
/// the one Reference at it, keeping the enveloped-signature transform: the
/// reference now names a target that the transform leaves out. A network
/// attacker can send this with no key at all, since references are
/// digested before any key is resolved.
Status VerifyRetargetedAt(const Signer& signer, const VerifyOptions& options,
                          const std::string& local) {
  auto doc = xml::Parse("<root><a>x</a><b/></root>").value();
  auto sig = signer.SignEnveloped(&doc, doc.root());
  if (!sig.ok()) return sig.status();
  xml::Element* target = sig.value();
  if (local != "Signature") target = target->FirstChildElementByLocalName(local);
  target->SetAttribute("Id", "own");
  sig.value()
      ->FirstChildElementByLocalName("SignedInfo")
      ->FirstChildElementByLocalName("Reference")
      ->SetAttribute("URI", "#own");
  // Through the wire form, as a downloaded application arrives.
  auto wire = xml::Parse(xml::Serialize(doc)).value();
  return Verifier::VerifyFirstSignature(wire, options).status();
}

constexpr char kOmittedTargetMessage[] =
    "enveloped-signature: reference target lies inside the omitted "
    "signature";

TEST_F(DsigFixture, ReferenceToItsOwnSignatureIsRejected) {
  Status status = VerifyRetargetedAt(BareSigner(), BareOptions(), "Signature");
  ASSERT_TRUE(status.IsVerificationFailed()) << status.ToString();
  EXPECT_EQ(status.message(), kOmittedTargetMessage);
}

TEST_F(DsigFixture, ReferenceToItsOwnSignedInfoIsRejected) {
  Status status = VerifyRetargetedAt(BareSigner(), BareOptions(), "SignedInfo");
  ASSERT_TRUE(status.IsVerificationFailed()) << status.ToString();
  EXPECT_EQ(status.message(), kOmittedTargetMessage);
}

/// `<root>` holding `body` and then a ds:Signature whose one Reference has
/// URI "" and the given transform chain; the SignatureValue text is "REVG"
/// (base64 of "DEF") and `object` goes into a ds:Object.
std::string EnvelopedDocument(const std::string& body,
                              const std::vector<std::string>& transforms,
                              const std::string& object) {
  std::string chain;
  for (const std::string& alg : transforms) {
    chain += "<ds:Transform Algorithm=\"" + alg + "\"/>";
  }
  return "<root>" + body + "<ds:Signature xmlns:ds=\"" +
         std::string(kDsNamespace) +
         "\"><ds:SignedInfo><ds:Reference URI=\"\"><ds:Transforms>" + chain +
         "</ds:Transforms></ds:Reference></ds:SignedInfo>"
         "<ds:SignatureValue>REVG</ds:SignatureValue><ds:Object>" +
         object + "</ds:Object></ds:Signature></root>";
}

/// Runs the document's one Reference over it.
Result<Bytes> ProcessOnlyReference(const xml::Document& doc,
                                   const DecryptHook& hook = nullptr) {
  const xml::Element* sig = doc.root()->FirstChildElement("ds:Signature");
  const xml::Element* ref = sig->FirstChildElement("ds:SignedInfo")
                                ->FirstChildElement("ds:Reference");
  ReferenceContext ctx;
  ctx.document = &doc;
  ctx.signature_path = ComputePath(sig);
  ctx.decrypt_hook = hook;
  return ProcessReference(*ref, ctx);
}

TEST(OmittedSignatureTest, Base64TransformSeesTheSignatureRemoved) {
  // Every node-set consumer, not only canonicalization, must see the
  // enveloped signature as gone: base64 decodes the root's text without
  // the SignatureValue's "REVG" (octets as the copying pipeline produced).
  auto doc = xml::Parse(EnvelopedDocument(
                            "QUJD",
                            {crypto::kAlgEnvelopedSignature,
                             crypto::kAlgBase64Transform},
                            ""))
                 .value();
  auto octets = ProcessOnlyReference(doc);
  ASSERT_TRUE(octets.ok()) << octets.status().ToString();
  EXPECT_EQ(ToString(octets.value()), "ABC");
}

/// A stand-in decrypt hook: replaces every EncryptedData in scope with a
/// <plain> element holding its text, and records the canonical form of
/// the document it was handed.
DecryptHook RecordingHook(std::string* seen) {
  return [seen](xml::Document* working, xml::Element* apex,
                const std::vector<std::string>&) {
    *seen = xml::Canonicalize(*working);
    std::vector<xml::Element*> targets;
    (apex != nullptr ? apex : working->root())
        ->ForEachElement([&](xml::Element* e) {
          if (e->LocalName() == "EncryptedData") targets.push_back(e);
        });
    for (xml::Element* e : targets) {
      auto plain = std::make_unique<xml::Element>("plain");
      plain->AppendText(e->TextContent());
      e->parent()->ReplaceChild(e, std::move(plain));
    }
    return Status::OK();
  };
}

TEST(OmittedSignatureTest, DecryptionTransformCopiesWithoutTheSignature) {
  // The Decryption Transform's hook gets a private copy without the
  // signature, so an EncryptedData inside ds:Object is never seen or
  // rewritten, and the caller's document is left as it was. The octets
  // are those of the copying pipeline.
  auto doc = xml::Parse(EnvelopedDocument(
                            "<data>x</data><EncryptedData>cipher"
                            "</EncryptedData>",
                            {crypto::kAlgEnvelopedSignature,
                             crypto::kAlgDecryptionTransform},
                            "<EncryptedData>inner</EncryptedData>"))
                 .value();
  const std::string before = xml::Canonicalize(doc);
  std::string seen;
  auto octets = ProcessOnlyReference(doc, RecordingHook(&seen));
  ASSERT_TRUE(octets.ok()) << octets.status().ToString();
  EXPECT_EQ(ToString(octets.value()),
            "<root><data>x</data><plain>cipher</plain></root>");
  EXPECT_EQ(seen,
            "<root><data>x</data><EncryptedData>cipher</EncryptedData>"
            "</root>");
  EXPECT_EQ(xml::Canonicalize(doc), before);
}

TEST(OmittedSignatureTest, DecryptionTransformWithoutCiphertextIsIdentity) {
  // No EncryptedData outside the omitted signature: nothing to decrypt, so
  // the node-set passes through without a copy and the hook is not called.
  auto doc = xml::Parse(EnvelopedDocument(
                            "<data>x</data>",
                            {crypto::kAlgEnvelopedSignature,
                             crypto::kAlgDecryptionTransform},
                            "<EncryptedData>inner</EncryptedData>"))
                 .value();
  std::string seen = "not called";
  auto octets = ProcessOnlyReference(doc, RecordingHook(&seen));
  ASSERT_TRUE(octets.ok()) << octets.status().ToString();
  EXPECT_EQ(ToString(octets.value()), "<root><data>x</data></root>");
  EXPECT_EQ(seen, "not called");
}

TEST(OmittedSignatureTest, SameDocumentReferencesLeaveTheDocumentAlone) {
  // URI "" with the enveloped transform and a #id reference both read the
  // caller's document in place; neither writes it.
  auto doc = xml::Parse(EnvelopedDocument(
                            "<part Id=\"p\">body</part>",
                            {crypto::kAlgEnvelopedSignature}, ""))
                 .value();
  const std::string before = xml::Canonicalize(doc);
  auto whole = ProcessOnlyReference(doc);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(ToString(whole.value()), "<root><part Id=\"p\">body</part></root>");
  auto ref = std::make_unique<xml::Element>("ds:Reference");
  ref->SetAttribute("URI", "#p");
  ReferenceContext ctx;
  ctx.document = &doc;
  auto part = ProcessReference(*ref, ctx);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_EQ(ToString(part.value()), "<part Id=\"p\">body</part>");
  EXPECT_EQ(xml::Canonicalize(doc), before);
}

// ------------------------------------------------- adversarial negatives

TEST_F(DsigFixture, WrongKeyFailsWithSignatureMismatch) {
  auto doc = xml::Parse("<app><code>var s = 1;</code></app>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  // The verifier trusts a different key than the one that signed.
  VerifyOptions options;
  options.trusted_key = root_key_->public_key;
  auto result = Verifier::VerifyFirstSignature(doc, options);
  ASSERT_TRUE(result.status().IsVerificationFailed());
  EXPECT_NE(result.status().message().find("RSA signature mismatch"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(DsigFixture, TruncatedSignatureValueFailsOnLength) {
  auto doc = xml::Parse("<app><code>var s = 1;</code></app>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  // Drop 4 base64 characters: still valid base64, 3 bytes short of the
  // modulus size — must be rejected on length, before any RSA math.
  std::string wire = xml::Serialize(doc);
  size_t pos = wire.find("<ds:SignatureValue>");
  ASSERT_NE(pos, std::string::npos);
  wire.erase(pos + std::string("<ds:SignatureValue>").size(), 4);
  auto reparsed = xml::Parse(wire).value();
  auto result = Verifier::VerifyFirstSignature(reparsed, BareOptions());
  ASSERT_TRUE(result.status().IsVerificationFailed());
  EXPECT_NE(result.status().message().find("signature length mismatch"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(DsigFixture, HmacRsaConfusionFailsWithoutSharedSecret) {
  // Classic algorithm-confusion: the attacker rewrites an RSA signature's
  // SignatureMethod to hmac-sha1, hoping the verifier MACs with public
  // material. Without an explicitly provisioned secret this must fail.
  auto doc = xml::Parse("<app><code>var s = 1;</code></app>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  std::string wire = xml::Serialize(doc);
  size_t pos = wire.find(crypto::kAlgRsaSha1);
  ASSERT_NE(pos, std::string::npos);
  wire.replace(pos, std::string(crypto::kAlgRsaSha1).size(),
               crypto::kAlgHmacSha1);
  auto reparsed = xml::Parse(wire).value();
  auto result = Verifier::VerifyFirstSignature(reparsed, BareOptions());
  ASSERT_TRUE(result.status().IsVerificationFailed());
  EXPECT_NE(result.status().message().find("no shared secret"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(DsigFixture, EmptyReferenceListFails) {
  // The Signer refuses to create a reference-free signature, so an attacker
  // must craft one on the wire: strip the <ds:Reference> out of a valid
  // signature. The verifier must reject it before trusting anything.
  auto doc = xml::Parse("<app Id=\"a\"/>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  xml::Element* sig = Verifier::FindSignatures(doc.root())[0];
  xml::Element* signed_info = sig->FirstChildElementByLocalName("SignedInfo");
  ASSERT_NE(signed_info, nullptr);
  xml::Element* reference =
      signed_info->FirstChildElementByLocalName("Reference");
  ASSERT_NE(reference, nullptr);
  signed_info->RemoveChild(reference);
  auto result = Verifier::Verify(&doc, *sig, BareOptions());
  ASSERT_TRUE(result.status().IsVerificationFailed());
  EXPECT_NE(result.status().message().find("no references"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(DsigFixture, DuplicateReferenceIdFailsAsWrapping) {
  auto doc = xml::Parse("<m><part Id=\"p\">good</part></m>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("part"),
                                "p", doc.root())
                  .ok());
  // Plant a second element declaring the signed Id: strict resolution must
  // refuse instead of silently digesting the first match.
  doc.root()->AppendElement("part")->SetAttribute("Id", "p");
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  ASSERT_TRUE(result.status().IsVerificationFailed());
  EXPECT_NE(result.status().message().find("ambiguous"), std::string::npos)
      << result.status().ToString();
}

// --------------------------------------------------- see-what-is-signed

TEST_F(DsigFixture, VerifyInfoReportsResolvedReferences) {
  auto doc = xml::Parse("<m><a/><part Id=\"p\">x</part></m>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("part"),
                                "p", doc.root())
                  .ok());
  auto result = Verifier::VerifyFirstSignature(doc, BareOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->references.size(), 1u);
  const VerifiedReference& ref = result->references[0];
  EXPECT_EQ(ref.uri, "#p");
  EXPECT_TRUE(ref.same_document);
  EXPECT_FALSE(ref.covers_root);
  EXPECT_EQ(ref.resolved_name, "part");
  EXPECT_EQ(ref.resolved_path, "/m/part[1]");
}

TEST_F(DsigFixture, EnvelopedReferenceCoversRoot) {
  auto doc = xml::Parse("<app><code>x</code></app>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());
  VerifyOptions options = BareOptions();
  options.require_signed_root = true;  // satisfied by the "" reference
  auto result = Verifier::VerifyFirstSignature(doc, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->references.size(), 1u);
  EXPECT_TRUE(result->references[0].covers_root);
  EXPECT_EQ(result->references[0].resolved_name, "app");
}

TEST_F(DsigFixture, RequireSignedRootRejectsFragmentOnlySignature) {
  auto doc = xml::Parse("<m><part Id=\"p\">x</part></m>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("part"),
                                "p", doc.root())
                  .ok());
  VerifyOptions options = BareOptions();
  options.require_signed_root = true;
  auto result = Verifier::VerifyFirstSignature(doc, options);
  ASSERT_TRUE(result.status().IsVerificationFailed());
  EXPECT_NE(result.status().message().find("document root"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(DsigFixture, AllowedReferenceRootsRejectsDecoyTarget) {
  auto doc =
      xml::Parse("<m><decoy Id=\"d\">x</decoy><code Id=\"c\">y</code></m>")
          .value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("decoy"),
                                "d", doc.root())
                  .ok());
  VerifyOptions options = BareOptions();
  options.allowed_reference_roots = {"code", "markup"};
  auto result = Verifier::VerifyFirstSignature(doc, options);
  ASSERT_TRUE(result.status().IsVerificationFailed());
  EXPECT_NE(result.status().message().find("disallowed element"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(DsigFixture, AllowedReferenceRootsAcceptsSchemaTarget) {
  auto doc = xml::Parse("<m><code Id=\"c\">y</code></m>").value();
  Signer signer = BareSigner();
  ASSERT_TRUE(signer
                  .SignDetached(&doc, doc.root()->FirstChildElement("code"),
                                "c", doc.root())
                  .ok());
  VerifyOptions options = BareOptions();
  options.allowed_reference_roots = {"code", "markup"};
  EXPECT_TRUE(Verifier::VerifyFirstSignature(doc, options).ok());
}

}  // namespace
}  // namespace xmldsig
}  // namespace discsec
