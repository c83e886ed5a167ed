#include <gtest/gtest.h>

#include "crypto/algorithms.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/signer.h"
#include "xmldsig/verifier.h"
#include "xmlenc/constants.h"
#include "xmlenc/decryptor.h"
#include "xmlenc/encryptor.h"

namespace discsec {
namespace xmlenc {
namespace {

class XmlEncFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(31415);
    content_key_ = rng_->NextBytes(16);
    kek_ = rng_->NextBytes(16);
  }

  EncryptionSpec DirectSpec() {
    EncryptionSpec spec;
    spec.content_key = content_key_;
    spec.key_mode = KeyMode::kDirectReference;
    spec.key_name = "disc-content-key";
    return spec;
  }

  KeyRing DirectRing() {
    KeyRing ring;
    ring.AddKey("disc-content-key", content_key_);
    return ring;
  }

  std::unique_ptr<Rng> rng_;
  Bytes content_key_;
  Bytes kek_;
};

TEST_F(XmlEncFixture, DataRoundTripDirectKey) {
  auto enc = Encryptor::Create(DirectSpec(), rng_.get());
  ASSERT_TRUE(enc.ok());
  Bytes payload = ToBytes("binary clip payload \x01\x02");
  auto data = enc->EncryptData(payload, "video/mp2t", "enc-clip");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data.value()->GetAttribute("MimeType"), "video/mp2t");
  EXPECT_EQ(*data.value()->GetAttribute("Id"), "enc-clip");
  // Ciphertext does not contain the plaintext.
  std::string serialized = xml::SerializeElement(*data.value());
  EXPECT_EQ(serialized.find("binary clip"), std::string::npos);

  Decryptor dec(DirectRing());
  auto plain = dec.DecryptData(*data.value());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value(), payload);
}

TEST_F(XmlEncFixture, GeneratedKeyWhenSpecEmpty) {
  EncryptionSpec spec;
  spec.key_mode = KeyMode::kDirectReference;
  spec.key_name = "k";
  auto enc = Encryptor::Create(spec, rng_.get());
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->content_key().size(), 16u);
}

TEST_F(XmlEncFixture, ElementEncryptionReplacesInPlace) {
  // Fig. 8: the manifest element becomes an EncryptedData in the document.
  auto doc = xml::Parse("<track><manifest><code>secret()</code></manifest>"
                        "</track>")
                 .value();
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  xml::Element* manifest = doc.root()->FirstChildElement("manifest");
  auto result = enc.EncryptElement(&doc, manifest, "enc-manifest");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The manifest is gone; an EncryptedData stands in its place.
  EXPECT_EQ(doc.root()->FirstChildElement("manifest"), nullptr);
  xml::Element* ed = doc.root()->FirstChildElementByLocalName("EncryptedData");
  ASSERT_NE(ed, nullptr);
  EXPECT_EQ(*ed->GetAttribute("Type"), kTypeElement);
  EXPECT_EQ(xml::Serialize(doc).find("secret()"), std::string::npos);

  // Round-trip through the wire, then decrypt in place.
  auto reparsed = xml::Parse(xml::Serialize(doc)).value();
  Decryptor dec(DirectRing());
  xml::Element* ed2 =
      reparsed.root()->FirstChildElementByLocalName("EncryptedData");
  ASSERT_TRUE(dec.DecryptInPlace(&reparsed, ed2).ok());
  xml::Element* restored = reparsed.root()->FirstChildElement("manifest");
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->TextContent(), "secret()");
}

TEST_F(XmlEncFixture, ElementEncryptionPreservesNamespaceContext) {
  auto doc = xml::Parse("<a xmlns:s=\"urn:smil\"><s:seq><s:par/></s:seq></a>")
                 .value();
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  xml::Element* seq = doc.root()->FirstChildElementByLocalName("seq");
  ASSERT_TRUE(enc.EncryptElement(&doc, seq).ok());
  auto reparsed = xml::Parse(xml::Serialize(doc)).value();
  Decryptor dec(DirectRing());
  xml::Element* ed =
      reparsed.root()->FirstChildElementByLocalName("EncryptedData");
  ASSERT_TRUE(dec.DecryptInPlace(&reparsed, ed).ok());
  xml::Element* restored =
      reparsed.root()->FirstChildElementByLocalName("seq");
  ASSERT_NE(restored, nullptr);
  // The restored element still resolves its prefix.
  EXPECT_EQ(restored->NamespaceUri(), "urn:smil");
}

TEST_F(XmlEncFixture, ContentEncryptionKeepsShell) {
  // The paper's partial-encryption scenario: scores stay secret, wrapper
  // stays visible.
  auto doc = xml::Parse("<scores game=\"quiz\"><e rank=\"1\">9000</e>"
                        "<e rank=\"2\">7500</e></scores>")
                 .value();
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  ASSERT_TRUE(enc.EncryptContent(&doc, doc.root(), "enc-scores").ok());
  EXPECT_EQ(doc.root()->name(), "scores");  // shell visible
  EXPECT_EQ(*doc.root()->GetAttribute("game"), "quiz");
  EXPECT_EQ(xml::Serialize(doc).find("9000"), std::string::npos);

  auto reparsed = xml::Parse(xml::Serialize(doc)).value();
  Decryptor dec(DirectRing());
  xml::Element* ed =
      reparsed.root()->FirstChildElementByLocalName("EncryptedData");
  ASSERT_EQ(*ed->GetAttribute("Type"), kTypeContent);
  ASSERT_TRUE(dec.DecryptInPlace(&reparsed, ed).ok());
  auto entries = reparsed.root()->ChildElements("e");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0]->TextContent(), "9000");
}

TEST_F(XmlEncFixture, RsaKeyTransport) {
  auto device = crypto::RsaGenerateKeyPair(512, rng_.get()).value();
  EncryptionSpec spec;
  spec.key_mode = KeyMode::kRsaTransport;
  spec.recipient_key = device.public_key;
  spec.key_name = "player-device-key";
  auto enc = Encryptor::Create(spec, rng_.get()).value();
  auto data = enc.EncryptData(ToBytes("payload"));
  ASSERT_TRUE(data.ok());
  // The EncryptedKey element is present inside KeyInfo.
  ASSERT_NE(data.value()
                ->FirstChildElementByLocalName("KeyInfo")
                ->FirstChildElementByLocalName("EncryptedKey"),
            nullptr);

  KeyRing ring;
  ring.SetRsaKey(device.private_key);
  Decryptor dec(std::move(ring));
  auto plain = dec.DecryptData(*data.value());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(ToString(plain.value()), "payload");

  // Without the device key, decryption fails.
  Decryptor no_key{KeyRing()};
  EXPECT_FALSE(no_key.DecryptData(*data.value()).ok());
}

TEST_F(XmlEncFixture, AesKeyWrapTransport) {
  EncryptionSpec spec;
  spec.key_mode = KeyMode::kAesKeyWrap;
  spec.kek = kek_;
  spec.key_name = "studio-kek";
  auto enc = Encryptor::Create(spec, rng_.get()).value();
  auto data = enc.EncryptData(ToBytes("wrapped payload"));
  ASSERT_TRUE(data.ok());

  KeyRing ring;
  ring.AddKey("studio-kek", kek_);
  Decryptor dec(std::move(ring));
  auto plain = dec.DecryptData(*data.value());
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(ToString(plain.value()), "wrapped payload");

  // A wrong KEK fails the key-unwrap integrity check.
  KeyRing wrong;
  wrong.AddKey("studio-kek", rng_->NextBytes(16));
  Decryptor dec2(std::move(wrong));
  EXPECT_FALSE(dec2.DecryptData(*data.value()).ok());
}

TEST_F(XmlEncFixture, Aes256Content) {
  EncryptionSpec spec;
  spec.content_algorithm = crypto::kAlgAes256Cbc;
  spec.key_mode = KeyMode::kDirectReference;
  spec.key_name = "k256";
  auto enc = Encryptor::Create(spec, rng_.get()).value();
  EXPECT_EQ(enc.content_key().size(), 32u);
  auto data = enc.EncryptData(ToBytes("x"));
  ASSERT_TRUE(data.ok());
  KeyRing ring;
  ring.AddKey("k256", enc.content_key());
  Decryptor dec(std::move(ring));
  EXPECT_EQ(ToString(dec.DecryptData(*data.value()).value()), "x");
}

TEST_F(XmlEncFixture, UnknownKeyNameFails) {
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  auto data = enc.EncryptData(ToBytes("x")).value();
  KeyRing ring;
  ring.AddKey("some-other-key", content_key_);
  Decryptor dec(std::move(ring));
  EXPECT_TRUE(dec.DecryptData(*data).status().IsNotFound());
}

TEST_F(XmlEncFixture, TamperedCipherValueFails) {
  auto doc = xml::Parse("<t><m>payload</m></t>").value();
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  ASSERT_TRUE(enc.EncryptElement(&doc, doc.root()->FirstChildElement("m"))
                  .ok());
  xml::Element* ed = doc.root()->FirstChildElementByLocalName("EncryptedData");
  xml::Element* cv = ed->FirstChildElementByLocalName("CipherData")
                         ->FirstChildElementByLocalName("CipherValue");
  std::string v = cv->TextContent();
  v[2] = v[2] == 'A' ? 'B' : 'A';
  cv->SetTextContent(v);
  Decryptor dec(DirectRing());
  // Tampered ciphertext either fails padding or yields non-XML plaintext.
  EXPECT_FALSE(dec.DecryptInPlace(&doc, ed).ok());
}

TEST_F(XmlEncFixture, DecryptAllHandlesNestedEncryption) {
  auto doc = xml::Parse("<m><outer><inner>deep</inner></outer></m>").value();
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  // First encrypt the inner element, then the (now ciphered) outer one.
  ASSERT_TRUE(
      enc.EncryptElement(&doc,
                         doc.root()
                             ->FirstChildElement("outer")
                             ->FirstChildElement("inner"))
          .ok());
  ASSERT_TRUE(
      enc.EncryptElement(&doc, doc.root()->FirstChildElement("outer")).ok());
  Decryptor dec(DirectRing());
  ASSERT_TRUE(dec.DecryptAll(&doc, nullptr, {}).ok());
  xml::Element* inner = doc.root()
                            ->FirstChildElement("outer")
                            ->FirstChildElement("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->TextContent(), "deep");
}

TEST_F(XmlEncFixture, DecryptAllHonorsExceptList) {
  auto doc = xml::Parse("<m><a>one</a><b>two</b></m>").value();
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  ASSERT_TRUE(
      enc.EncryptElement(&doc, doc.root()->FirstChildElement("a"), "keep")
          .ok());
  ASSERT_TRUE(
      enc.EncryptElement(&doc, doc.root()->FirstChildElement("b"), "open")
          .ok());
  Decryptor dec(DirectRing());
  ASSERT_TRUE(dec.DecryptAll(&doc, nullptr, {"keep"}).ok());
  // "open" was decrypted; "keep" stayed encrypted.
  EXPECT_NE(doc.root()->FirstChildElement("b"), nullptr);
  EXPECT_EQ(doc.root()->FirstChildElement("a"), nullptr);
  ASSERT_NE(doc.FindById("keep"), nullptr);
}

// --------------------------------------------- Decryption Transform (§7)

TEST_F(XmlEncFixture, SignThenEncryptThenVerifyViaDecryptionTransform) {
  // Fig. 9 order: the author signs plaintext, then encrypts a part; the
  // player uses the Decryption Transform to decrypt before digesting.
  auto doc = xml::Parse("<manifest><markup>layout</markup>"
                        "<code>var s=1;</code></manifest>")
                 .value();

  // Sign the whole document with an enveloped signature whose reference
  // chain includes the Decryption Transform.
  Rng key_rng(777);
  auto keys = crypto::RsaGenerateKeyPair(512, &key_rng).value();
  xmldsig::KeyInfoSpec ki;
  ki.include_key_value = true;
  xmldsig::Signer signer(xmldsig::SigningKey::Rsa(keys.private_key), ki);

  xml::Element* placeholder = doc.root()->AppendElement("ds:Signature");
  xmldsig::ReferenceContext ctx;
  ctx.document = &doc;
  ctx.signature_path = xmldsig::ComputePath(placeholder);
  // At signing time nothing is encrypted yet; the transform is a no-op but
  // records the processing rule for the verifier.
  Decryptor noop_dec{KeyRing()};
  ctx.decrypt_hook = noop_dec.MakeHook();

  xmldsig::ReferenceSpec spec;
  spec.uri = "";
  spec.transforms = {crypto::kAlgEnvelopedSignature,
                     crypto::kAlgDecryptionTransform, crypto::kAlgC14N};
  auto built = signer.BuildUnsigned({spec}, ctx);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  doc.root()->ReplaceChild(placeholder, std::move(built).value());
  auto* sig = static_cast<xml::Element*>(
      doc.root()->ChildAt(doc.root()->ChildCount() - 1));
  ASSERT_TRUE(signer.Finalize(sig).ok());

  // Now encrypt the code part (after signing).
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  ASSERT_TRUE(
      enc.EncryptElement(&doc, doc.root()->FirstChildElement("code")).ok());
  std::string wire = xml::Serialize(doc);
  EXPECT_EQ(wire.find("var s=1;"), std::string::npos);

  // Player side: verify with the decrypt hook; the transform decrypts the
  // working copy before digesting, so the signature still validates.
  auto reparsed = xml::Parse(wire).value();
  Decryptor player_dec(DirectRing());
  xmldsig::VerifyOptions options;
  options.allow_bare_key_value = true;
  options.decrypt_hook = player_dec.MakeHook();
  auto result = xmldsig::Verifier::VerifyFirstSignature(reparsed, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  // Without the hook, verification cannot proceed.
  xmldsig::VerifyOptions no_hook;
  no_hook.allow_bare_key_value = true;
  EXPECT_FALSE(
      xmldsig::Verifier::VerifyFirstSignature(reparsed, no_hook).ok());

  // And tampered ciphertext fails verification.
  std::string bad = wire;
  size_t cv = bad.find("CipherValue>");
  bad[cv + 20] = bad[cv + 20] == 'A' ? 'B' : 'A';
  auto bad_doc = xml::Parse(bad);
  if (bad_doc.ok()) {
    EXPECT_FALSE(
        xmldsig::Verifier::VerifyFirstSignature(*bad_doc, options).ok());
  }
}

TEST_F(XmlEncFixture, DecryptionTransformRejectsAnEncryptedDataTarget) {
  // A #id Reference naming an EncryptedData itself: decrypting it in place
  // would replace the node-set's apex, which the Decryption Transform used
  // to keep using after the decryptor had freed it.
  auto doc = xml::Parse("<manifest><markup>layout</markup>"
                        "<code>var s=1;</code></manifest>")
                 .value();
  auto enc = Encryptor::Create(DirectSpec(), rng_.get()).value();
  auto encrypted =
      enc.EncryptElement(&doc, doc.root()->FirstChildElement("code"));
  ASSERT_TRUE(encrypted.ok()) << encrypted.status().ToString();
  encrypted.value()->SetAttribute("Id", "ed");
  auto ref = std::make_unique<xml::Element>("ds:Reference");
  ref->SetAttribute("URI", "#ed");
  ref->AppendElement("ds:Transforms")
      ->AppendElement("ds:Transform")
      ->SetAttribute("Algorithm", crypto::kAlgDecryptionTransform);
  Decryptor dec(DirectRing());
  xmldsig::ReferenceContext ctx;
  ctx.document = &doc;
  ctx.decrypt_hook = dec.MakeHook();
  auto octets = xmldsig::ProcessReference(*ref, ctx);
  ASSERT_TRUE(octets.status().IsVerificationFailed())
      << octets.status().ToString();
  EXPECT_EQ(octets.status().message(),
            "decryption transform: reference target is itself an "
            "EncryptedData element");
}

}  // namespace
}  // namespace xmlenc
}  // namespace discsec
