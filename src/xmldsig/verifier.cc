#include "xmldsig/verifier.h"

#include "common/base64.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "crypto/algorithms.h"
#include "crypto/digest.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "pki/key_codec.h"
#include "xml/c14n.h"
#include "xmldsig/constants.h"

namespace discsec {
namespace xmldsig {

namespace {

bool IsDsElement(const xml::Element& e, std::string_view local) {
  return e.LocalName() == local && e.NamespaceUri() == kDsNamespace;
}

Result<std::vector<pki::Certificate>> ParseCertificateChain(
    const xml::Element& key_info) {
  std::vector<pki::Certificate> chain;
  const xml::Element* x509 = key_info.FirstChildElementByLocalName("X509Data");
  if (x509 == nullptr) return chain;
  for (const auto& child : x509->children()) {
    if (!child->IsElement()) continue;
    const auto* e = static_cast<const xml::Element*>(child.get());
    if (e->LocalName() != "X509Certificate") continue;
    DISCSEC_ASSIGN_OR_RETURN(Bytes der, Base64Decode(e->TextContent()));
    DISCSEC_ASSIGN_OR_RETURN(pki::Certificate cert,
                             pki::Certificate::FromXmlString(ToString(der)));
    chain.push_back(std::move(cert));
  }
  return chain;
}

/// Establishes the verification key per the options' trust policy.
struct ResolvedKey {
  bool is_hmac = false;
  Bytes hmac_secret;
  crypto::RsaPublicKey rsa;
  std::string signer_subject;
};

Result<ResolvedKey> ResolveKey(const xml::Element* key_info,
                               const std::string& signature_algorithm,
                               const VerifyOptions& options) {
  ResolvedKey out;
  if (signature_algorithm == crypto::kAlgHmacSha1) {
    if (!options.hmac_secret.has_value()) {
      return Status::VerificationFailed(
          "hmac-sha1 signature but no shared secret configured");
    }
    out.is_hmac = true;
    out.hmac_secret = *options.hmac_secret;
    return out;
  }
  if (options.trusted_key.has_value()) {
    out.rsa = *options.trusted_key;
    return out;
  }
  if (options.cert_store != nullptr) {
    if (key_info == nullptr) {
      return Status::VerificationFailed(
          "certificate chain required but KeyInfo missing");
    }
    DISCSEC_ASSIGN_OR_RETURN(std::vector<pki::Certificate> chain,
                             ParseCertificateChain(*key_info));
    if (chain.empty()) {
      return Status::VerificationFailed(
          "certificate chain required but X509Data missing/empty");
    }
    DISCSEC_RETURN_IF_ERROR(
        options.cert_store->ValidateChain(chain, options.now));
    out.rsa = chain.front().info().public_key;
    out.signer_subject = chain.front().info().subject;
    // Cross-check: when a KeyValue is also present it must match the leaf
    // certificate (prevents mix-and-match confusion).
    if (key_info->FirstChildElementByLocalName("KeyValue") != nullptr) {
      const xml::Element* kv =
          key_info->FirstChildElementByLocalName("KeyValue")
              ->FirstChildElementByLocalName("RSAKeyValue");
      if (kv != nullptr) {
        DISCSEC_ASSIGN_OR_RETURN(crypto::RsaPublicKey declared,
                                 pki::RsaKeyFromXml(*kv));
        if (!(declared == out.rsa)) {
          return Status::VerificationFailed(
              "KeyValue does not match leaf certificate key");
        }
      }
    }
    return out;
  }
  if (options.allow_bare_key_value) {
    if (key_info == nullptr) {
      return Status::VerificationFailed("no KeyInfo to take KeyValue from");
    }
    const xml::Element* key_value =
        key_info->FirstChildElementByLocalName("KeyValue");
    if (key_value == nullptr) {
      return Status::VerificationFailed("KeyInfo has no KeyValue");
    }
    const xml::Element* rsa =
        key_value->FirstChildElementByLocalName("RSAKeyValue");
    if (rsa == nullptr) {
      return Status::VerificationFailed("KeyValue has no RSAKeyValue");
    }
    DISCSEC_ASSIGN_OR_RETURN(out.rsa, pki::RsaKeyFromXml(*rsa));
    return out;
  }
  return Status::VerificationFailed(
      "no trust source configured (cert store, trusted key, or bare "
      "KeyValue opt-in)");
}

}  // namespace

std::vector<xml::Element*> Verifier::FindSignatures(xml::Element* root) {
  std::vector<xml::Element*> out;
  if (root == nullptr) return out;
  root->ForEachElement([&](xml::Element* e) {
    if (IsDsElement(*e, "Signature")) out.push_back(e);
  });
  return out;
}

Result<VerifyInfo> Verifier::Verify(const xml::Document* doc,
                                    const xml::Element& signature,
                                    const VerifyOptions& options) {
  obs::ScopedSpan verify_span(options.tracer, "xmldsig.verify");
  obs::ScopedLatency verify_latency(
      options.metrics != nullptr
          ? options.metrics->GetHistogram("xmldsig.verify_us")
          : nullptr);
  if (!IsDsElement(signature, "Signature")) {
    return Status::InvalidArgument("element is not a ds:Signature");
  }
  const xml::Element* signed_info =
      signature.FirstChildElementByLocalName("SignedInfo");
  const xml::Element* sig_value_elem =
      signature.FirstChildElementByLocalName("SignatureValue");
  if (signed_info == nullptr || sig_value_elem == nullptr) {
    return Status::ParseError("Signature missing SignedInfo/SignatureValue");
  }

  // Canonicalization method: only Canonical XML 1.0 variants are accepted.
  const xml::Element* c14n_method =
      signed_info->FirstChildElementByLocalName("CanonicalizationMethod");
  if (c14n_method == nullptr || c14n_method->GetAttribute("Algorithm") ==
                                    nullptr) {
    return Status::ParseError("missing CanonicalizationMethod");
  }
  const std::string& c14n_alg = *c14n_method->GetAttribute("Algorithm");
  xml::C14NOptions signed_info_c14n;
  if (c14n_alg == crypto::kAlgC14N) {
    signed_info_c14n.with_comments = false;
  } else if (c14n_alg == crypto::kAlgC14NWithComments) {
    signed_info_c14n.with_comments = true;
  } else if (c14n_alg == crypto::kAlgExcC14N) {
    signed_info_c14n.exclusive = true;
  } else if (c14n_alg == crypto::kAlgExcC14NWithComments) {
    signed_info_c14n.exclusive = true;
    signed_info_c14n.with_comments = true;
  } else {
    return Status::Unsupported("canonicalization algorithm: " + c14n_alg);
  }

  const xml::Element* sig_method =
      signed_info->FirstChildElementByLocalName("SignatureMethod");
  if (sig_method == nullptr ||
      sig_method->GetAttribute("Algorithm") == nullptr) {
    return Status::ParseError("missing SignatureMethod");
  }
  std::string signature_algorithm = *sig_method->GetAttribute("Algorithm");

  // Reference validation.
  ReferenceContext ctx;
  ctx.document = doc;
  ctx.resolver = options.resolver;
  ctx.decrypt_hook = options.decrypt_hook;
  ctx.parse_options = options.parse_options;
  // The tracer rides ReferenceContext::parse_options into the transform
  // pipeline, so inner re-parses and canonicalizations emit child spans.
  if (ctx.parse_options.tracer == nullptr) {
    ctx.parse_options.tracer = options.tracer;
  }
  if (doc != nullptr && signature.parent() != nullptr) {
    ctx.signature_path = ComputePath(&signature);
  }

  VerifyInfo info;
  info.signature_algorithm = signature_algorithm;
  std::vector<const xml::Element*> refs;
  for (const auto& child : signed_info->children()) {
    if (!child->IsElement()) continue;
    const auto* ref = static_cast<const xml::Element*>(child.get());
    if (ref->LocalName() == "Reference") refs.push_back(ref);
  }
  if (refs.empty()) {
    return Status::VerificationFailed("signature has no references");
  }
  verify_span.SetAttr("algorithm", signature_algorithm);
  verify_span.SetAttr("references", static_cast<uint64_t>(refs.size()));

  // Each Reference canonicalizes + digests independently: same-document
  // targets read `doc` in place without writing it (only a Decryption
  // Transform works on a private copy) and the shared context is
  // read-only, so references fan out over the pool and join before the
  // SignedInfo signature check below. With a null pool this degrades to
  // the serial loop. The first failing reference in document order decides
  // the error either way, so parallel and serial verification are
  // observably identical.
  struct RefOutcome {
    Status status;
    VerifiedReference verified;
  };
  std::vector<RefOutcome> outcomes(refs.size());
  // Reference spans parent onto the verify span via its captured context —
  // thread-local nesting alone would orphan them on pool workers.
  const obs::SpanContext verify_ctx = verify_span.context();
  auto process_reference = [&](const xml::Element& ref) -> RefOutcome {
    obs::ScopedSpan ref_span(verify_ctx, "xmldsig.reference");
    RefOutcome out;
    const std::string* uri = ref.GetAttribute("URI");
    std::string uri_str = uri != nullptr ? *uri : std::string();
    ref_span.SetAttr("uri", uri_str);
    if (ref_span.enabled()) {
      // Transform chain as written, comma-joined in document order.
      std::string chain;
      const xml::Element* transforms =
          ref.FirstChildElementByLocalName("Transforms");
      if (transforms != nullptr) {
        for (const auto& child : transforms->children()) {
          if (!child->IsElement()) continue;
          const auto* t = static_cast<const xml::Element*>(child.get());
          if (t->LocalName() != "Transform") continue;
          const std::string* alg = t->GetAttribute("Algorithm");
          if (alg == nullptr) continue;
          if (!chain.empty()) chain += ",";
          chain += *alg;
        }
      }
      ref_span.SetAttr("transforms", chain);
    }
    const xml::Element* digest_method =
        ref.FirstChildElementByLocalName("DigestMethod");
    const xml::Element* digest_value =
        ref.FirstChildElementByLocalName("DigestValue");
    if (digest_method == nullptr || digest_value == nullptr ||
        digest_method->GetAttribute("Algorithm") == nullptr) {
      out.status = Status::ParseError("Reference missing digest method/value");
      return out;
    }
    const std::string& digest_alg = *digest_method->GetAttribute("Algorithm");
    ref_span.SetAttr("digest_alg", digest_alg);
    auto digest = crypto::MakeDigest(digest_alg);
    if (!digest.ok()) {
      out.status = digest.status();
      return out;
    }
    // The reference octets stream into the digest as they are produced.
    crypto::DigestSink sink(digest->get());
    ReferenceResolution resolution;
    out.status = ProcessReferenceTo(ref, ctx, &sink, &resolution);
    if (!out.status.ok()) return out;
    Bytes actual = (*digest)->Finalize();
    auto expected = Base64Decode(digest_value->TextContent());
    if (!expected.ok()) {
      out.status = expected.status();
      return out;
    }
    if (!ConstantTimeEquals(actual, expected.value())) {
      out.status = Status::VerificationFailed(
          "digest mismatch for reference '" + uri_str + "'");
      return out;
    }
    out.verified.uri = std::move(uri_str);
    out.verified.resolved_name = resolution.element_name;
    out.verified.resolved_path = resolution.element_path;
    out.verified.covers_root = resolution.covers_root;
    out.verified.same_document = resolution.same_document;
    return out;
  };
  if (options.pool == nullptr) {
    // Serial path, untouched: references digest in document order.
    for (size_t i = 0; i < refs.size(); ++i) {
      outcomes[i] = process_reference(*refs[i]);
    }
  } else {
    // Each Reference is an independent task-graph node. Fail-fast cancels
    // only nodes *after* the lowest failing reference, so every reference
    // the serial sweep would have reached still runs and the document-order
    // fold below reproduces the serial verdict byte-for-byte.
    taskgraph::TaskGraph graph;
    for (size_t i = 0; i < refs.size(); ++i) {
      graph.AddNode("xmldsig.reference#" + std::to_string(i),
                    [&outcomes, &process_reference, &refs, i]() -> Status {
                      outcomes[i] = process_reference(*refs[i]);
                      return outcomes[i].status;
                    });
    }
    taskgraph::TaskGraph::RunOptions run;
    run.pool = options.pool;
    run.fail_fast = true;
    // The verdict is re-derived from `outcomes` in document order below;
    // Run's return (the lowest failing node) is the same status by
    // construction.
    (void)graph.Run(run);
  }
  for (RefOutcome& outcome : outcomes) {
    if (!outcome.status.ok()) return outcome.status;
    info.reference_uris.push_back(outcome.verified.uri);
    info.references.push_back(std::move(outcome.verified));
  }
  if (options.metrics != nullptr) {
    options.metrics->GetCounter("xmldsig.references_verified")
        ->Add(info.references.size());
  }

  // See-what-is-signed policy over the resolved reference set.
  bool any_covers_root = false;
  for (const VerifiedReference& r : info.references) {
    if (r.covers_root) any_covers_root = true;
    if (!r.same_document || r.covers_root ||
        options.allowed_reference_roots.empty()) {
      continue;
    }
    bool allowed = false;
    for (const std::string& name : options.allowed_reference_roots) {
      if (r.resolved_name == name) {
        allowed = true;
        break;
      }
    }
    if (!allowed) {
      return Status::VerificationFailed(
          "reference '" + r.uri + "' resolved to disallowed element <" +
          r.resolved_name + "> at " + r.resolved_path +
          " (possible signature wrapping)");
    }
  }
  if (options.require_signed_root && !any_covers_root) {
    return Status::VerificationFailed(
        "policy requires a reference covering the document root, but none "
        "does (possible signature relocation)");
  }

  DISCSEC_ASSIGN_OR_RETURN(Bytes sig_value,
                           Base64Decode(sig_value_elem->TextContent()));

  const xml::Element* key_info =
      signature.FirstChildElementByLocalName("KeyInfo");
  if (key_info != nullptr) {
    const xml::Element* key_name =
        key_info->FirstChildElementByLocalName("KeyName");
    if (key_name != nullptr) info.key_name = key_name->TextContent();
  }
  DISCSEC_ASSIGN_OR_RETURN(
      ResolvedKey key, ResolveKey(key_info, signature_algorithm, options));
  info.signer_subject = key.signer_subject;

  // Signature value over canonical SignedInfo, streamed straight into the
  // MAC/digest so the canonical form is never materialized.
  obs::ScopedSpan si_span(options.tracer, "xmldsig.signed_info");
  si_span.SetAttr("algorithm", signature_algorithm);
  signed_info_c14n.tracer = options.tracer;
  if (key.is_hmac) {
    crypto::Hmac hmac(std::make_unique<crypto::Sha1>(), key.hmac_secret);
    crypto::HmacSink sink(&hmac);
    xml::CanonicalizeElement(*signed_info, signed_info_c14n, &sink);
    if (!ConstantTimeEquals(hmac.Finalize(), sig_value)) {
      return Status::VerificationFailed("HMAC signature mismatch");
    }
  } else {
    std::string digest_uri;
    if (signature_algorithm == crypto::kAlgRsaSha1) {
      digest_uri = crypto::kAlgSha1;
    } else if (signature_algorithm == crypto::kAlgRsaSha256) {
      digest_uri = crypto::kAlgSha256;
    } else {
      return Status::Unsupported("signature algorithm: " +
                                 signature_algorithm);
    }
    DISCSEC_ASSIGN_OR_RETURN(auto digest, crypto::MakeDigest(digest_uri));
    crypto::DigestSink sink(digest.get());
    xml::CanonicalizeElement(*signed_info, signed_info_c14n, &sink);
    DISCSEC_RETURN_IF_ERROR(crypto::RsaVerifyDigest(
        key.rsa, digest_uri, digest->Finalize(), sig_value));
  }
  return info;
}

Result<VerifyInfo> Verifier::VerifyFirstSignature(
    const xml::Document& doc, const VerifyOptions& options) {
  auto signatures = FindSignatures(doc.root());
  if (signatures.empty()) {
    return Status::NotFound("document contains no ds:Signature");
  }
  return Verify(&doc, *signatures.front(), options);
}

}  // namespace xmldsig
}  // namespace discsec
