#include "xmldsig/verifier.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/base64.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "crypto/algorithms.h"
#include "crypto/digest.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "pki/key_codec.h"
#include "xml/c14n.h"
#include "xml/parser.h"
#include "xml/stream_verify.h"
#include "xmldsig/constants.h"

namespace discsec {
namespace xmldsig {

/// Declared in transforms.h. What VerifyStream's scan pass substitutes for
/// a DOM: the signature's own path plus the Id → element index, all in
/// xmldsig::ComputePath / xml::ElementPath form.
struct StreamIndex {
  std::vector<size_t> signature_path;
  std::string root_name;
  std::string root_path_string;
  const std::unordered_map<std::string, xml::ScannedId>* ids = nullptr;
  /// The fused pass's speculative output: the whole document's canonical
  /// form (no comments) with the signature subtree omitted — exactly the
  /// reference octets of a [enveloped-signature, C14N] URI="" reference.
  /// References matching that plan append this buffer instead of walking
  /// the source again.
  const std::string* enveloped_c14n = nullptr;
};

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

/// What the streaming fast path will do for one Reference, decided fully
/// before any byte is emitted (fallback must leave the sink untouched).
struct StreamPlan {
  bool whole_document = false;  // URI "" (else "#id")
  std::string id;               // the fragment, for "#id"
  bool enveloped = false;
  bool with_comments = false;
};

bool IsPathPrefixOrEqual(const std::vector<size_t>& prefix,
                         const std::vector<size_t>& path) {
  if (prefix.size() > path.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), path.begin());
}

/// Streaming eligibility (DESIGN.md §14): same-document URI and a transform
/// chain of exactly [enveloped-signature]? then [inclusive C14N]? with
/// nothing after. Anything else — external URIs, exclusive C14N, base64,
/// decryption, mid-chain canonicalization, malformed Transform elements —
/// returns false and the DOM pipeline handles (or rejects) it, so the fast
/// path never has to reproduce an error it can avoid encountering.
bool PlanStreamReference(const xml::Element& ref, const ReferenceContext& ctx,
                         StreamPlan* plan) {
  if (ctx.document == nullptr && ctx.stream_index == nullptr) return false;
  const std::string* uri_attr = ref.GetAttribute("URI");
  std::string_view uri = uri_attr != nullptr ? *uri_attr : std::string_view();
  if (!uri.empty() && uri[0] != '#') return false;
  plan->whole_document = uri.empty();
  if (!plan->whole_document) plan->id = std::string(uri.substr(1));

  std::vector<std::string_view> algs;
  const xml::Element* transforms =
      ref.FirstChildElementByLocalName("Transforms");
  if (transforms != nullptr) {
    for (const auto& child : transforms->children()) {
      if (!child->IsElement()) continue;
      const auto* t = static_cast<const xml::Element*>(child.get());
      if (t->LocalName() != "Transform") continue;
      const std::string* alg = t->GetAttribute("Algorithm");
      if (alg == nullptr) return false;  // DOM path raises the ParseError
      algs.push_back(*alg);
    }
  }
  size_t i = 0;
  if (i < algs.size() && algs[i] == crypto::kAlgEnvelopedSignature) {
    plan->enveloped = true;
    ++i;
  }
  if (i < algs.size() && (algs[i] == crypto::kAlgC14N ||
                          algs[i] == crypto::kAlgC14NWithComments)) {
    plan->with_comments = (algs[i] == crypto::kAlgC14NWithComments);
    ++i;
  }
  if (i != algs.size()) return false;
  // Enveloped without an in-document signature is the DOM path's error.
  if (plan->enveloped && ctx.signature_path.empty()) return false;
  return true;
}

/// Runs one Reference through the streaming pipeline. Returns true when the
/// reference was handled (out_status holds the verdict, resolution is
/// filled on success); false means fall back to the DOM pipeline with the
/// sink guaranteed untouched. `id_registry` indexes the ORIGINAL document —
/// no clone exists on this path.
bool TryStreamReference(const xml::Element& ref, const ReferenceContext& ctx,
                        std::string_view source_text,
                        const xml::IdRegistry* id_registry, ByteSink* sink,
                        ReferenceResolution* resolution, Status* out_status) {
  StreamPlan plan;
  if (!PlanStreamReference(ref, ctx, &plan)) return false;

  std::vector<size_t> apex_path;
  xml::StreamingC14NOptions c14n;
  c14n.with_comments = plan.with_comments;
  if (plan.whole_document) {
    if (resolution != nullptr) {
      if (ctx.stream_index != nullptr) {
        resolution->same_document = true;
        resolution->covers_root = true;
        resolution->element_name = ctx.stream_index->root_name;
        resolution->element_path = ctx.stream_index->root_path_string;
      } else if (ctx.document->root() != nullptr) {
        resolution->same_document = true;
        resolution->covers_root = true;
        resolution->element_name = ctx.document->root()->name();
        resolution->element_path = xml::ElementPath(ctx.document->root());
      }
    }
  } else if (ctx.stream_index != nullptr) {
    // Wire-level path: the scan index answers Id lookups with the same
    // strictness and error strings as IdRegistry below.
    auto it = ctx.stream_index->ids->find(plan.id);
    if (it == ctx.stream_index->ids->end()) {
      *out_status =
          Status::NotFound("reference target '#" + plan.id + "' not found");
      return true;
    }
    if (it->second.count > 1) {
      *out_status = Status::VerificationFailed(
          "reference Id '" + plan.id + "' is ambiguous: declared by " +
          std::to_string(it->second.count) +
          " elements (duplicate-ID wrapping)");
      return true;
    }
    apex_path = it->second.path;
    // VerifyStream's pre-flight already rejected this shape; keep the
    // check so a `false` here can never reach the (absent) DOM pipeline.
    if (plan.enveloped && IsPathPrefixOrEqual(ctx.signature_path, apex_path)) {
      return false;
    }
    c14n.apex_path = &apex_path;
    if (resolution != nullptr) {
      resolution->same_document = true;
      resolution->covers_root = apex_path.empty();
      resolution->element_name = it->second.element_name;
      resolution->element_path = it->second.element_path;
    }
  } else {
    // Same strictness and error strings as the DOM pipeline
    // (transforms.cc): duplicate Ids are a hard failure, not first-match.
    Result<xml::Element*> apex = id_registry->Find(plan.id);
    if (!apex.ok()) {
      if (apex.status().IsNotFound()) {
        *out_status =
            Status::NotFound("reference target '#" + plan.id + "' not found");
      } else {
        *out_status =
            Status::VerificationFailed("reference " + apex.status().message());
      }
      return true;
    }
    apex_path = ComputePath(apex.value());
    // An apex at or inside the signature would be detached by the enveloped
    // transform — let the DOM pipeline define that edge case's behavior.
    if (plan.enveloped && IsPathPrefixOrEqual(ctx.signature_path, apex_path)) {
      return false;
    }
    c14n.apex_path = &apex_path;
    if (resolution != nullptr) {
      resolution->same_document = true;
      resolution->covers_root = (apex.value() == ctx.document->root());
      resolution->element_name = apex.value()->name();
      resolution->element_path = xml::ElementPath(apex.value());
    }
  }
  if (plan.enveloped) c14n.skip_path = &ctx.signature_path;
  // The one-pass shortcut: the fused scan already produced exactly these
  // octets (whole document, enveloped skip, no comments) — reuse them
  // instead of lexing the source a second time.
  if (ctx.stream_index != nullptr &&
      ctx.stream_index->enveloped_c14n != nullptr && plan.whole_document &&
      plan.enveloped && !plan.with_comments) {
    sink->Append(*ctx.stream_index->enveloped_c14n);
    *out_status = Status::OK();
    return true;
  }
  *out_status =
      xml::StreamCanonicalize(source_text, ctx.parse_options, c14n, sink);
  return true;
}

/// Escapes an attribute value for the synthetic wrapper element so it
/// round-trips the lexer's unescaped form exactly (whitespace as character
/// references, or attribute-value normalization would fold it to spaces).
std::string EscapeWrapAttr(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '"': out += "&quot;"; break;
      case '\t': out += "&#9;"; break;
      case '\n': out += "&#10;"; break;
      case '\r': out += "&#13;"; break;
      default: out.push_back(c);
    }
  }
  return out;
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
  return VerifyWithIndex(doc, signature, options, nullptr);
}

Result<VerifyInfo> Verifier::VerifyWithIndex(const xml::Document* doc,
                                             const xml::Element& signature,
                                             const VerifyOptions& options,
                                             const StreamIndex* index) {
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
  // Transforms may re-parse octet streams on pool workers; the bump arena
  // is single-threaded, so inner parses always allocate from the heap.
  ctx.parse_options.arena.reset();
  // The tracer rides ReferenceContext::parse_options into the transform
  // pipeline, so inner re-parses and canonicalizations emit child spans.
  if (ctx.parse_options.tracer == nullptr) {
    ctx.parse_options.tracer = options.tracer;
  }
  if (index != nullptr) {
    // Wire-level path: the signature element lives in a detached subtree
    // parse, so its path in the ORIGINAL document comes from the scan.
    ctx.stream_index = index;
    ctx.signature_path = index->signature_path;
  } else if (doc != nullptr && signature.parent() != nullptr) {
    ctx.signature_path = ComputePath(&signature);
  }

  // Streaming fast path (DESIGN.md §14): one Id index over the ORIGINAL
  // document, shared read-only by every reference (and pool worker) —
  // the DOM pipeline instead builds one registry per reference clone.
  // The wire-level path resolves Ids from the scan index instead.
  std::optional<xml::IdRegistry> stream_ids;
  if (index == nullptr && !options.source_text.empty() && doc != nullptr) {
    stream_ids.emplace(*doc);
  }
  const bool stream_capable = stream_ids.has_value() || index != nullptr;

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
  // targets clone the source document into a private working copy and the
  // shared context is read-only, so references fan out over the pool and
  // join before the SignedInfo signature check below. With a null pool
  // this degrades to the serial loop. The first failing reference in
  // document order decides the error either way, so parallel and serial
  // verification are observably identical.
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
    bool streamed =
        stream_capable &&
        TryStreamReference(ref, ctx, options.source_text,
                           stream_ids.has_value() ? &*stream_ids : nullptr,
                           &sink, &resolution, &out.status);
    ref_span.SetAttr("pipeline", streamed ? "streaming" : "dom");
    if (!streamed) {
      out.status = ProcessReferenceTo(ref, ctx, &sink, &resolution);
    }
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

Result<VerifyInfo> Verifier::VerifyStream(std::string_view source,
                                          const VerifyOptions& options) {
  // The classic pipeline, for every shape the scan index cannot carry.
  // Running it from here keeps VerifyStream a drop-in for parse+verify:
  // same statuses, same VerifyInfo, different cost.
  auto full_pipeline = [&]() -> Result<VerifyInfo> {
    DISCSEC_ASSIGN_OR_RETURN(xml::Document doc,
                             xml::Parse(source, options.parse_options));
    VerifyOptions with_text = options;
    with_text.source_text = source;
    return VerifyFirstSignature(doc, with_text);
  };

  // ONE pass over the wire bytes: scan (signature location, Id index,
  // parse-error verdict) and speculative canonicalization fused over a
  // single lexer run — see ScanAndCanonicalize.
  std::string enveloped_c14n;
  Result<xml::SignatureScanResult> scan = xml::ScanAndCanonicalize(
      source, options.parse_options, kDsNamespace, "Signature",
      &enveloped_c14n);
  // Scan errors ARE the DOM parser's errors (the lexer reproduces them
  // token-for-token), so malformed input fails here exactly as it would
  // have failed in xml::Parse.
  if (!scan.ok()) return scan.status();
  if (scan.value().signatures.empty()) {
    return Status::NotFound("document contains no ds:Signature");
  }
  const xml::ScannedSignature& target = scan.value().signatures.front();

  // Parse ONLY the signature subtree — a few KB regardless of document
  // size — wrapped in a synthetic element that re-establishes the
  // namespace and xml:* environment its ancestors provided, so prefix
  // resolution and C14N inheritance behave as in the original document.
  std::string wrapped;
  wrapped.reserve(target.end - target.begin + 256);
  wrapped += "<stream-verify-wrap";
  for (const std::vector<xml::Attribute>* attrs :
       {&target.ns_in_scope, &target.xml_attrs}) {
    for (const xml::Attribute& attr : *attrs) {
      wrapped += ' ';
      wrapped += attr.name;
      wrapped += "=\"";
      wrapped += EscapeWrapAttr(attr.value);
      wrapped += '"';
    }
  }
  wrapped += '>';
  wrapped.append(source.substr(target.begin, target.end - target.begin));
  wrapped += "</stream-verify-wrap>";
  xml::ParseOptions subtree_options = options.parse_options;
  subtree_options.arena.reset();
  Result<xml::Document> subtree = xml::Parse(wrapped, subtree_options);
  if (!subtree.ok()) return full_pipeline();
  xml::Element* sig_elem = nullptr;
  if (subtree.value().root() != nullptr) {
    for (const auto& child : subtree.value().root()->children()) {
      if (child->IsElement()) {
        sig_elem = static_cast<xml::Element*>(child.get());
        break;
      }
    }
  }
  if (sig_elem == nullptr || !IsDsElement(*sig_elem, "Signature")) {
    return full_pipeline();
  }

  StreamIndex index;
  index.signature_path = target.path;
  index.root_name = scan.value().root_name;
  index.root_path_string = "/" + scan.value().root_name;
  index.enveloped_c14n = &enveloped_c14n;

  // Pre-flight: every Reference must be fully handled by the streaming
  // pipeline, because VerifyWithIndex has no DOM to fall back to. Exotic
  // transform chains, external URIs, or an enveloped reference whose
  // target sits at/inside the signature rerun the classic pipeline.
  ReferenceContext plan_ctx;
  plan_ctx.stream_index = &index;
  plan_ctx.signature_path = index.signature_path;
  std::vector<StreamPlan> plans;
  const xml::Element* signed_info =
      sig_elem->FirstChildElementByLocalName("SignedInfo");
  if (signed_info != nullptr) {
    for (const auto& child : signed_info->children()) {
      if (!child->IsElement()) continue;
      const auto* ref = static_cast<const xml::Element*>(child.get());
      if (ref->LocalName() != "Reference") continue;
      StreamPlan plan;
      if (!PlanStreamReference(*ref, plan_ctx, &plan)) return full_pipeline();
      plans.push_back(std::move(plan));
    }
  }

  // The fused pass runs id-free (indexing thousands of unrelated Id
  // attributes costs more than a second pass); #id references trigger one
  // dedicated scan for exactly the ids SignedInfo names.
  xml::SignatureScanResult id_scan;
  std::vector<std::string> wanted_ids;
  for (const StreamPlan& plan : plans) {
    if (!plan.whole_document) wanted_ids.push_back(plan.id);
  }
  if (!wanted_ids.empty()) {
    Result<xml::SignatureScanResult> ids =
        xml::ScanForIds(source, options.parse_options, wanted_ids);
    if (!ids.ok()) return ids.status();  // unreachable: first scan succeeded
    id_scan = std::move(ids.value());
  }
  index.ids = &id_scan.ids;
  for (const StreamPlan& plan : plans) {
    if (plan.whole_document || !plan.enveloped) continue;
    // An enveloped reference whose target sits at/inside the signature is
    // the DOM pipeline's edge case to define.
    auto it = id_scan.ids.find(plan.id);
    if (it != id_scan.ids.end() && it->second.count == 1 &&
        IsPathPrefixOrEqual(index.signature_path, it->second.path)) {
      return full_pipeline();
    }
  }

  VerifyOptions stream_options = options;
  stream_options.source_text = source;
  return VerifyWithIndex(nullptr, *sig_elem, stream_options, &index);
}

}  // namespace xmldsig
}  // namespace discsec
