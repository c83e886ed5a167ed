#include "xmldsig/transforms.h"

#include <optional>

#include "common/base64.h"
#include "common/strings.h"
#include "crypto/algorithms.h"
#include "xml/c14n.h"
#include "xml/parser.h"
#include "xmldsig/constants.h"

namespace discsec {
namespace xmldsig {

std::vector<size_t> ComputePath(const xml::Element* e) {
  std::vector<size_t> path;
  const xml::Element* cur = e;
  while (cur->parent() != nullptr) {
    path.push_back(cur->parent()->IndexOfChild(cur));
    cur = cur->parent();
  }
  std::reverse(path.begin(), path.end());
  return path;
}

xml::Element* ResolvePath(const xml::Document& doc,
                          const std::vector<size_t>& path) {
  xml::Element* cur = doc.root();
  for (size_t idx : path) {
    if (cur == nullptr || idx >= cur->ChildCount()) return nullptr;
    xml::Node* child = cur->ChildAt(idx);
    if (!child->IsElement()) return nullptr;
    cur = static_cast<xml::Element*>(child);
  }
  return cur;
}

namespace {

/// The transform pipeline state. A node-set is the subtree of `doc` rooted
/// at `apex` (the whole document when null) minus the subtree rooted at
/// `omitted` (the enveloped signature; null when nothing is omitted). `doc`
/// is the caller's parsed document, read and never written, until a
/// transform needs a document of its own: a re-parse of octets, or the
/// Decryption Transform's private copy. Either lives in `working`. Octet
/// state holds `octets` instead.
struct PipelineState {
  const xml::Document* doc = nullptr;
  const xml::Element* apex = nullptr;
  const xml::Element* omitted = nullptr;
  std::optional<xml::Document> working;
  Bytes octets;
  bool is_octets = false;
};

/// Switches `state` to octet form, dropping the node-set.
void SetOctets(PipelineState* state, Bytes octets) {
  state->octets = std::move(octets);
  state->is_octets = true;
  state->doc = nullptr;
  state->apex = nullptr;
  state->omitted = nullptr;
  state->working.reset();
}

/// Streams the current node-set's canonical form into `sink` (no-op
/// conversion for octet state: the buffered octets are appended as-is).
void CanonicalizeStateTo(const PipelineState& state,
                         const xml::C14NOptions& options, ByteSink* sink) {
  if (state.is_octets) {
    sink->Append(state.octets);
    return;
  }
  if (state.apex != nullptr) {
    xml::CanonicalizeElement(*state.apex, options, sink, state.omitted);
  } else {
    xml::Canonicalize(*state.doc, options, sink, state.omitted);
  }
}

/// Buffering fallback: a later transform needs the full octet stream, so
/// the canonical form must be materialized here.
Status ToOctets(PipelineState* state, const xml::C14NOptions& options) {
  if (state->is_octets) return Status::OK();
  xml::internal::NoteBufferedCanonicalization();
  Bytes canonical;
  BytesSink sink(&canonical);
  CanonicalizeStateTo(*state, options, &sink);
  SetOctets(state, std::move(canonical));
  return Status::OK();
}

/// Reads the ec:InclusiveNamespaces PrefixList parameter of an exclusive
/// canonicalization transform (space-separated prefixes; "#default" names
/// the default namespace).
std::vector<std::string> ReadInclusivePrefixes(const xml::Element& transform) {
  std::vector<std::string> out;
  const xml::Element* inclusive =
      transform.FirstChildElementByLocalName("InclusiveNamespaces");
  if (inclusive == nullptr) return out;
  const std::string* list = inclusive->GetAttribute("PrefixList");
  if (list == nullptr) return out;
  for (const std::string& prefix : SplitString(*list, ' ')) {
    if (!prefix.empty()) out.push_back(prefix);
  }
  return out;
}

Status ToNodeSet(PipelineState* state, const xml::ParseOptions& options) {
  if (!state->is_octets) return Status::OK();
  // Per XML-DSig, a transform requiring a node-set parses the octet stream
  // — under the same input limits as the top-level document parse.
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc,
                           xml::Parse(ToString(state->octets), options));
  state->working = std::move(doc);
  state->doc = &*state->working;
  state->apex = nullptr;
  state->omitted = nullptr;
  state->is_octets = false;
  state->octets.clear();
  return Status::OK();
}

/// The enveloped-signature transform omits the signature's subtree from
/// the node-set; nothing is removed from the document. A reference target
/// inside that subtree would leave nothing to digest, so it is rejected.
Status ApplyEnvelopedSignature(PipelineState* state,
                               const ReferenceContext& ctx) {
  DISCSEC_RETURN_IF_ERROR(ToNodeSet(state, ctx.parse_options));
  if (ctx.signature_path.empty()) {
    return Status::InvalidArgument(
        "enveloped-signature transform without an in-document signature");
  }
  const xml::Element* sig = ResolvePath(*state->doc, ctx.signature_path);
  if (sig == nullptr) {
    return Status::Corruption(
        "enveloped-signature: signature element not found in the document");
  }
  if (sig->parent() == nullptr) {
    return Status::InvalidArgument(
        "enveloped-signature: signature is the document root");
  }
  for (const xml::Element* e = state->apex; e != nullptr; e = e->parent()) {
    if (e == sig) {
      return Status::VerificationFailed(
          "enveloped-signature: reference target lies inside the omitted "
          "signature");
    }
  }
  state->omitted = sig;
  return Status::OK();
}

/// Appends the character data of `e`'s subtree, skipping `omitted`.
void AppendNodeSetText(const xml::Element& e, const xml::Element* omitted,
                       std::string* out) {
  for (const auto& child : e.children()) {
    if (child->IsText()) {
      *out += static_cast<const xml::Text*>(child.get())->data();
    } else if (child->IsElement() && child.get() != omitted) {
      AppendNodeSetText(*static_cast<const xml::Element*>(child.get()),
                        omitted, out);
    }
  }
}

Status ApplyBase64(PipelineState* state) {
  std::string text;
  if (state->is_octets) {
    text = ToString(state->octets);
  } else {
    const xml::Element* scope =
        state->apex != nullptr ? state->apex : state->doc->root();
    if (scope != nullptr) AppendNodeSetText(*scope, state->omitted, &text);
  }
  DISCSEC_ASSIGN_OR_RETURN(Bytes decoded, Base64Decode(text));
  SetOctets(state, std::move(decoded));
  return Status::OK();
}

/// True when the subtree at `e`, less `omitted`, holds an element named
/// EncryptedData: the only thing the Decryption Transform rewrites.
bool HoldsEncryptedData(const xml::Element& e, const xml::Element* omitted) {
  if (&e == omitted) return false;
  if (e.LocalName() == "EncryptedData") return true;
  for (const auto& child : e.children()) {
    if (child->IsElement() &&
        HoldsEncryptedData(*static_cast<const xml::Element*>(child.get()),
                           omitted)) {
      return true;
    }
  }
  return false;
}

/// The Decryption Transform rewrites ciphertext in place, so it runs on a
/// document of the pipeline's own: the caller's document is cloned the
/// first time (the only clone a reference ever makes), the omitted
/// signature is removed from that copy, and the apex is carried over by
/// its child-index path. A node-set without ciphertext, such as the one a
/// signer digests before encrypting, passes through with no copy and no
/// hook call.
Status ApplyDecryption(const xml::Element& transform, PipelineState* state,
                       const ReferenceContext& ctx) {
  if (!ctx.decrypt_hook) {
    return Status::Unsupported(
        "decryption transform requires a decrypt hook (player decryptor)");
  }
  DISCSEC_RETURN_IF_ERROR(ToNodeSet(state, ctx.parse_options));
  // Collect dcrpt:Except URIs ("#id" references naming EncryptedData
  // elements that must stay encrypted for digesting).
  std::vector<std::string> except_ids;
  for (const auto& child : transform.children()) {
    if (!child->IsElement()) continue;
    auto* e = static_cast<xml::Element*>(child.get());
    if (e->LocalName() != "Except") continue;
    const std::string* uri = e->GetAttribute("URI");
    if (uri == nullptr || uri->empty() || (*uri)[0] != '#') {
      return Status::ParseError("dcrpt:Except requires a #id URI");
    }
    except_ids.push_back(uri->substr(1));
  }
  // A target that is itself an EncryptedData would be replaced by its
  // plaintext, leaving the node-set without an apex.
  if (state->apex != nullptr && state->apex->LocalName() == "EncryptedData") {
    return Status::VerificationFailed(
        "decryption transform: reference target is itself an EncryptedData "
        "element");
  }
  const xml::Element* scope =
      state->apex != nullptr ? state->apex : state->doc->root();
  if (scope == nullptr || !HoldsEncryptedData(*scope, state->omitted)) {
    return Status::OK();
  }
  // The apex and the omitted signature are carried into the private
  // document by their child-index paths.
  std::vector<size_t> apex_path;
  if (state->apex != nullptr) apex_path = ComputePath(state->apex);
  std::vector<size_t> omitted_path;
  if (state->omitted != nullptr) omitted_path = ComputePath(state->omitted);
  if (!state->working.has_value()) {
    state->working = state->doc->Clone();
    state->doc = &*state->working;
  }
  xml::Document& working = *state->working;
  xml::Element* apex =
      state->apex != nullptr ? ResolvePath(working, apex_path) : nullptr;
  if (state->omitted != nullptr) {
    // The hook must not see, or decrypt, anything inside the omitted
    // signature, so it leaves the private copy. The apex lies outside it.
    xml::Element* sig = ResolvePath(working, omitted_path);
    sig->parent()->RemoveChild(sig);
    state->omitted = nullptr;
  }
  state->apex = apex;
  return ctx.decrypt_hook(&working, apex, except_ids);
}

}  // namespace

namespace {

/// True for the canonicalization transform algorithms, filling `options`.
bool ReadC14NTransform(const xml::Element& transform, const std::string& alg,
                       xml::C14NOptions* options) {
  if (alg == crypto::kAlgC14N || alg == crypto::kAlgC14NWithComments) {
    options->with_comments = (alg == crypto::kAlgC14NWithComments);
    return true;
  }
  if (alg == crypto::kAlgExcC14N || alg == crypto::kAlgExcC14NWithComments) {
    options->exclusive = true;
    options->with_comments = (alg == crypto::kAlgExcC14NWithComments);
    options->inclusive_prefixes = ReadInclusivePrefixes(transform);
    return true;
  }
  return false;
}

}  // namespace

Status ProcessReferenceTo(const xml::Element& reference,
                          const ReferenceContext& ctx, ByteSink* sink,
                          ReferenceResolution* resolution) {
  const std::string* uri_attr = reference.GetAttribute("URI");
  std::string uri = uri_attr != nullptr ? *uri_attr : std::string();

  PipelineState state;
  if (uri.empty() || uri[0] == '#') {
    if (ctx.document == nullptr) {
      return Status::InvalidArgument(
          "same-document reference without a document");
    }
    state.doc = ctx.document;
  }
  if (uri.empty()) {
    if (resolution != nullptr && state.doc->root() != nullptr) {
      resolution->same_document = true;
      resolution->covers_root = true;
      resolution->element_name = state.doc->root()->name();
      resolution->element_path = xml::ElementPath(state.doc->root());
    }
  } else if (uri[0] == '#') {
    // Strict resolution: a duplicate Id is the classic signature-wrapping
    // vector, so it is a hard verification failure, never a first-match.
    Result<xml::Element*> apex = state.doc->FindByIdStrict(uri.substr(1));
    if (!apex.ok()) {
      if (apex.status().IsNotFound()) {
        return Status::NotFound("reference target '" + uri + "' not found");
      }
      return Status::VerificationFailed("reference " +
                                        apex.status().message());
    }
    state.apex = apex.value();
    if (resolution != nullptr) {
      resolution->same_document = true;
      resolution->covers_root = (state.apex == state.doc->root());
      resolution->element_name = state.apex->name();
      resolution->element_path = xml::ElementPath(state.apex);
    }
  } else {
    if (!ctx.resolver) {
      return Status::NotFound("no resolver for external reference '" + uri +
                              "'");
    }
    DISCSEC_ASSIGN_OR_RETURN(state.octets, ctx.resolver(uri));
    state.is_octets = true;
  }

  // Collect the ds:Transform chain so the terminal transform is known:
  // only a canonicalization with transforms still after it must buffer.
  std::vector<const xml::Element*> chain;
  const xml::Element* transforms =
      reference.FirstChildElementByLocalName("Transforms");
  if (transforms != nullptr) {
    for (const auto& child : transforms->children()) {
      if (!child->IsElement()) continue;
      const auto* t = static_cast<const xml::Element*>(child.get());
      if (t->LocalName() == "Transform") chain.push_back(t);
    }
  }

  // Apply the chain in document order.
  for (size_t i = 0; i < chain.size(); ++i) {
    const xml::Element* t = chain[i];
    const std::string* alg = t->GetAttribute("Algorithm");
    if (alg == nullptr) {
      return Status::ParseError("Transform missing Algorithm attribute");
    }
    xml::C14NOptions c14n_options;
    c14n_options.tracer = ctx.parse_options.tracer;
    if (ReadC14NTransform(*t, *alg, &c14n_options)) {
      if (i + 1 == chain.size()) {
        // Terminal canonicalization: stream straight into the sink.
        CanonicalizeStateTo(state, c14n_options, sink);
        return Status::OK();
      }
      DISCSEC_RETURN_IF_ERROR(ToOctets(&state, c14n_options));
    } else if (*alg == crypto::kAlgEnvelopedSignature) {
      DISCSEC_RETURN_IF_ERROR(ApplyEnvelopedSignature(&state, ctx));
    } else if (*alg == crypto::kAlgBase64Transform) {
      DISCSEC_RETURN_IF_ERROR(ApplyBase64(&state));
    } else if (*alg == crypto::kAlgDecryptionTransform) {
      DISCSEC_RETURN_IF_ERROR(ApplyDecryption(*t, &state, ctx));
    } else {
      return Status::Unsupported("transform algorithm: " + *alg);
    }
  }

  // Implicit final canonicalization when still in node-set form; buffered
  // octet state (external URI, base64 output) is forwarded as-is.
  xml::C14NOptions final_c14n;
  final_c14n.tracer = ctx.parse_options.tracer;
  CanonicalizeStateTo(state, final_c14n, sink);
  return Status::OK();
}

Result<Bytes> ProcessReference(const xml::Element& reference,
                               const ReferenceContext& ctx) {
  Bytes out;
  BytesSink sink(&out);
  DISCSEC_RETURN_IF_ERROR(ProcessReferenceTo(reference, ctx, &sink));
  return out;
}

}  // namespace xmldsig
}  // namespace discsec
