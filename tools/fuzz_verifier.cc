// Deterministic structure-aware fuzzer for the parse -> verify pipeline.
//
// Each iteration builds a random signed document (enveloped or detached,
// RSA or HMAC), applies structure-aware mutations to the serialized wire
// form, and feeds the bytes through the parser and the signature verifier.
// Three properties are enforced:
//
//   1. No crash / hang / sanitizer report on any input (run under
//      ASan/UBSan in CI).
//   2. The parser's resource limits hold: parsing either succeeds or fails
//      with a Status — and a second parse of anything that parsed is stable.
//   3. No tamper is accepted: when a mutated document still verifies, the
//      canonical form of every verified reference target must be identical
//      to the pristine document's (mutations confined to unsigned regions
//      or the signature's own KeyInfo are the only acceptable survivors).
//
// Fully seeded: `--seed N --iterations M` reproduces a run bit-for-bit.
// On a property violation the offending document and its provenance are
// printed and the process exits 1.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "crypto/algorithms.h"
#include "crypto/rsa.h"
#include "xml/c14n.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/signer.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace {

/// Bounded random well-formed document with Id attributes — the shape the
/// player's cluster schema exercises (nested parts, ids, namespaces).
class DocGenerator {
 public:
  explicit DocGenerator(Rng* rng) : rng_(rng) {}

  std::string Generate() {
    next_id_ = 0;
    std::string out;
    Emit(&out, 3);
    return out;
  }

 private:
  std::string Name() {
    static const char* kNames[] = {"cluster", "track", "manifest", "markup",
                                   "code",    "script", "item",    "ns1:ext"};
    return kNames[rng_->NextBelow(8)];
  }

  void Emit(std::string* out, int depth) {
    std::string name = Name();
    *out += "<" + name;
    if (name.rfind("ns1:", 0) == 0) *out += " xmlns:ns1=\"urn:ext\"";
    if (rng_->NextBelow(2) == 0) {
      *out += " Id=\"id-" + std::to_string(next_id_++) + "\"";
    }
    size_t attrs = rng_->NextBelow(3);
    for (size_t i = 0; i < attrs; ++i) {
      *out += " a" + std::to_string(i) + "=\"v" +
              std::to_string(rng_->NextBelow(100)) + "\"";
    }
    size_t children = depth > 0 ? rng_->NextBelow(4) : 0;
    if (children == 0) {
      *out += rng_->NextBelow(2) == 0 ? "/>" : (">x</" + name + ">");
      return;
    }
    *out += ">";
    for (size_t i = 0; i < children; ++i) {
      if (rng_->NextBelow(3) == 0) {
        *out += "text" + std::to_string(rng_->NextBelow(10));
      } else {
        Emit(out, depth - 1);
      }
    }
    *out += "</" + name + ">";
  }

  Rng* rng_;
  size_t next_id_ = 0;
};

/// Points the first Reference after `open_tag` (the start of the
/// signature's own ds:Signature or ds:SignedInfo tag) at that element,
/// giving it an Id when it has none. With the enveloped-signature
/// transform kept, the reference names a target the transform leaves out.
void RetargetReferenceAt(std::string* wire, std::string_view open_tag) {
  size_t open = wire->find(open_tag);
  if (open == std::string::npos) return;
  size_t tag_end = wire->find('>', open);
  if (tag_end == std::string::npos) return;
  std::string id = "fz-own";
  size_t id_pos = wire->find(" Id=\"", open);
  if (id_pos != std::string::npos && id_pos < tag_end) {
    size_t id_end = wire->find('"', id_pos + 5);
    if (id_end == std::string::npos) return;
    id = wire->substr(id_pos + 5, id_end - id_pos - 5);
  } else {
    wire->insert(open + open_tag.size(), " Id=\"" + id + "\"");
  }
  size_t uri = wire->find("URI=\"", open);
  if (uri == std::string::npos) return;
  size_t uri_end = wire->find('"', uri + 5);
  if (uri_end == std::string::npos) return;
  wire->replace(uri + 5, uri_end - uri - 5, "#" + id);
}

/// One structure-aware mutation of the wire bytes. The menu mixes generic
/// byte noise with XML-shaped edits that keep documents well-formed often
/// enough to reach the verifier (plain byte noise almost always dies in
/// the parser).
void Mutate(std::string* wire, Rng* rng) {
  if (wire->empty()) return;
  switch (rng->NextBelow(10)) {
    case 0: {  // byte flip
      (*wire)[rng->NextBelow(wire->size())] =
          static_cast<char>(rng->NextUint64());
      break;
    }
    case 1: {  // delete a short span
      size_t pos = rng->NextBelow(wire->size());
      wire->erase(pos, 1 + rng->NextBelow(8));
      break;
    }
    case 2: {  // insert printable noise
      size_t pos = rng->NextBelow(wire->size());
      wire->insert(pos, 1, static_cast<char>(' ' + rng->NextBelow(95)));
      break;
    }
    case 3: {  // splice: copy a random substring elsewhere (tag duplication)
      size_t from = rng->NextBelow(wire->size());
      size_t len = 1 + rng->NextBelow(40);
      std::string chunk = wire->substr(from, len);
      wire->insert(rng->NextBelow(wire->size()), chunk);
      break;
    }
    case 4: {  // duplicate-ID wrapping probe: redeclare an existing Id
      size_t id_pos = wire->find("Id=\"");
      if (id_pos == std::string::npos) break;
      size_t end = wire->find('"', id_pos + 4);
      if (end == std::string::npos) break;
      std::string id = wire->substr(id_pos + 4, end - id_pos - 4);
      size_t root_end = wire->find('>');
      if (root_end == std::string::npos) break;
      wire->insert(root_end + 1, "<decoy Id=\"" + id + "\"/>");
      break;
    }
    case 5: {  // nesting run at a random tag boundary
      size_t gt = wire->find('>', rng->NextBelow(wire->size()));
      if (gt == std::string::npos) break;
      size_t levels = 1 + rng->NextBelow(32);
      std::string open, close;
      for (size_t i = 0; i < levels; ++i) {
        open += "<z>";
        close += "</z>";
      }
      wire->insert(gt + 1, open + close);
      break;
    }
    case 6: {  // entity/character-reference run
      size_t gt = wire->find('>', rng->NextBelow(wire->size()));
      if (gt == std::string::npos) break;
      std::string run;
      size_t refs = 1 + rng->NextBelow(64);
      for (size_t i = 0; i < refs; ++i) run += "&#65;";
      wire->insert(gt + 1, run);
      break;
    }
    case 7: {  // corrupt a stored digest or signature value
      size_t pos = wire->find(rng->NextBelow(2) == 0 ? "DigestValue>"
                                                     : "SignatureValue>");
      if (pos == std::string::npos || pos + 13 >= wire->size()) break;
      size_t target = pos + 12 + 1 + rng->NextBelow(8);
      if (target >= wire->size()) break;
      (*wire)[target] = (*wire)[target] == 'A' ? 'B' : 'A';
      break;
    }
    case 8: {  // case-toggle an attribute name (Id= -> id= confusion)
      size_t pos = wire->find("Id=\"");
      if (pos == std::string::npos) break;
      (*wire)[pos] = 'i';
      break;
    }
    case 9: {  // retarget a Reference at its own Signature or SignedInfo
      RetargetReferenceAt(wire, rng->NextBelow(2) == 0 ? "<ds:Signature "
                                                       : "<ds:SignedInfo");
      break;
    }
  }
}

/// Strips every ds:Signature element so enveloped-signed content can be
/// compared between pristine and mutated documents.
void StripSignatures(xml::Document* doc) {
  for (xml::Element* sig :
       xmldsig::Verifier::FindSignatures(doc->root())) {
    if (sig->parent() != nullptr) sig->parent()->RemoveChild(sig);
  }
}

struct Violation {
  std::string what;
  std::string detail;
};

/// The tamper oracle: a verified mutated document must sign-cover content
/// canonically identical to the pristine document's.
bool CheckNoTamperAccepted(const xml::Document& pristine,
                           xml::Document* mutated,
                           const xmldsig::VerifyInfo& info,
                           Violation* violation) {
  for (const xmldsig::VerifiedReference& ref : info.references) {
    if (!ref.same_document) continue;
    if (ref.covers_root) {
      xml::Document a = pristine.Clone();
      xml::Document b = mutated->Clone();
      StripSignatures(&a);
      StripSignatures(&b);
      if (xml::Canonicalize(a) != xml::Canonicalize(b)) {
        violation->what = "root-covering reference verified over changed "
                          "content";
        violation->detail = ref.uri;
        return false;
      }
      continue;
    }
    if (ref.uri.size() < 2 || ref.uri[0] != '#') continue;
    std::string id = ref.uri.substr(1);
    auto original = pristine.FindByIdStrict(id);
    auto current = mutated->FindByIdStrict(id);
    if (!original.ok() || !current.ok()) {
      violation->what = "verified reference target not strictly resolvable";
      violation->detail = ref.uri;
      return false;
    }
    if (xml::CanonicalizeElement(*original.value()) !=
        xml::CanonicalizeElement(*current.value())) {
      violation->what = "detached reference verified over changed content";
      violation->detail = ref.uri;
      return false;
    }
  }
  return true;
}

struct Stats {
  uint64_t iterations = 0;
  uint64_t parse_failures = 0;
  uint64_t resource_rejections = 0;
  uint64_t verify_failures = 0;
  uint64_t benign_survivals = 0;
};

int Run(uint64_t seed, uint64_t iterations, bool verbose) {
  Rng rng(seed);
  // One RSA keypair for the whole run: keygen dominates otherwise.
  crypto::RsaKeyPair keys = crypto::RsaGenerateKeyPair(512, &rng).value();
  Bytes hmac_secret = rng.NextBytes(20);

  Stats stats;
  for (uint64_t iter = 0; iter < iterations; ++iter) {
    DocGenerator gen(&rng);
    auto doc = xml::Parse(gen.Generate()).value();

    // Vary the signing shape: enveloped over the root, or detached over a
    // random Id-carrying element; RSA-SHA1/SHA256 or HMAC.
    bool hmac = rng.NextBelow(4) == 0;
    xmldsig::KeyInfoSpec ki;
    ki.include_key_value = !hmac;
    xmldsig::SigningKey key =
        hmac ? xmldsig::SigningKey::HmacSecret(hmac_secret)
             : xmldsig::SigningKey::Rsa(keys.private_key,
                                        rng.NextBelow(2) == 0
                                            ? crypto::kAlgRsaSha1
                                            : crypto::kAlgRsaSha256);
    xmldsig::Signer signer(std::move(key), ki);

    std::vector<xml::Element*> id_elements;
    doc.root()->ForEachElement([&](xml::Element* e) {
      if (e->GetAttribute("Id") != nullptr) id_elements.push_back(e);
    });
    bool detached = !id_elements.empty() && rng.NextBelow(2) == 0;
    Status signed_ok = Status::OK();
    if (detached) {
      xml::Element* target = id_elements[rng.NextBelow(id_elements.size())];
      signed_ok = signer
                      .SignDetached(&doc, target, *target->GetAttribute("Id"),
                                    doc.root())
                      .status();
    } else {
      signed_ok = signer.SignEnveloped(&doc, doc.root()).status();
    }
    if (!signed_ok.ok()) continue;  // e.g. detached target id mismatch

    const std::string wire = xml::Serialize(doc);
    const xml::Document pristine = doc.Clone();

    std::string mutated = wire;
    size_t rounds = 1 + rng.NextBelow(3);
    for (size_t m = 0; m < rounds; ++m) Mutate(&mutated, &rng);

    ++stats.iterations;
    // Tight limits on a fraction of runs so the ResourceExhausted paths
    // are exercised by the nesting/entity mutators.
    xml::ParseOptions limits;
    if (rng.NextBelow(4) == 0) {
      limits.max_depth = 16;
      limits.max_entity_output = 64;
      limits.max_attributes = 16;
    }
    auto parsed = xml::Parse(mutated, limits);
    if (!parsed.ok()) {
      ++stats.parse_failures;
      if (parsed.status().IsResourceExhausted()) {
        ++stats.resource_rejections;
      }
      // Property 2: a rejected parse is stable (same status on re-parse).
      auto again = xml::Parse(mutated, limits);
      if (again.ok() ||
          again.status().code() != parsed.status().code()) {
        std::fprintf(stderr,
                     "VIOLATION: unstable parse at seed=%llu iter=%llu\n",
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(iter));
        std::fprintf(stderr, "--- input ---\n%s\n", mutated.c_str());
        return 1;
      }
      continue;
    }

    xmldsig::VerifyOptions options;
    options.allow_bare_key_value = true;
    if (hmac) options.hmac_secret = hmac_secret;
    options.parse_options = limits;
    auto result =
        xmldsig::Verifier::VerifyFirstSignature(parsed.value(), options);
    if (!result.ok()) {
      ++stats.verify_failures;
      continue;
    }

    Violation violation;
    if (!CheckNoTamperAccepted(pristine, &parsed.value(), result.value(),
                               &violation)) {
      std::fprintf(stderr,
                   "VIOLATION: %s (%s) at seed=%llu iter=%llu\n",
                   violation.what.c_str(), violation.detail.c_str(),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(iter));
      std::fprintf(stderr, "--- pristine ---\n%s\n--- mutated ---\n%s\n",
                   wire.c_str(), mutated.c_str());
      return 1;
    }
    ++stats.benign_survivals;
    if (verbose) {
      std::fprintf(stderr, "iter %llu: benign survival\n",
                   static_cast<unsigned long long>(iter));
    }
  }

  std::printf(
      "fuzz_verifier: %llu iterations, %llu parse failures "
      "(%llu resource-limit), %llu verify failures, %llu benign "
      "survivals, 0 violations\n",
      static_cast<unsigned long long>(stats.iterations),
      static_cast<unsigned long long>(stats.parse_failures),
      static_cast<unsigned long long>(stats.resource_rejections),
      static_cast<unsigned long long>(stats.verify_failures),
      static_cast<unsigned long long>(stats.benign_survivals));
  return 0;
}

}  // namespace
}  // namespace discsec

int main(int argc, char** argv) {
  uint64_t seed = 20050915;
  uint64_t iterations = 2000;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--iterations N] [--verbose]\n",
                   argv[0]);
      return 2;
    }
  }
  return discsec::Run(seed, iterations, verbose);
}
