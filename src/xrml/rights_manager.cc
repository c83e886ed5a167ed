#include "xrml/rights_manager.h"

#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/signer.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace xrml {

Result<std::string> IssueSignedLicense(
    const License& license, const crypto::RsaPrivateKey& issuer_key,
    const std::vector<pki::Certificate>& issuer_chain) {
  xml::Document doc = xml::Document::WithRoot(license.ToXml());
  xmldsig::KeyInfoSpec key_info;
  key_info.certificate_chain = issuer_chain;
  xmldsig::Signer signer(xmldsig::SigningKey::Rsa(issuer_key), key_info);
  DISCSEC_RETURN_IF_ERROR(signer.SignEnveloped(&doc, doc.root()).status());
  xml::SerializeOptions options;
  options.xml_declaration = false;
  return xml::Serialize(doc, options);
}

Status RightsManager::InstallLicense(const std::string& signed_license_xml) {
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc,
                           xml::Parse(signed_license_xml));
  xmldsig::VerifyOptions options;
  options.cert_store = trust_;
  options.now = now_;
  // A license signature must cover the whole license body; a signature over
  // an attacker-chosen fragment leaves its siblings mutable.
  options.require_signed_root = true;
  DISCSEC_RETURN_IF_ERROR(
      xmldsig::Verifier::VerifyFirstSignature(doc, options)
          .status()
          .WithContext("license signature"));
  xml::IdRegistry ids(doc);
  if (ids.HasDuplicates()) {
    return Status::VerificationFailed(
        "duplicate Id '" + ids.duplicate_ids().front() +
        "' in license body (duplicate-ID wrapping)");
  }
  DISCSEC_ASSIGN_OR_RETURN(License license, License::FromXml(*doc.root()));
  return InstallUnsigned(license);
}

Status RightsManager::InstallUnsigned(const License& license) {
  if (license.license_id.empty()) {
    return Status::InvalidArgument("license needs an id");
  }
  std::lock_guard<std::mutex> lock(mu_);
  licenses_.push_back(license);
  return Status::OK();
}

namespace {

bool PrincipalMatches(const std::string& pattern,
                      const std::string& principal) {
  return pattern == "*" || pattern == principal;
}

bool ResourceMatches(const std::string& pattern,
                     const std::string& resource) {
  return pattern == "*" || pattern == resource;
}

}  // namespace

const Grant* RightsManager::FindGrant(Right right,
                                      const std::string& resource,
                                      const ExerciseContext& context,
                                      const License** license_out,
                                      size_t* index_out) const {
  for (const License& license : licenses_) {
    for (size_t i = 0; i < license.grants.size(); ++i) {
      const Grant& grant = license.grants[i];
      if (grant.right != right) continue;
      if (!PrincipalMatches(grant.key_holder, context.principal)) continue;
      if (!ResourceMatches(grant.resource, resource)) continue;
      const Conditions& c = grant.conditions;
      if (c.not_before && context.now < *c.not_before) continue;
      if (c.not_after && context.now > *c.not_after) continue;
      if (!c.territories.empty()) {
        bool in_territory = false;
        for (const std::string& code : c.territories) {
          if (code == context.territory) {
            in_territory = true;
            break;
          }
        }
        if (!in_territory) continue;
      }
      if (c.exercise_limit) {
        auto it = uses_.find({license.license_id, i});
        uint32_t used = it == uses_.end() ? 0 : it->second;
        if (used >= *c.exercise_limit) continue;
      }
      *license_out = &license;
      *index_out = i;
      return &grant;
    }
  }
  return nullptr;
}

bool RightsManager::IsPermitted(Right right, const std::string& resource,
                                const ExerciseContext& context) const {
  const License* license = nullptr;
  size_t index = 0;
  std::lock_guard<std::mutex> lock(mu_);
  return FindGrant(right, resource, context, &license, &index) != nullptr;
}

Status RightsManager::Exercise(Right right, const std::string& resource,
                               const ExerciseContext& context) {
  std::lock_guard<std::mutex> lock(mu_);
  const License* license = nullptr;
  size_t index = 0;
  const Grant* grant = FindGrant(right, resource, context, &license, &index);
  if (grant == nullptr) {
    return Status::PermissionDenied(
        std::string("no license grants '") + RightName(right) + "' on '" +
        resource + "' to " + context.principal);
  }
  if (grant->conditions.exercise_limit) {
    ++uses_[{license->license_id, index}];
  }
  return Status::OK();
}

uint32_t RightsManager::UsesRecorded(const std::string& license_id,
                                     size_t grant_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = uses_.find({license_id, grant_index});
  return it == uses_.end() ? 0 : it->second;
}

}  // namespace xrml
}  // namespace discsec
