#ifndef DISCSEC_XRML_RIGHTS_MANAGER_H_
#define DISCSEC_XRML_RIGHTS_MANAGER_H_

#include <map>
#include <mutex>

#include "crypto/rsa.h"
#include "pki/cert_store.h"
#include "xrml/license.h"

namespace discsec {
namespace xrml {

/// Signs licenses on the issuer side (an XML-DSig enveloped signature over
/// the license document, carrying the issuer's certificate chain).
Result<std::string> IssueSignedLicense(
    const License& license, const crypto::RsaPrivateKey& issuer_key,
    const std::vector<pki::Certificate>& issuer_chain);

/// The player-side rights store and decision point. Licenses are only
/// admitted after their signature validates against the trust store; the
/// evaluator then answers "may `principal` exercise `right` on `resource`
/// now?", enforcing validity windows, territories and (stateful) exercise
/// limits.
///
/// Thread-safe: the license store and exercise counters are mutex-guarded,
/// so the parallel per-track verification in player::PlayDisc may exercise
/// rights for distinct tracks concurrently. Exercise-limit accounting is
/// exact under concurrency — each successful Exercise consumes exactly one
/// use — though which of several racing exercisers gets the last use of a
/// nearly-exhausted grant depends on the schedule.
class RightsManager {
 public:
  RightsManager(const pki::CertStore* trust, int64_t now)
      : trust_(trust), now_(now) {}

  /// Parses, signature-checks and installs a signed license. Rejects
  /// licenses whose signature does not anchor in the trust store, whose
  /// signature does not cover the license root (fragment signatures are a
  /// relocation vector), or whose body declares duplicate Ids.
  Status InstallLicense(const std::string& signed_license_xml);

  /// Installs without signature checking (e.g. a license mastered onto an
  /// authenticated disc).
  Status InstallUnsigned(const License& license);

  size_t LicenseCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return licenses_.size();
  }

  /// Whether any installed grant permits the exercise. On success the
  /// exercise is *counted* against any exercise-limited grant used.
  Status Exercise(Right right, const std::string& resource,
                  const ExerciseContext& context);

  /// Pure query (no counting).
  bool IsPermitted(Right right, const std::string& resource,
                   const ExerciseContext& context) const;

  /// Uses recorded against an exercise-limited grant, keyed by
  /// (license, grant index).
  uint32_t UsesRecorded(const std::string& license_id,
                        size_t grant_index) const;

 private:
  /// Requires mu_ held by the caller.
  const Grant* FindGrant(Right right, const std::string& resource,
                         const ExerciseContext& context,
                         const License** license_out,
                         size_t* index_out) const;

  const pki::CertStore* trust_;
  int64_t now_;
  mutable std::mutex mu_;
  std::vector<License> licenses_;                          // guarded by mu_
  std::map<std::pair<std::string, size_t>, uint32_t> uses_;  // guarded by mu_
};

}  // namespace xrml
}  // namespace discsec

#endif  // DISCSEC_XRML_RIGHTS_MANAGER_H_
