// The paper's Fig. 3 global scenario: an application is downloaded from a
// content server over the Internet. This example shows (1) a successful
// secure download with signature verification and XKMS key-binding
// validation, (2) a man-in-the-van altering the content on a plain
// connection — caught by XML-DSig, and (3) the same signer after the trust
// server revokes its key binding.

#include <cstdio>

#include "examples/demo_setup.h"
#include "xkms/xkmsd.h"
#include "xml/serializer.h"

using namespace discsec;

int main() {
  std::printf("== discsec example: downloaded application security ==\n\n");
  demo::Demo d;

  // Studio publishes a signed application to the CDN.
  authoring::Author author = d.MakeAuthor();
  auto doc =
      author.BuildSigned(d.MakeCluster(), authoring::SignLevel::kCluster);
  if (!doc.ok()) {
    std::printf("sign failed: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  // The CDN co-hosts the trust server (XKMS).
  xkms::Xkmsd trust_server{xkms::XkmsdOptions{}};
  net::ContentServer server;
  server.SetIdentity({d.server_cert, d.root_cert}, d.server_key.private_key);
  server.AttachXkmsd(&trust_server);
  (void)author.Publish(&server, "/apps/quiz.xml", doc.value());

  // The studio registers its signing key with the trust server.
  xkms::XkmsClient trust_client(xkms::MakeServerTransport(&trust_server));
  std::string fingerprint = pki::KeyFingerprint(d.studio_key.public_key);
  (void)trust_client.Register({fingerprint, d.studio_key.public_key,
                               {"Signature"}, xkms::KeyStatus::kValid});

  pki::CertStore channel_trust;
  (void)channel_trust.AddTrustedRoot(d.root_cert);
  net::Downloader::Options secure;
  secure.use_secure_channel = true;
  secure.trust = &channel_trust;
  secure.now = demo::kNow;

  // --- 1. The happy path -------------------------------------------
  {
    player::PlayerConfig config = d.MakePlayerConfig();
    config.xkms = &trust_client;
    player::InteractiveApplicationEngine engine(std::move(config));
    auto report =
        engine.LaunchFromServer(&server, "/apps/quiz.xml", secure, &d.rng);
    std::printf("[1] secure download + verify + XKMS : %s\n",
                report.ok() ? "LAUNCHED" : report.status().ToString().c_str());
    if (report.ok()) {
      std::printf("    signer=%s  xkms_validated=%s  fetch=%lldus "
                  "verify=%lldus\n",
                  report->signer_subject.c_str(),
                  report->xkms_validated ? "yes" : "no",
                  static_cast<long long>(report->timings.fetch_us),
                  static_cast<long long>(report->timings.verify_us));
    }
  }

  // --- 2. Man-in-the-van on a plain connection ----------------------
  {
    net::Downloader::Options plain;
    plain.use_secure_channel = false;
    plain.tap = [](const Bytes& wire) {
      std::string s = ToString(wire);
      size_t pos = s.find("Quiz Night!");
      if (pos != std::string::npos) s.replace(pos, 11, "Pwnd Night!");
      return ToBytes(s);
    };
    player::InteractiveApplicationEngine engine(d.MakePlayerConfig());
    auto report =
        engine.LaunchFromServer(&server, "/apps/quiz.xml", plain, &d.rng);
    std::printf("[2] tampered plain download          : %s\n",
                report.ok() ? "LAUNCHED (!!)"
                            : report.status().ToString().c_str());
  }

  // --- 3. Key revoked at the trust server --------------------------
  {
    (void)trust_client.Revoke(fingerprint);
    player::PlayerConfig config = d.MakePlayerConfig();
    config.xkms = &trust_client;
    player::InteractiveApplicationEngine engine(std::move(config));
    auto report =
        engine.LaunchFromServer(&server, "/apps/quiz.xml", secure, &d.rng);
    std::printf("[3] signer revoked via XKMS          : %s\n",
                report.ok() ? "LAUNCHED (!!)"
                            : report.status().ToString().c_str());
  }
  return 0;
}
