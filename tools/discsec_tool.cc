// discsec_tool — command-line front end for the library's authoring
// operations: key generation, certificate issuance, XML signing and
// verification, XML encryption and decryption, and canonicalization.
//
// Usage:
//   discsec_tool keygen --bits 1024 --out key.xml
//   discsec_tool cert-root --key key.xml --subject "CN=Root" --out root.xml
//   discsec_tool cert-issue --issuer-key root-key.xml --issuer-cert root.xml
//                --key leaf-key.xml --subject "CN=Leaf" --serial 2
//                --out leaf.xml [--ca]
//   discsec_tool sign --key key.xml --in doc.xml --out signed.xml
//                [--cert leaf.xml --cert root.xml] [--detached-id <id>]
//   discsec_tool verify --in signed.xml [--root root.xml | --allow-bare-key]
//   discsec_tool encrypt --in doc.xml --target-id <id> --key-hex <32 hex>
//                --key-name <name> --out enc.xml
//   discsec_tool decrypt --in enc.xml --key-hex <32 hex> --key-name <name>
//                --out dec.xml
//   discsec_tool c14n --in doc.xml [--with-comments]
//   discsec_tool play-demo [--repeat N] [--jobs N] [--async]
//   discsec_tool play [--discs N] [--repeat N] [--jobs N] [--async]
//   discsec_tool xkmsd-demo [--players N] [--keys K] [--jobs N] [--burst N]
//   discsec_tool fleet [--players N] [--events-per-player N] [--seed S]
//                [--matrix smoke|nightly] [--json BENCH_fleet.json]
//   discsec_tool regen-golden [--dir tests/golden] [--write]
//
// Any command also accepts --inject-fault point:kind:rate[:delay_us]
// (repeatable), arming the process-global fault injector before the
// command runs — e.g. --inject-fault tool.read:corrupt:1.0 flips a bit in
// every file read, for rehearsing how the pipeline reports damaged inputs,
// and --inject-fault xkms.transport:delay:1.0:100000 makes every XKMS hop
// cost a 100ms "broadband round-trip". Kinds: error, corrupt, truncate,
// delay (delay requires the delay_us field); rate is a probability in
// [0, 1].
//
// Observability (DESIGN.md §10) — every command also accepts:
//   --trace FILE        write a Chrome-trace-format JSON of every span the
//                       command produced (open in chrome://tracing or
//                       https://ui.perfetto.dev)
//   --trace-text FILE   the same spans as an indented plain-text tree
//   --metrics FILE      write the final metrics snapshot as JSON
// `play-demo` masters a protected demo disc (signed + encrypted manifest +
// AV-essence references), stands up an in-process xkmsd responder behind a
// retrying transport, and plays the disc --repeat times (default 2, so the
// second pass shows locate cache hits) — the quickest way to get a real
// trace of the whole pipeline.
//
// `play` is the multi-disc variant: it masters one protected disc and
// plays --discs copies of it as a batch through the task-graph engine
// (DESIGN.md §11), so the per-disc decrypt -> verify -> launch chains
// pipeline across --jobs workers. --async additionally parks XKMS
// transport delays and retry backoff on a timer wheel, releasing workers
// for the duration of every (possibly fault-delayed) trust-service
// round-trip. Both flags also work on play-demo; --jobs is the preferred
// spelling of the older --pool.
//
// `xkmsd-demo` stands up the overload-safe xkmsd responder (DESIGN.md §13)
// plus a simulated zipfian player fleet in one process: a warm phase
// through a shared edge LocateCache, a revocation storm, and an async
// overload burst past the Locate queue bound. It prints the shed/hit-rate
// summary and exits non-zero if a revoked key was ever reported Valid.
// Chaos-friendly:
//   discsec_tool xkmsd-demo --inject-fault xkmsd.store:error:0.2 --trace t.json
//
// `regen-golden` regenerates the golden conformance vectors and DIFFS them
// against tests/golden/ (exit 1 on drift); --write updates the files
// instead, for intentional format changes.
//
// Numeric options take a non-negative decimal integer: no sign, no
// trailing characters. An unknown option or a malformed number is a usage
// error, reported before the command runs.
//
// Exit status: 0 on success, 1 on any error (including failed
// verification and golden drift), 2 on usage errors.

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pki/cert_store.h"
#include "pki/certificate.h"
#include "pki/key_codec.h"
#include "player/engine.h"
#include "sim/fleet.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "tests/golden/golden_vectors.h"
#include "tests/sim_support.h"
#include "tests/test_world.h"
#include "xkms/locate_cache.h"
#include "xkms/retrying_transport.h"
#include "xkms/service.h"
#include "xkms/xkmsd.h"
#include "xml/c14n.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/signer.h"
#include "xmldsig/verifier.h"
#include "xmlenc/decryptor.h"
#include "xmlenc/encryptor.h"

namespace {

using namespace discsec;

/// Process-wide observability sinks; null unless --trace/--metrics was
/// given. Commands thread these into whatever they run.
obs::Tracer* g_tracer = nullptr;
obs::MetricsRegistry* g_metrics = nullptr;

enum class OptionKind {
  kFlag,    ///< takes no value
  kText,    ///< takes any value
  kNumber,  ///< takes a non-negative decimal integer
};

/// Every option the tool reads; main rejects any other --name.
const std::map<std::string, OptionKind>& KnownOptions() {
  static const std::map<std::string, OptionKind> known = {
      {"allow-bare-key", OptionKind::kFlag},
      {"async", OptionKind::kFlag},
      {"bits", OptionKind::kNumber},
      {"burst", OptionKind::kNumber},
      {"ca", OptionKind::kFlag},
      {"cert", OptionKind::kText},
      {"detached-id", OptionKind::kText},
      {"dir", OptionKind::kText},
      {"discs", OptionKind::kNumber},
      {"events-per-player", OptionKind::kNumber},
      {"in", OptionKind::kText},
      {"inject-fault", OptionKind::kText},
      {"issuer-cert", OptionKind::kText},
      {"issuer-key", OptionKind::kText},
      {"jobs", OptionKind::kNumber},
      {"json", OptionKind::kText},
      {"key", OptionKind::kText},
      {"key-hex", OptionKind::kText},
      {"key-name", OptionKind::kText},
      {"keys", OptionKind::kNumber},
      {"matrix", OptionKind::kText},
      {"metrics", OptionKind::kText},
      {"out", OptionKind::kText},
      {"players", OptionKind::kNumber},
      {"pool", OptionKind::kNumber},
      {"repeat", OptionKind::kNumber},
      {"root", OptionKind::kText},
      {"seed", OptionKind::kNumber},
      {"serial", OptionKind::kNumber},
      {"subject", OptionKind::kText},
      {"target-id", OptionKind::kText},
      {"trace", OptionKind::kText},
      {"trace-text", OptionKind::kText},
      {"with-comments", OptionKind::kFlag},
      {"write", OptionKind::kFlag},
  };
  return known;
}

/// The one parser for numeric options: the whole of `text` must be decimal
/// digits whose value fits in 64 bits.
Result<uint64_t> ParseDecimal(const std::string& name,
                              const std::string& text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("--" + name +
                                   " wants a non-negative decimal integer, "
                                   "got '" + text + "'");
  }
  return value;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::map<std::string, uint64_t> numbers;  // kNumber options, parsed
  std::vector<std::string> certs;  // repeated --cert
  bool Has(const std::string& name) const { return options.count(name) > 0; }
  std::string Get(const std::string& name,
                  const std::string& fallback = {}) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  uint64_t Number(const std::string& name, uint64_t fallback) const {
    auto it = numbers.find(name);
    return it == numbers.end() ? fallback : it->second;
  }
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  std::string text = out.str();
  DISCSEC_RETURN_IF_ERROR(fault::GlobalFaultInjector()
                              .HitData(fault::kToolRead, &text, path)
                              .WithContext("tool input"));
  return text;
}

/// Parses one --inject-fault value ("point:kind:rate[:delay_us]") and arms
/// the global injector with it.
Status ArmInjectedFault(const std::string& flag) {
  size_t first = flag.find(':');
  size_t second =
      first == std::string::npos ? std::string::npos : flag.find(':', first + 1);
  if (second == std::string::npos) {
    return Status::InvalidArgument(
        "--inject-fault wants point:kind:rate[:delay_us], got '" + flag +
        "'");
  }
  size_t third = flag.find(':', second + 1);
  fault::FaultSpec spec;
  spec.point = flag.substr(0, first);
  DISCSEC_ASSIGN_OR_RETURN(
      spec.kind, fault::KindFromName(flag.substr(first + 1,
                                                 second - first - 1)));
  std::string rate_str = flag.substr(
      second + 1, third == std::string::npos ? std::string::npos
                                             : third - second - 1);
  char* end = nullptr;
  spec.probability = std::strtod(rate_str.c_str(), &end);
  if (end == rate_str.c_str() || *end != '\0' || spec.probability < 0.0 ||
      spec.probability > 1.0) {
    return Status::InvalidArgument("--inject-fault rate must be in [0, 1]");
  }
  if (third != std::string::npos) {
    std::string delay_str = flag.substr(third + 1);
    spec.delay_us = std::strtoll(delay_str.c_str(), &end, 10);
    if (end == delay_str.c_str() || *end != '\0' || spec.delay_us < 0) {
      return Status::InvalidArgument(
          "--inject-fault delay_us must be a non-negative integer");
    }
  }
  if (spec.kind == fault::Kind::kDelay && spec.delay_us <= 0) {
    return Status::InvalidArgument(
        "--inject-fault kind 'delay' needs a delay_us field "
        "(point:delay:rate:delay_us)");
  }
  fault::GlobalFaultInjector().Arm(std::move(spec));
  return Status::OK();
}

/// Parses command input under the global tracer, so --trace covers the
/// "xml.parse" spans of every command.
Result<xml::Document> ParseInput(const std::string& text) {
  xml::ParseOptions options;
  options.tracer = g_tracer;
  return xml::Parse(text, options);
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << content;
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage(const char* message) {
  std::fprintf(stderr, "usage error: %s (see discsec_tool source header)\n",
               message);
  return 2;
}

// ---------------------------------------------------------- subcommands

int CmdKeygen(const Args& args) {
  if (!args.Has("out")) return Usage("keygen needs --out");
  size_t bits = args.Number("bits", 1024);
  Rng rng;
  auto pair = crypto::RsaGenerateKeyPair(bits, &rng);
  if (!pair.ok()) return Fail(pair.status());
  Status st = WriteFile(args.Get("out"),
                        pki::RsaPrivateKeyToXmlString(pair->private_key));
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu-bit RSA key to %s (fingerprint %s)\n", bits,
              args.Get("out").c_str(),
              pki::KeyFingerprint(pair->public_key).c_str());
  return 0;
}

Result<crypto::RsaPrivateKey> LoadKey(const std::string& path) {
  DISCSEC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return pki::RsaPrivateKeyFromXmlString(text);
}

int CmdCertRoot(const Args& args) {
  if (!args.Has("key") || !args.Has("subject") || !args.Has("out")) {
    return Usage("cert-root needs --key --subject --out");
  }
  auto key = LoadKey(args.Get("key"));
  if (!key.ok()) return Fail(key.status());
  pki::CertificateInfo info;
  info.subject = args.Get("subject");
  info.issuer = info.subject;
  info.serial = 1;
  int64_t now = static_cast<int64_t>(std::time(nullptr));
  info.not_before = now - 86400;
  info.not_after = now + 20LL * 365 * 86400;
  info.is_ca = true;
  info.public_key = key->PublicKey();
  auto cert = pki::IssueCertificate(info, key.value());
  if (!cert.ok()) return Fail(cert.status());
  Status st = WriteFile(args.Get("out"), cert->ToXmlString());
  if (!st.ok()) return Fail(st);
  std::printf("wrote self-signed root '%s' to %s\n", info.subject.c_str(),
              args.Get("out").c_str());
  return 0;
}

int CmdCertIssue(const Args& args) {
  for (const char* required :
       {"issuer-key", "issuer-cert", "key", "subject", "out"}) {
    if (!args.Has(required)) {
      return Usage("cert-issue needs --issuer-key --issuer-cert --key "
                   "--subject --out");
    }
  }
  auto issuer_key = LoadKey(args.Get("issuer-key"));
  if (!issuer_key.ok()) return Fail(issuer_key.status());
  auto issuer_text = ReadFile(args.Get("issuer-cert"));
  if (!issuer_text.ok()) return Fail(issuer_text.status());
  auto issuer_cert = pki::Certificate::FromXmlString(issuer_text.value());
  if (!issuer_cert.ok()) return Fail(issuer_cert.status());
  auto subject_key = LoadKey(args.Get("key"));
  if (!subject_key.ok()) return Fail(subject_key.status());

  pki::CertificateInfo info;
  info.subject = args.Get("subject");
  info.issuer = issuer_cert->info().subject;
  info.serial = args.Number("serial", 2);
  int64_t now = static_cast<int64_t>(std::time(nullptr));
  info.not_before = now - 86400;
  info.not_after = now + 2LL * 365 * 86400;
  info.is_ca = args.Has("ca");
  info.public_key = subject_key->PublicKey();
  auto cert = pki::IssueCertificate(info, issuer_key.value());
  if (!cert.ok()) return Fail(cert.status());
  Status st = WriteFile(args.Get("out"), cert->ToXmlString());
  if (!st.ok()) return Fail(st);
  std::printf("issued '%s' (serial %llu) signed by '%s'\n",
              info.subject.c_str(),
              static_cast<unsigned long long>(info.serial),
              info.issuer.c_str());
  return 0;
}

int CmdSign(const Args& args) {
  if (!args.Has("key") || !args.Has("in") || !args.Has("out")) {
    return Usage("sign needs --key --in --out");
  }
  auto key = LoadKey(args.Get("key"));
  if (!key.ok()) return Fail(key.status());
  auto text = ReadFile(args.Get("in"));
  if (!text.ok()) return Fail(text.status());
  auto doc = ParseInput(text.value());
  if (!doc.ok()) return Fail(doc.status());

  xmldsig::KeyInfoSpec key_info;
  if (args.certs.empty()) {
    key_info.include_key_value = true;
  }
  for (const std::string& path : args.certs) {
    auto cert_text = ReadFile(path);
    if (!cert_text.ok()) return Fail(cert_text.status());
    auto cert = pki::Certificate::FromXmlString(cert_text.value());
    if (!cert.ok()) return Fail(cert.status());
    key_info.certificate_chain.push_back(std::move(cert).value());
  }
  xmldsig::Signer signer(xmldsig::SigningKey::Rsa(key.value()), key_info);
  signer.set_observability(g_tracer, g_metrics);

  if (args.Has("detached-id")) {
    xml::Element* target = doc->FindById(args.Get("detached-id"));
    if (target == nullptr) {
      return Fail(Status::NotFound("no element with Id '" +
                                   args.Get("detached-id") + "'"));
    }
    auto sig = signer.SignDetached(&doc.value(), target,
                                   args.Get("detached-id"), doc->root());
    if (!sig.ok()) return Fail(sig.status());
  } else {
    auto sig = signer.SignEnveloped(&doc.value(), doc->root());
    if (!sig.ok()) return Fail(sig.status());
  }
  Status st = WriteFile(args.Get("out"), xml::Serialize(doc.value()));
  if (!st.ok()) return Fail(st);
  std::printf("signed %s -> %s\n", args.Get("in").c_str(),
              args.Get("out").c_str());
  return 0;
}

int CmdVerify(const Args& args) {
  if (!args.Has("in")) return Usage("verify needs --in");
  auto text = ReadFile(args.Get("in"));
  if (!text.ok()) return Fail(text.status());

  xmldsig::VerifyOptions options;
  options.tracer = g_tracer;
  options.metrics = g_metrics;
  options.parse_options.tracer = g_tracer;
  pki::CertStore store;
  if (args.Has("root")) {
    auto root_text = ReadFile(args.Get("root"));
    if (!root_text.ok()) return Fail(root_text.status());
    auto root = pki::Certificate::FromXmlString(root_text.value());
    if (!root.ok()) return Fail(root.status());
    Status st = store.AddTrustedRoot(root.value());
    if (!st.ok()) return Fail(st);
    options.cert_store = &store;
    options.now = static_cast<int64_t>(std::time(nullptr));
  } else if (args.Has("allow-bare-key")) {
    options.allow_bare_key_value = true;
  } else {
    return Usage("verify needs --root <cert> or --allow-bare-key");
  }
  auto doc = ParseInput(text.value());
  if (!doc.ok()) return Fail(doc.status());
  auto result = xmldsig::Verifier::VerifyFirstSignature(doc.value(), options);
  if (!result.ok()) return Fail(result.status());
  std::printf("VALID");
  if (!result->signer_subject.empty()) {
    std::printf("  signer: %s", result->signer_subject.c_str());
  }
  std::printf("  references:");
  for (const std::string& uri : result->reference_uris) {
    std::printf(" '%s'", uri.c_str());
  }
  std::printf("\n");
  return 0;
}

int CmdEncrypt(const Args& args) {
  for (const char* required : {"in", "target-id", "key-hex", "key-name",
                               "out"}) {
    if (!args.Has(required)) {
      return Usage("encrypt needs --in --target-id --key-hex --key-name "
                   "--out");
    }
  }
  auto key = FromHex(args.Get("key-hex"));
  if (!key.ok()) return Fail(key.status());
  auto text = ReadFile(args.Get("in"));
  if (!text.ok()) return Fail(text.status());
  auto doc = ParseInput(text.value());
  if (!doc.ok()) return Fail(doc.status());
  xml::Element* target = doc->FindById(args.Get("target-id"));
  if (target == nullptr) {
    return Fail(Status::NotFound("no element with Id '" +
                                 args.Get("target-id") + "'"));
  }
  xmlenc::EncryptionSpec spec;
  spec.content_key = key.value();
  spec.content_algorithm = key->size() == 32 ? crypto::kAlgAes256Cbc
                                             : crypto::kAlgAes128Cbc;
  spec.key_mode = xmlenc::KeyMode::kDirectReference;
  spec.key_name = args.Get("key-name");
  Rng rng;
  auto encryptor = xmlenc::Encryptor::Create(spec, &rng);
  if (!encryptor.ok()) return Fail(encryptor.status());
  auto enc = encryptor->EncryptElement(&doc.value(), target,
                                       "enc-" + args.Get("target-id"));
  if (!enc.ok()) return Fail(enc.status());
  Status st = WriteFile(args.Get("out"), xml::Serialize(doc.value()));
  if (!st.ok()) return Fail(st);
  std::printf("encrypted '#%s' -> %s\n", args.Get("target-id").c_str(),
              args.Get("out").c_str());
  return 0;
}

int CmdDecrypt(const Args& args) {
  for (const char* required : {"in", "key-hex", "key-name", "out"}) {
    if (!args.Has(required)) {
      return Usage("decrypt needs --in --key-hex --key-name --out");
    }
  }
  auto key = FromHex(args.Get("key-hex"));
  if (!key.ok()) return Fail(key.status());
  auto text = ReadFile(args.Get("in"));
  if (!text.ok()) return Fail(text.status());
  auto doc = ParseInput(text.value());
  if (!doc.ok()) return Fail(doc.status());
  xmlenc::KeyRing ring;
  ring.AddKey(args.Get("key-name"), key.value());
  xmlenc::Decryptor decryptor(std::move(ring));
  decryptor.set_observability(g_tracer, g_metrics);
  Status st = decryptor.DecryptAll(&doc.value(), nullptr, {});
  if (!st.ok()) return Fail(st);
  st = WriteFile(args.Get("out"), xml::Serialize(doc.value()));
  if (!st.ok()) return Fail(st);
  std::printf("decrypted %s -> %s\n", args.Get("in").c_str(),
              args.Get("out").c_str());
  return 0;
}

int CmdC14n(const Args& args) {
  if (!args.Has("in")) return Usage("c14n needs --in");
  auto text = ReadFile(args.Get("in"));
  if (!text.ok()) return Fail(text.status());
  auto doc = ParseInput(text.value());
  if (!doc.ok()) return Fail(doc.status());
  xml::C14NOptions options;
  options.tracer = g_tracer;
  options.with_comments = args.Has("with-comments");
  std::fputs(xml::Canonicalize(doc.value(), options).c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

// ------------------------------------------------- play / play-demo

/// Shared fixture for the playback commands: a mastered protected demo
/// disc plus the production trust stack (retrying transport, TTL locate
/// cache, optional worker pool, and — with --async — a timer wheel the
/// transport parks delays and backoff on). Member order is destruction
/// order in reverse: the engine dies first, the wheel outlives the client
/// whose transport parks continuations on it.
struct PlayRig {
  testing_world::World world;
  Result<disc::DiscImage> image = Status::Unavailable("not mastered");
  xkms::Xkmsd xkmsd{xkms::XkmsdOptions{}};
  std::unique_ptr<TimerWheel> wheel;  // only with --async
  std::unique_ptr<xkms::XkmsClient> client;
  std::unique_ptr<xkms::LocateCache> locate_cache;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<player::InteractiveApplicationEngine> engine;

  Status Init(size_t jobs, bool async) {
    // Deterministic end-to-end fixture: root CA, studio chain, demo
    // cluster, mastered fully protected (enveloped signature with the
    // Decryption Transform in the chain, encrypted manifest, external
    // references over the AV essence).
    disc::InteractiveCluster cluster = world.DemoCluster();
    authoring::Author author = world.MakeAuthor();
    authoring::Author::ProtectOptions protect;
    protect.sign = true;
    protect.sign_av_essence = true;
    protect.encrypt_ids = {"quiz"};
    protect.encryption = world.MakeEncryptionSpec();
    image = author.MasterProtected(cluster, protect, &world.rng);
    if (!image.ok()) return image.status();

    std::string fingerprint =
        pki::KeyFingerprint(world.studio_key.public_key);
    DISCSEC_RETURN_IF_ERROR(
        xkmsd.SeedBinding({fingerprint, world.studio_key.public_key,
                           {"Signature"}, xkms::KeyStatus::kValid}));
    if (async) wheel = std::make_unique<TimerWheel>();
    client = std::make_unique<xkms::XkmsClient>(xkms::MakeRetryingTransport(
        xkms::MakeServerTransport(&xkmsd, wheel.get()),
        xkms::RetryingTransportOptions{}, wheel.get(), g_metrics));
    xkms::LocateCache::Options cache_options;
    cache_options.metrics = g_metrics;
    locate_cache =
        std::make_unique<xkms::LocateCache>(client.get(), cache_options);
    if (jobs > 0) pool = std::make_unique<ThreadPool>(jobs);

    player::PlayerConfig config = world.MakePlayerConfig();
    config.xkms = client.get();
    config.xkms_cache = locate_cache.get();
    config.pool = pool.get();
    config.tracer = g_tracer;
    config.metrics = g_metrics;
    engine = std::make_unique<player::InteractiveApplicationEngine>(
        std::move(config));
    return Status::OK();
  }

  /// Prints the cache/trace summary lines. Each cache miss led the one
  /// transport call of its flight.
  void PrintStats() {
    xkms::LocateCacheStats locate_stats = locate_cache->stats();
    std::printf("xkms locate cache: %llu hit(s), %llu transport call(s)\n",
                static_cast<unsigned long long>(locate_stats.hits),
                static_cast<unsigned long long>(locate_stats.misses));
    if (g_tracer != nullptr) {
      std::printf("captured %zu span(s)\n", g_tracer->size());
    }
  }
};

int CmdPlayDemo(const Args& args) {
  size_t repeat = args.Number("repeat", 2);
  if (repeat == 0) repeat = 1;
  // --jobs is the preferred spelling; --pool stays accepted.
  size_t jobs = args.Number("jobs", args.Number("pool", 0));

  PlayRig rig;
  Status st = rig.Init(jobs, args.Has("async"));
  if (!st.ok()) return Fail(st);

  for (size_t round = 1; round <= repeat; ++round) {
    auto playback = rig.engine->PlayDisc(rig.image.value());
    if (!playback.ok()) return Fail(playback.status());
    std::printf("round %zu: played %zu track(s), quarantined %zu, app %s\n",
                round, playback->played.size() + (playback->app ? 1u : 0u),
                playback->quarantined.size(),
                playback->app ? "launched" : "absent");
  }
  rig.PrintStats();
  return 0;
}

int CmdPlay(const Args& args) {
  size_t discs = args.Number("discs", 4);
  if (discs == 0) discs = 1;
  size_t repeat = args.Number("repeat", 1);
  if (repeat == 0) repeat = 1;
  size_t jobs = args.Number("jobs", 0);

  PlayRig rig;
  Status st = rig.Init(jobs, args.Has("async"));
  if (!st.ok()) return Fail(st);

  std::vector<const disc::DiscImage*> batch(discs, &rig.image.value());
  for (size_t round = 1; round <= repeat; ++round) {
    auto results = rig.engine->PlayDiscs(batch);
    size_t tracks = 0, quarantined = 0;
    for (const auto& playback : results) {
      if (!playback.ok()) return Fail(playback.status());
      tracks += playback->played.size() + (playback->app ? 1u : 0u);
      quarantined += playback->quarantined.size();
    }
    std::printf(
        "round %zu: %zu disc(s), %zu track(s) played, %zu quarantined "
        "(%s, %zu job(s))\n",
        round, results.size(), tracks, quarantined,
        args.Has("async") ? "async xkms" : "sync xkms", jobs);
  }
  rig.PrintStats();
  return 0;
}

// ---------------------------------------------------- xkmsd-demo

/// Responder + simulated fleet in one process: seeds a keyspace, drives
/// zipfian Locate traffic through a shared edge LocateCache, runs a
/// revocation storm, then an async overload burst past the Locate queue
/// bound — and prints the shed/hit-rate summary. The responder
/// rides the global fault injector, so --inject-fault xkmsd.store:error:0.2
/// (or xkmsd.queue / xkmsd.snapshot) makes the demo degrade live.
int CmdXkmsdDemo(const Args& args) {
  size_t players = args.Number("players", 200);
  if (players == 0) players = 1;
  size_t keys = args.Number("keys", 32);
  if (keys == 0) keys = 1;
  size_t jobs = args.Number("jobs", 4);
  size_t burst = args.Number("burst", 2000);

  ThreadPool pool(jobs);
  xkms::XkmsdOptions options;
  options.pool = &pool;
  options.tracer = g_tracer;
  options.metrics = g_metrics;
  options.queue_limits[static_cast<size_t>(xkms::XkmsdPriority::kLocate)] =
      256;
  xkms::Xkmsd xkmsd(options);

  testing_world::World world;
  std::vector<std::string> names;
  for (size_t i = 0; i < keys; ++i) {
    xkms::KeyBinding binding;
    binding.name = "studio-key-" + std::to_string(i);
    binding.key = world.studio_key.public_key;
    binding.key_usage = {"Signature"};
    Status st = xkmsd.SeedBinding(binding);
    if (!st.ok()) return Fail(st);
    names.push_back(binding.name);
  }
  xkmsd.RefreshSnapshot();

  // Zipfian popularity (exponent 1): the head keys carry the fleet.
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (size_t i = 0; i < keys; ++i) total += 1.0 / static_cast<double>(i + 1);
  double acc = 0.0;
  for (size_t i = 0; i < keys; ++i) {
    acc += 1.0 / static_cast<double>(i + 1) / total;
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  Rng rng(20050915);
  auto sample = [&] {
    double u = static_cast<double>(rng.NextUint64() >> 11) * 0x1.0p-53;
    for (size_t i = 0; i < keys; ++i) {
      if (u <= cdf[i]) return i;
    }
    return keys - 1;
  };

  // Phase 1: the fleet locates through one shared edge cache.
  xkms::XkmsClient client(xkms::MakeServerTransport(&xkmsd));
  client.set_observability(g_tracer, g_metrics);
  xkms::LocateCache::Options cache_options;
  cache_options.metrics = g_metrics;
  xkms::LocateCache cache(&client, cache_options);
  size_t fleet_errors = 0;
  for (size_t p = 0; p < players; ++p) {
    for (int r = 0; r < 3; ++r) {
      if (!cache.Locate(names[sample()]).ok()) ++fleet_errors;
    }
  }

  // Phase 2: revocation storm over the hot half of the keyspace, then the
  // fleet re-checks it (cache invalidated: revocation is exactly the event
  // an edge cache must not paper over).
  size_t stale_valids = 0;
  for (size_t i = 0; i < keys / 2; ++i) {
    // Retry through injected faults until the revocation lands — the
    // post-storm check below assumes every one of these keys is revoked.
    Status st;
    do {
      st = client.Revoke(names[i]);
      if (!st.ok() && !st.IsRetryable()) return Fail(st);
    } while (!st.ok());
    cache.Invalidate(names[i]);
  }
  for (size_t i = 0; i < keys / 2; ++i) {
    auto found = cache.Locate(names[i]);
    if (found.ok() && found->status == xkms::KeyStatus::kValid) {
      ++stale_valids;
    }
  }

  // Phase 3: async overload burst straight into the front door, far past
  // the Locate queue bound; the surplus sheds with retry-after hints. Every
  // worker is held until the whole burst is submitted, so the bound trips
  // by construction, not because this thread happened to outrun them.
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool holding = true;
  for (size_t w = 0; w < jobs; ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(hold_mu);
      hold_cv.wait(lock, [&] { return !holding; });
    });
  }
  std::atomic<size_t> completions{0};
  std::atomic<size_t> shed_hints{0};
  std::atomic<int64_t> max_hint_us{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t i = 0; i < burst; ++i) {
    xkmsd.Submit(xkms::BuildLocateRequest(names[sample()]),
                 [&](Result<std::string> response) {
                   if (!response.ok() &&
                       response.status().retry_after_us() > 0) {
                     shed_hints.fetch_add(1);
                     int64_t hint = response.status().retry_after_us();
                     int64_t seen = max_hint_us.load();
                     while (hint > seen &&
                            !max_hint_us.compare_exchange_weak(seen, hint)) {
                     }
                   }
                   if (completions.fetch_add(1) + 1 == burst) {
                     std::lock_guard<std::mutex> lock(done_mu);
                     done_cv.notify_all();
                   }
                 });
  }
  {
    std::lock_guard<std::mutex> lock(hold_mu);
    holding = false;
  }
  hold_cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return completions.load() == burst; });
  }

  xkms::XkmsdStats stats = xkmsd.stats();
  xkms::LocateCacheStats edge = cache.stats();

  std::printf("xkmsd-demo: %zu player(s), %zu key(s), %zu job(s)\n", players,
              keys, jobs);
  std::printf(
      "responder: %llu admitted, %llu served, %llu store lookup(s), "
      "%llu degraded\n",
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.served),
      static_cast<unsigned long long>(stats.store_lookups),
      static_cast<unsigned long long>(stats.degraded_locates));
  std::printf(
      "sheds: %llu queue-full, %llu oversized, %llu malformed, "
      "%llu fault (max retry-after %lldus)\n",
      static_cast<unsigned long long>(stats.shed_queue_full),
      static_cast<unsigned long long>(stats.shed_oversized),
      static_cast<unsigned long long>(stats.shed_malformed),
      static_cast<unsigned long long>(stats.shed_fault),
      static_cast<long long>(max_hint_us.load()));
  double hit_rate =
      edge.hits + edge.misses > 0
          ? static_cast<double>(edge.hits) /
                static_cast<double>(edge.hits + edge.misses)
          : 0.0;
  std::printf(
      "edge cache: %.1f%% hit rate (%llu hit(s), %llu transport call(s))\n",
      hit_rate * 100.0, static_cast<unsigned long long>(edge.hits),
      static_cast<unsigned long long>(edge.misses));
  std::printf("storm: %zu revoked, %zu stale Valid answer(s)%s\n", keys / 2,
              stale_valids, stale_valids == 0 ? " (good)" : "  <-- BUG");
  if (fleet_errors > 0) {
    std::printf("fleet: %zu request(s) failed (expected under injected "
                "faults)\n",
                fleet_errors);
  }
  if (g_tracer != nullptr) {
    std::printf("captured %zu span(s)\n", g_tracer->size());
  }
  return stale_valids == 0 ? 0 : 1;
}

// ---------------------------------------------------- fleet

/// Mass-playback fleet simulator (DESIGN.md §15): runs the smoke or nightly
/// scenario matrix, prints the deterministic matrix table, optionally
/// writes the discsec-bench-v1 BENCH_fleet.json artifact, and exits
/// non-zero when any in-run invariant (attack acceptance, Valid after
/// revoke, lost burst submissions) is violated.
int CmdFleet(const Args& args) {
  size_t players = args.Number("players", 1000);
  if (players == 0) players = 1;
  size_t events_per_player = args.Number("events-per-player", 1);
  if (events_per_player == 0) events_per_player = 1;
  uint64_t seed = args.Number("seed", 20050915);
  std::string matrix_name = args.Get("matrix", "smoke");

  std::vector<sim::ScenarioSpec> matrix;
  if (matrix_name == "smoke") {
    matrix = sim::SmokeMatrix(static_cast<uint32_t>(players));
  } else if (matrix_name == "nightly") {
    matrix = sim::NightlyMatrix(static_cast<uint32_t>(players));
  } else {
    return Usage("fleet --matrix must be smoke or nightly");
  }
  for (sim::ScenarioSpec& spec : matrix) {
    spec.events_per_player = static_cast<uint32_t>(events_per_player);
  }

  testing_world::World world;
  auto simulator = sim::FleetSimulator::Create(
      sim_support::MakeFleetEnvironment(world));
  if (!simulator.ok()) return Fail(simulator.status());

  auto report = simulator.value()->RunMatrix(matrix, seed);
  if (!report.ok()) return Fail(report.status());

  std::fputs(sim::MatrixTable(report.value()).c_str(), stdout);

  if (args.Has("json")) {
    std::string path = args.Get("json");
    Status wrote = sim::WriteFleetBenchJson(report.value(), path);
    if (!wrote.ok()) return Fail(wrote);
    std::printf("bench report -> %s\n", path.c_str());
  }

  Status invariants = report.value().CheckInvariants();
  if (!invariants.ok()) return Fail(invariants);
  uint64_t events = 0, attacks_rejected = 0;
  for (const sim::ScenarioResult& row : report.value().rows) {
    events += row.events;
    attacks_rejected += row.attack_rejected;
  }
  std::printf(
      "fleet invariants hold: %llu event(s) across %zu scenario(s), "
      "%llu attack disc(s) rejected, 0 accepted, 0 stale Valid\n",
      static_cast<unsigned long long>(events), report.value().rows.size(),
      static_cast<unsigned long long>(attacks_rejected));
  return 0;
}

// ---------------------------------------------------- regen-golden

int CmdRegenGolden(const Args& args) {
  std::string dir = args.Get("dir", "tests/golden");
  bool write = args.Has("write");
  auto vectors = golden::GenerateGoldenVectors();
  if (!vectors.ok()) return Fail(vectors.status());
  size_t drifted = 0, updated = 0;
  for (const golden::GoldenVector& vector : vectors.value()) {
    std::string path = dir + "/" + vector.filename;
    auto existing = ReadFile(path);
    bool matches = existing.ok() &&
                   golden::CompareGolden(vector.filename, existing.value(),
                                         vector.content)
                       .ok();
    if (matches) continue;
    if (write) {
      Status st = WriteFile(path, vector.content);
      if (!st.ok()) return Fail(st);
      std::printf("updated %s (%zu bytes)\n", path.c_str(),
                  vector.content.size());
      ++updated;
      continue;
    }
    ++drifted;
    if (!existing.ok()) {
      std::fprintf(stderr, "MISSING %s (%zu bytes to write)\n", path.c_str(),
                   vector.content.size());
      continue;
    }
    Status diff = golden::CompareGolden(vector.filename, existing.value(),
                                        vector.content);
    std::fprintf(stderr, "DRIFT   %s\n", diff.message().c_str());
  }
  if (write) {
    std::printf("%zu file(s) updated, %zu unchanged\n", updated,
                vectors->size() - updated);
    return 0;
  }
  if (drifted > 0) {
    std::fprintf(stderr,
                 "%zu golden vector(s) drifted; rerun with --write after "
                 "confirming the change is intentional\n",
                 drifted);
    return 1;
  }
  std::printf("all %zu golden vector(s) match\n", vectors->size());
  return 0;
}

/// Copies the global injector's hits and fires of each armed point into
/// `metrics`. The injector keeps those counts itself (its skip/every-Nth/
/// max-fires triggers read them), so the registry gets them set once, right
/// before the snapshot is written. A point that was never armed counts
/// nothing, so it gets no entry.
void SetFaultCounters(obs::MetricsRegistry* metrics) {
  const fault::FaultInjector& injector = fault::GlobalFaultInjector();
  for (const std::string& point : injector.armed_points()) {
    std::string base = "fault." + point;
    metrics->GetCounter(base + ".hits")->Set(injector.hits(point));
    metrics->GetCounter(base + ".fires")->Set(injector.fires(point));
  }
  metrics->GetCounter("fault.total_fires")->Set(injector.total_fires());
}

int Dispatch(const Args& args) {
  if (args.command == "keygen") return CmdKeygen(args);
  if (args.command == "cert-root") return CmdCertRoot(args);
  if (args.command == "cert-issue") return CmdCertIssue(args);
  if (args.command == "sign") return CmdSign(args);
  if (args.command == "verify") return CmdVerify(args);
  if (args.command == "encrypt") return CmdEncrypt(args);
  if (args.command == "decrypt") return CmdDecrypt(args);
  if (args.command == "c14n") return CmdC14n(args);
  if (args.command == "play-demo") return CmdPlayDemo(args);
  if (args.command == "play") return CmdPlay(args);
  if (args.command == "xkmsd-demo") return CmdXkmsdDemo(args);
  if (args.command == "fleet") return CmdFleet(args);
  if (args.command == "regen-golden") return CmdRegenGolden(args);
  return Usage(("unknown command '" + args.command + "'").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("no command given");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return Usage("expected --option");
    std::string name = arg.substr(2);
    auto known = KnownOptions().find(name);
    if (known == KnownOptions().end()) {
      return Usage(("unknown option --" + name).c_str());
    }
    if (known->second == OptionKind::kFlag) {
      args.options[name] = "1";
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for --" + name).c_str());
    std::string value = argv[++i];
    if (known->second == OptionKind::kNumber) {
      Result<uint64_t> number = ParseDecimal(name, value);
      if (!number.ok()) return Usage(number.status().message().c_str());
      args.numbers[name] = number.value();
    }
    if (name == "cert") {
      args.certs.push_back(value);
    } else if (name == "inject-fault") {
      Status st = ArmInjectedFault(value);
      if (!st.ok()) return Usage(st.message().c_str());
    } else {
      args.options[name] = value;
    }
  }

  // Observability sinks live for the whole command; the files are written
  // after it finishes (success or failure — a trace of a failing run is
  // exactly what you want to look at).
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  if (args.Has("trace") || args.Has("trace-text")) g_tracer = &tracer;
  if (args.Has("metrics")) g_metrics = &metrics;

  int rc = Dispatch(args);

  if (args.Has("trace")) {
    Status st = WriteFile(args.Get("trace"), tracer.ChromeTraceJson());
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "trace: %zu span(s) -> %s\n", tracer.size(),
                 args.Get("trace").c_str());
  }
  if (args.Has("trace-text")) {
    Status st = WriteFile(args.Get("trace-text"), tracer.TextReport());
    if (!st.ok()) return Fail(st);
  }
  if (args.Has("metrics")) {
    SetFaultCounters(&metrics);
    Status st = WriteFile(args.Get("metrics"), metrics.Snapshot().ToJson());
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "metrics -> %s\n", args.Get("metrics").c_str());
  }
  return rc;
}
