// E2 — §4 / ref.[37]: "performance wise the text based XML takes a back
// seat when compared to binary-based OMA DCF".
//
// Measures protect (author side) and unprotect+verify (player side)
// throughput for the XML pipeline (XML-DSig + XML-Enc over the cluster
// markup) against the binary DCF pipeline (AES-CBC + HMAC container) for
// the same payload. Expected shape: DCF wins at every size; the gap is
// largest for small payloads where XML parse + C14N dominate.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <string>

#include "bench/alloc_tracker.h"
#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "crypto/aes_hw.h"
#include "xml/stream_verify.h"
#include "dcf/dcf.h"
#include "xmldsig/verifier.h"
#include "xmlenc/decryptor.h"

namespace discsec {
namespace {

using bench::SharedWorld;
using crypto::AesBackend;

// The ratio rows below run once per AES backend. The gated rows (no suffix)
// stay on the portable cipher, which is what
// bench/baselines/BENCH_ratio.baseline.json was calibrated on: DCF unprotect
// is HMAC plus AES-CBC, so hardware AES shrinks the DCF denominator far more
// than the XML numerator. The *AesNi rows report the same quotients with an
// "_aesni" suffix on every counter, so no gate in bench/check_ratios.py
// reads them.

// Marks the row skipped and returns false on a CPU without AES-NI.
bool BackendAvailable(benchmark::State& state, AesBackend backend) {
  if (backend == AesBackend::kAesNi && !crypto::AesNiAvailable()) {
    state.SkipWithError("CPU lacks AES-NI");
    return false;
  }
  return true;
}

const char* CounterSuffix(AesBackend backend) {
  return backend == AesBackend::kAesNi ? "_aesni" : "";
}

void BM_XmlProtect(benchmark::State& state) {
  auto& world = SharedWorld();
  disc::InteractiveCluster cluster =
      bench::ClusterWithPayload(static_cast<size_t>(state.range(0)));
  authoring::Author author = world.MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world.MakeEncryptionSpec();
  size_t produced = 0;
  for (auto _ : state) {
    auto doc = author.BuildProtected(cluster, options, &world.rng);
    produced = xml::Serialize(doc.value()).size();
    benchmark::DoNotOptimize(produced);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
  state.counters["container_bytes"] = static_cast<double>(produced);
}
BENCHMARK(BM_XmlProtect)->Arg(1 << 10)->Arg(16 << 10)->Arg(256 << 10);

void BM_DcfProtect(benchmark::State& state) {
  auto& world = SharedWorld();
  std::string raw =
      bench::ClusterWithPayload(static_cast<size_t>(state.range(0)))
          .ToXmlString();
  Bytes payload = ToBytes(raw);
  size_t produced = 0;
  for (auto _ : state) {
    auto container =
        dcf::DcfProtect(payload, "application/xml", "disc-content-key",
                        world.disc_content_key, world.disc_content_key,
                        &world.rng);
    produced = container.value().size();
    benchmark::DoNotOptimize(produced);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
  state.counters["container_bytes"] = static_cast<double>(produced);
}
BENCHMARK(BM_DcfProtect)->Arg(1 << 10)->Arg(16 << 10)->Arg(256 << 10);

void BM_XmlUnprotect(benchmark::State& state) {
  // Player side: parse + signature verify (incl. Decryption Transform) +
  // decrypt.
  auto& world = SharedWorld();
  authoring::Author author = world.MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world.MakeEncryptionSpec();
  auto doc = author.BuildProtected(
      bench::ClusterWithPayload(static_cast<size_t>(state.range(0))), options,
      &world.rng);
  std::string wire = xml::Serialize(doc.value());

  pki::CertStore store;
  (void)store.AddTrustedRoot(world.root_cert);
  xmlenc::KeyRing ring;
  ring.AddKey("disc-content-key", world.disc_content_key);
  xmlenc::Decryptor decryptor(std::move(ring));

  for (auto _ : state) {
    auto parsed = xml::Parse(wire).value();
    xmldsig::VerifyOptions verify;
    verify.cert_store = &store;
    verify.now = testing_world::kNow;
    verify.decrypt_hook = decryptor.MakeHook();
    auto result = xmldsig::Verifier::VerifyFirstSignature(parsed, verify);
    if (!result.ok()) state.SkipWithError("verify failed");
    auto status = decryptor.DecryptAll(&parsed, nullptr, {});
    if (!status.ok()) state.SkipWithError("decrypt failed");
    benchmark::DoNotOptimize(parsed.root());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_XmlUnprotect)->Arg(1 << 10)->Arg(16 << 10)->Arg(256 << 10);

void BM_DcfUnprotect(benchmark::State& state) {
  auto& world = SharedWorld();
  std::string raw =
      bench::ClusterWithPayload(static_cast<size_t>(state.range(0)))
          .ToXmlString();
  Bytes container =
      dcf::DcfProtect(ToBytes(raw), "application/xml", "disc-content-key",
                      world.disc_content_key, world.disc_content_key,
                      &world.rng)
          .value();
  for (auto _ : state) {
    auto plain = dcf::DcfUnprotect(container, world.disc_content_key,
                                   world.disc_content_key);
    if (!plain.ok()) state.SkipWithError("unprotect failed");
    benchmark::DoNotOptimize(plain.value().size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_DcfUnprotect)->Arg(1 << 10)->Arg(16 << 10)->Arg(256 << 10);

// The headline first-class metric of this experiment: player-side XML
// unprotect (parse + signature verify + decrypt) over binary DCF unprotect
// for the same payload, as one number per payload size. The paper's
// position ("XML takes a back seat" vs OMA DCF) maps to a 2.5x-5.1x
// slowdown band in this codebase's reproduction; the band rides along as
// counters so regression tooling can flag when the ratio drifts out of it.
// Both sides are probed back-to-back with identical cache warmth; the
// timed loop runs the XML side so the benchmark's own timing stays
// meaningful.
void XmlVsDcfRatio(benchmark::State& state, AesBackend backend) {
  if (!BackendAvailable(state, backend)) return;
  crypto::ScopedAesBackend scope(backend);
  const std::string suffix = CounterSuffix(backend);
  auto& world = SharedWorld();
  authoring::Author author = world.MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world.MakeEncryptionSpec();
  auto doc = author.BuildProtected(
      bench::ClusterWithPayload(static_cast<size_t>(state.range(0))), options,
      &world.rng);
  std::string wire = xml::Serialize(doc.value());
  std::string raw =
      bench::ClusterWithPayload(static_cast<size_t>(state.range(0)))
          .ToXmlString();
  Bytes container =
      dcf::DcfProtect(ToBytes(raw), "application/xml", "disc-content-key",
                      world.disc_content_key, world.disc_content_key,
                      &world.rng)
          .value();

  pki::CertStore store;
  (void)store.AddTrustedRoot(world.root_cert);
  xmlenc::KeyRing ring;
  ring.AddKey("disc-content-key", world.disc_content_key);
  xmlenc::Decryptor decryptor(std::move(ring));

  auto xml_unprotect = [&]() {
    auto parsed = xml::Parse(wire).value();
    xmldsig::VerifyOptions verify;
    verify.cert_store = &store;
    verify.now = testing_world::kNow;
    verify.decrypt_hook = decryptor.MakeHook();
    auto result = xmldsig::Verifier::VerifyFirstSignature(parsed, verify);
    if (!result.ok()) state.SkipWithError("verify failed");
    auto status = decryptor.DecryptAll(&parsed, nullptr, {});
    if (!status.ok()) state.SkipWithError("decrypt failed");
    benchmark::DoNotOptimize(parsed.root());
  };
  auto dcf_unprotect = [&]() {
    auto plain = dcf::DcfUnprotect(container, world.disc_content_key,
                                   world.disc_content_key);
    if (!plain.ok()) state.SkipWithError("unprotect failed");
    benchmark::DoNotOptimize(plain.value().size());
  };
  auto probe_us = [](const std::function<void()>& op) {
    // Minimum of a fixed probe count: robust to scheduler noise without
    // needing long runs.
    constexpr int kProbes = 8;
    double best = 0.0;
    for (int i = 0; i < kProbes; ++i) {
      auto start = std::chrono::steady_clock::now();
      op();
      double us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count() /
                  1e3;
      if (i == 0 || us < best) best = us;
    }
    return best;
  };
  const double xml_us = probe_us(xml_unprotect);
  const double dcf_us = probe_us(dcf_unprotect);

  for (auto _ : state) {
    xml_unprotect();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(state.range(0)));
  auto counter = [&](const char* name, double value) {
    state.counters[name + suffix] = value;
  };
  counter("xml_unprotect_us", xml_us);
  counter("dcf_unprotect_us", dcf_us);
  counter("xml_over_dcf", dcf_us > 0.0 ? xml_us / dcf_us : 0.0);
  counter("paper_band_lo", 2.5);
  counter("paper_band_hi", 5.1);
}

void BM_XmlVsDcfRatio(benchmark::State& state) {
  XmlVsDcfRatio(state, AesBackend::kPortable);
}
BENCHMARK(BM_XmlVsDcfRatio)->Arg(1 << 10)->Arg(16 << 10)->Arg(256 << 10);

void BM_XmlVsDcfRatioAesNi(benchmark::State& state) {
  XmlVsDcfRatio(state, AesBackend::kAesNi);
}
BENCHMARK(BM_XmlVsDcfRatioAesNi)
    ->Arg(1 << 10)
    ->Arg(16 << 10)
    ->Arg(256 << 10);

// The fast-path headline (DESIGN.md §14): player-side signature
// verification straight off the wire bytes, DOM pipeline vs the
// single-pass streaming pipeline vs DCF, on an HMAC-signed element-dense
// cluster (Arg = script count) so the XML and DCF sides check the same
// primitive (HMAC-SHA1 + SHA digesting) and the measured gap is pure XML
// machinery — parse, clone, canonicalize — not asymmetric crypto. Rows:
//
//   dom_verify_us        wire -> verdict through the DOM pipeline:
//                        xml::Parse + VerifyFirstSignature (clone +
//                        enveloped removal + C14N tree walk)
//   streaming_verify_us  wire -> verdict through Verifier::VerifyStream:
//                        one fused scan+canonicalize pass, no DOM
//   dcf_unprotect_us     binary container baseline (AES + HMAC)
//   streaming_speedup    dom_verify_us / streaming_verify_us
//   *_over_dcf           each XML verify over the DCF baseline
//   *_allocs             heap allocations per wire->verdict on each path
//   alloc_reduction      dom_verify_allocs / streaming_verify_allocs
//   serialize_allocs     allocations for one xml::Serialize of the signed
//                        document (pins the serializer reserve() path)
void VerifyRatio(benchmark::State& state, AesBackend backend) {
  if (!BackendAvailable(state, backend)) return;
  crypto::ScopedAesBackend scope(backend);
  const std::string suffix = CounterSuffix(backend);
  auto& world = SharedWorld();
  xmldsig::KeyInfoSpec key_info;
  key_info.key_name = "disc-content-key";
  authoring::Author author(
      xmldsig::SigningKey::HmacSecret(world.disc_content_key), key_info);
  auto doc = author.BuildSigned(
      bench::ElementDenseCluster(static_cast<size_t>(state.range(0))),
      authoring::SignLevel::kCluster);
  if (!doc.ok()) {
    state.SkipWithError("sign failed");
    return;
  }
  std::string wire = xml::Serialize(doc.value());
  std::string raw =
      bench::ElementDenseCluster(static_cast<size_t>(state.range(0)))
          .ToXmlString();
  Bytes container =
      dcf::DcfProtect(ToBytes(raw), "application/xml", "disc-content-key",
                      world.disc_content_key, world.disc_content_key,
                      &world.rng)
          .value();

  auto make_options = [&]() {
    xmldsig::VerifyOptions verify;
    verify.hmac_secret = world.disc_content_key;
    return verify;
  };
  auto dom_verify = [&]() {
    auto parsed = xml::Parse(wire);
    if (!parsed.ok()) {
      state.SkipWithError("parse failed");
      return;
    }
    auto result =
        xmldsig::Verifier::VerifyFirstSignature(parsed.value(), make_options());
    if (!result.ok()) state.SkipWithError("dom verify failed");
    benchmark::DoNotOptimize(result.ok());
  };
  auto streaming_verify = [&]() {
    auto result = xmldsig::Verifier::VerifyStream(wire, make_options());
    if (!result.ok()) state.SkipWithError("streaming verify failed");
    benchmark::DoNotOptimize(result.ok());
  };
  auto dcf_unprotect = [&]() {
    auto plain = dcf::DcfUnprotect(container, world.disc_content_key,
                                   world.disc_content_key);
    if (!plain.ok()) state.SkipWithError("unprotect failed");
    benchmark::DoNotOptimize(plain.value().size());
  };
  auto probe_us = [](const std::function<void()>& op) {
    constexpr int kProbes = 8;
    double best = 0.0;
    for (int i = 0; i < kProbes; ++i) {
      auto start = std::chrono::steady_clock::now();
      op();
      double us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count() /
                  1e3;
      if (i == 0 || us < best) best = us;
    }
    return best;
  };
  auto probe_allocs = [](const std::function<void()>& op) {
    op();  // warm up so lazy one-time allocations don't count
    bench::ResetAllocStats();
    op();
    return static_cast<double>(bench::AllocCount());
  };

  const size_t streamed_before = xml::StreamedCanonicalizationCount();
  const double dom_us = probe_us(dom_verify);
  const double stream_us = probe_us(streaming_verify);
  const double dcf_us = probe_us(dcf_unprotect);
  if (xml::StreamedCanonicalizationCount() == streamed_before) {
    state.SkipWithError("streaming fast path never engaged");
    return;
  }
  const double dom_allocs = probe_allocs(dom_verify);
  const double stream_allocs = probe_allocs(streaming_verify);
  xml::Document parsed_once = xml::Parse(wire).value();
  const double serialize_allocs = probe_allocs(
      [&]() { benchmark::DoNotOptimize(xml::Serialize(parsed_once).size()); });

  for (auto _ : state) {
    streaming_verify();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(wire.size()));
  auto counter = [&](const char* name, double value) {
    state.counters[name + suffix] = value;
  };
  counter("dom_verify_us", dom_us);
  counter("streaming_verify_us", stream_us);
  counter("dcf_unprotect_us", dcf_us);
  counter("streaming_speedup", stream_us > 0.0 ? dom_us / stream_us : 0.0);
  counter("dom_over_dcf", dcf_us > 0.0 ? dom_us / dcf_us : 0.0);
  counter("streaming_over_dcf", dcf_us > 0.0 ? stream_us / dcf_us : 0.0);
  counter("dom_verify_allocs", dom_allocs);
  counter("streaming_verify_allocs", stream_allocs);
  counter("alloc_reduction",
          stream_allocs > 0.0 ? dom_allocs / stream_allocs : 0.0);
  counter("serialize_allocs", serialize_allocs);
}

void BM_VerifyRatio(benchmark::State& state) {
  VerifyRatio(state, AesBackend::kPortable);
}
BENCHMARK(BM_VerifyRatio)->Arg(200)->Arg(1000)->Arg(4000);

void BM_VerifyRatioAesNi(benchmark::State& state) {
  VerifyRatio(state, AesBackend::kAesNi);
}
BENCHMARK(BM_VerifyRatioAesNi)->Arg(200)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace discsec

DISCSEC_BENCH_MAIN("ratio");
