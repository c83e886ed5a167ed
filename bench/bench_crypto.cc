// E10 — crypto substrate throughput: contextualizes E1-E7 by showing how
// much of the XML pipeline's cost is primitives versus XML processing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench/bench_json.h"

#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/aes_hw.h"
#include "crypto/algorithms.h"
#include "crypto/bigint.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace discsec {
namespace crypto {
namespace {

void BM_Sha1(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(262144);

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(262144);

void BM_HmacSha1(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.NextBytes(20);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hmac::Sha1Mac(key, data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(4096)->Arg(262144);

void BM_AesCbcEncrypt(benchmark::State& state) {
  Rng rng(3);
  size_t key_size = static_cast<size_t>(state.range(0));
  Bytes key = rng.NextBytes(key_size);
  Bytes iv = rng.NextBytes(16);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AesCbcEncrypt(key, iv, data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_AesCbcEncrypt)
    ->Args({16, 4096})
    ->Args({32, 4096})
    ->Args({16, 262144});

void BM_AesCbcDecrypt(benchmark::State& state) {
  Rng rng(4);
  Bytes key = rng.NextBytes(16);
  Bytes iv = rng.NextBytes(16);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  Bytes ciphertext = AesCbcEncrypt(key, iv, data).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AesCbcDecrypt(key, ciphertext));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_AesCbcDecrypt)->Arg(4096)->Arg(262144);

void BM_AesKeyWrap(benchmark::State& state) {
  Rng rng(5);
  Bytes kek = rng.NextBytes(16);
  Bytes key_data = rng.NextBytes(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AesKeyWrap(kek, key_data));
  }
}
BENCHMARK(BM_AesKeyWrap);

// The AES backend gate: 64 KiB of AES-128-CBC through Aes's whole-buffer
// methods on the portable and the AES-NI backend, keys expanded outside the
// timed region, the four probes interleaved so both backends see the same
// machine state. Rows:
//
//   {portable,aesni}_{encrypt,decrypt}_us   best of the probes
//   aesni_speedup            portable over AES-NI time, the smaller of the
//                            encrypt and decrypt quotients
//                            (bench/check_ratios.py gates it at >= 10)
//   cbc_decrypt_pipelining   aesni_encrypt_us / aesni_decrypt_us: CBC
//                            encrypt is serial, decrypt runs eight blocks
//                            per step (gated at >= 3)
void BM_AesRatio(benchmark::State& state) {
  if (!AesNiAvailable()) {
    state.SkipWithError("CPU lacks AES-NI");
    return;
  }
  Rng rng(11);
  const Bytes key = rng.NextBytes(16);
  const Bytes iv = rng.NextBytes(16);
  const Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  Bytes out(data.size());
  auto create = [&](AesBackend backend) {
    ScopedAesBackend scope(backend);
    return Aes::Create(key).value();
  };
  const Aes portable = create(AesBackend::kPortable);
  const Aes hw = create(AesBackend::kAesNi);
  auto probe_us = [&](const Aes& aes, bool encrypt) {
    auto start = std::chrono::steady_clock::now();
    if (encrypt) {
      aes.CbcEncrypt(iv.data(), data.data(), out.data(), data.size());
    } else {
      aes.CbcDecrypt(iv.data(), data.data(), out.data(), data.size());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
               .count() /
           1e3;
  };
  constexpr int kProbes = 8;
  double best[2][2] = {};  // [aes_ni][encrypt]
  for (int i = 0; i < kProbes; ++i) {
    for (int encrypt = 1; encrypt >= 0; --encrypt) {
      for (int aes_ni = 0; aes_ni < 2; ++aes_ni) {
        double us = probe_us(aes_ni ? hw : portable, encrypt != 0);
        double& slot = best[aes_ni][encrypt];
        if (i == 0 || us < slot) slot = us;
      }
    }
  }

  for (auto _ : state) {
    hw.CbcDecrypt(iv.data(), data.data(), out.data(), data.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  state.counters["portable_encrypt_us"] = best[0][1];
  state.counters["portable_decrypt_us"] = best[0][0];
  state.counters["aesni_encrypt_us"] = best[1][1];
  state.counters["aesni_decrypt_us"] = best[1][0];
  state.counters["aesni_speedup"] =
      std::min(ratio(best[0][1], best[1][1]), ratio(best[0][0], best[1][0]));
  state.counters["cbc_decrypt_pipelining"] = ratio(best[1][1], best[1][0]);
}
BENCHMARK(BM_AesRatio)->Arg(64 << 10)->Unit(benchmark::kMicrosecond);

void BM_RsaSign(benchmark::State& state) {
  Rng rng(6);
  auto pair =
      RsaGenerateKeyPair(static_cast<size_t>(state.range(0)), &rng).value();
  Bytes digest = Sha1::Hash(rng.NextBytes(1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RsaSignDigest(pair.private_key, kAlgSha1, digest));
  }
  state.counters["modulus_bits"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  Rng rng(7);
  auto pair =
      RsaGenerateKeyPair(static_cast<size_t>(state.range(0)), &rng).value();
  Bytes digest = Sha1::Hash(rng.NextBytes(1000));
  Bytes signature = RsaSignDigest(pair.private_key, kAlgSha1, digest).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RsaVerifyDigest(pair.public_key, kAlgSha1, digest, signature));
  }
  state.counters["modulus_bits"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RsaKeyGen(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RsaGenerateKeyPair(static_cast<size_t>(state.range(0)), &rng));
  }
}
BENCHMARK(BM_RsaKeyGen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_BigIntModPow(benchmark::State& state) {
  Rng rng(9);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt modulus = BigInt::GeneratePrime(bits, &rng);
  BigInt base = BigInt::RandomBelow(modulus, &rng);
  BigInt exponent = BigInt::RandomWithBits(bits, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModPow(base, exponent, modulus));
  }
}
BENCHMARK(BM_BigIntModPow)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The Montgomery path's machine-independent gate: one base and exponent
// against an odd prime modulus (Montgomery multiplication) and against that
// prime plus one (even, so square-and-multiply with a division per step),
// probed alternately in the same process. Rows:
//
//   odd_modpow_us        best of the probes on the odd (Montgomery) modulus
//   even_modpow_us       best of the probes on the even modulus
//   montgomery_speedup   even_modpow_us / odd_modpow_us
//                        (bench/check_ratios.py gates it at >= 5)
void BM_ModPowRatio(benchmark::State& state) {
  Rng rng(10);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt odd = BigInt::GeneratePrime(bits, &rng);
  BigInt even = odd + BigInt(1);
  BigInt base = BigInt::RandomBelow(odd, &rng);
  BigInt exponent = BigInt::RandomWithBits(bits, &rng);
  auto probe_us = [&](const BigInt& modulus) {
    auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(BigInt::ModPow(base, exponent, modulus));
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
               .count() /
           1e3;
  };
  // Minimum of a fixed probe count, interleaved so both sides see the
  // same machine state.
  constexpr int kProbes = 8;
  double odd_us = 0.0;
  double even_us = 0.0;
  for (int i = 0; i < kProbes; ++i) {
    double o = probe_us(odd);
    double e = probe_us(even);
    if (i == 0 || o < odd_us) odd_us = o;
    if (i == 0 || e < even_us) even_us = e;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModPow(base, exponent, odd));
  }
  state.counters["odd_modpow_us"] = odd_us;
  state.counters["even_modpow_us"] = even_us;
  state.counters["montgomery_speedup"] =
      odd_us > 0.0 ? even_us / odd_us : 0.0;
}
BENCHMARK(BM_ModPowRatio)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace crypto
}  // namespace discsec

DISCSEC_BENCH_MAIN("crypto");
