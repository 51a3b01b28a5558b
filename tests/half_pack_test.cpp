// Host-side half operand packing (docs/precision.md): hostsimd::narrow_half
// against the util::f32_to_half reference over every FP32 bit pattern on
// every supported tier, pack_a_half/pack_b_half against plain reference
// loops on the layout edge cases, and hgemm_f32's host_wall_us covering
// the packing it does.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ftm/core/hgemm.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/util/half.hpp"
#include "ftm/util/prng.hpp"
#include "microkernel_tester.hpp"

namespace ftm::core {
namespace {

namespace hostsimd = kernelgen::hostsimd;
using hostsimd::Tier;
using kernelgen::DType;
using kernelgen::MicroKernelTester;

/// Restores the installed SIMD tier on scope exit (tests force tiers).
struct TierGuard {
  Tier prev = hostsimd::active_tier();
  ~TierGuard() { hostsimd::set_active_tier(prev); }
};

const char* name(DType dt) { return dt == DType::BF16 ? "bf16" : "f16"; }

// ---- narrow_half: every FP32 bit pattern ---------------------------------

// 2^32 patterns per format in kShards ctest cases of 2^27 patterns each
// (about 0.3-0.6 s each in a RelWithDebInfo build on one AVX2 core).
constexpr int kShards = 32;
constexpr std::uint64_t kPerShard = (std::uint64_t{1} << 32) / kShards;

struct SweepShard {
  DType dtype;
  int shard;
};

class NarrowHalfSweep : public ::testing::TestWithParam<SweepShard> {};

TEST_P(NarrowHalfSweep, BitIdenticalToReferenceOnEveryVectorTier) {
  const auto [dtype, shard] = GetParam();
  const bool bf16 = dtype == DType::BF16;
  TierGuard guard;
  // The scalar tier's body is the reference loop itself; it is checked on
  // random bit patterns below, and the sweep covers every vector tier.
  std::vector<Tier> tiers = MicroKernelTester::tiers();
  std::erase(tiers, Tier::Scalar);
  if (tiers.empty()) GTEST_SKIP() << "no vector tier on this host";
  constexpr std::size_t kChunk = 4096;
  std::vector<float> in(kChunk);
  std::vector<std::uint16_t> expect(kChunk), got(kChunk);
  std::vector<std::uint64_t> mismatches(tiers.size(), 0);
  std::vector<std::uint32_t> first_bits(tiers.size(), 0);
  const std::uint64_t begin = static_cast<std::uint64_t>(shard) * kPerShard;
  for (std::uint64_t base = begin; base < begin + kPerShard; base += kChunk) {
    for (std::size_t i = 0; i < kChunk; ++i) {
      in[i] = util::f32_from_bits(static_cast<std::uint32_t>(base + i));
    }
    if (bf16) {
      for (std::size_t i = 0; i < kChunk; ++i) {
        expect[i] = util::f32_to_bf16(in[i]);
      }
    } else {
      for (std::size_t i = 0; i < kChunk; ++i) {
        expect[i] = util::f32_to_f16(in[i]);
      }
    }
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      hostsimd::set_active_tier(tiers[t]);
      hostsimd::narrow_half(in.data(), got.data(), kChunk, dtype);
      for (std::size_t i = 0; i < kChunk; ++i) {
        if (got[i] != expect[i] && mismatches[t]++ == 0) {
          first_bits[t] = static_cast<std::uint32_t>(base + i);
        }
      }
    }
  }
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0u)
        << name(dtype) << " on " << hostsimd::to_string(tiers[t])
        << ": first mismatch at f32 bits 0x" << std::hex << first_bits[t];
  }
}

std::vector<SweepShard> sweep_shards() {
  std::vector<SweepShard> out;
  for (const DType dt : {DType::F16, DType::BF16}) {
    for (int s = 0; s < kShards; ++s) out.push_back({dt, s});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBitPatterns, NarrowHalfSweep, ::testing::ValuesIn(sweep_shards()),
    [](const ::testing::TestParamInfo<SweepShard>& info) {
      return std::string(name(info.param.dtype)) + "_shard" +
             std::to_string(info.param.shard);
    });

/// Lengths around the 8-lane vector width run the scalar tails; the
/// output is written in place of nothing else (no stray stores past n).
TEST(NarrowHalf, TailsAndBoundsOnEveryTier) {
  TierGuard guard;
  Prng rng(17);
  for (const DType dt : {DType::F16, DType::BF16}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
      std::vector<float> in(n);
      for (float& x : in) {
        x = util::f32_from_bits(static_cast<std::uint32_t>(rng.next_u64()));
      }
      for (const Tier t : MicroKernelTester::tiers()) {
        hostsimd::set_active_tier(t);
        std::vector<std::uint16_t> out(n + 1, 0xABCDu);
        hostsimd::narrow_half(in.data(), out.data(), n, dt);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], util::f32_to_half(in[i], dt == DType::BF16))
              << name(dt) << " " << hostsimd::to_string(t) << " n=" << n
              << " i=" << i;
        }
        EXPECT_EQ(out[n], 0xABCDu) << "store past n";
      }
    }
  }
  EXPECT_THROW(hostsimd::narrow_half(nullptr, nullptr, 1, DType::F16),
               ContractViolation);
  float x = 1.0f;
  std::uint16_t h = 0;
  EXPECT_THROW(hostsimd::narrow_half(&x, &h, 1, DType::F32),
               ContractViolation);
}

// ---- pack_a_half / pack_b_half vs reference loops ------------------------

/// An M x K view with row pitch ld > K over random bit patterns (NaN,
/// inf, subnormals and rounding ties included); the pitch gap holds
/// values the packers must never read into the output.
struct Operand {
  std::vector<float> storage;
  ConstMatrixView view;
  Operand(std::size_t rows, std::size_t cols, std::size_t ld, Prng& rng)
      : storage(rows * ld) {
    for (float& x : storage) {
      x = util::f32_from_bits(static_cast<std::uint32_t>(rng.next_u64()));
    }
    view = ConstMatrixView(storage.data(), rows, cols, ld);
  }
};

std::vector<std::uint16_t> reference_pack_a(ConstMatrixView a, std::size_t kp,
                                            bool bf16) {
  std::vector<std::uint16_t> out(a.rows() * kp, 0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      out[r * kp + c] = util::f32_to_half(a(r, c), bf16);
    }
  }
  return out;
}

std::vector<std::uint32_t> reference_pack_b(ConstMatrixView b, std::size_t kp,
                                            bool bf16) {
  const std::size_t k = b.rows(), n = b.cols();
  std::vector<std::uint32_t> out((kp / 2) * n);
  for (std::size_t p = 0; p < kp / 2; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t lo =
          2 * p < k ? util::f32_to_half(b(2 * p, j), bf16) : 0u;
      const std::uint32_t hi =
          2 * p + 1 < k ? util::f32_to_half(b(2 * p + 1, j), bf16) : 0u;
      out[p * n + j] = lo | (hi << 16);
    }
  }
  return out;
}

TEST(HalfPack, PackAMatchesReferenceLoop) {
  TierGuard guard;
  Prng rng(3);
  struct Case {
    std::size_t rows, cols, ld, kp;
  };
  // cols off the 8-lane width (tails), ld > cols, kp == cols and kp > cols.
  for (const Case c : {Case{5, 13, 13, 16}, Case{3, 8, 11, 8},
                       Case{4, 33, 40, 36}, Case{1, 1, 3, 4},
                       Case{6, 17, 17, 20}}) {
    const Operand a(c.rows, c.cols, c.ld, rng);
    for (const DType dt : {DType::F16, DType::BF16}) {
      const auto expect = reference_pack_a(a.view, c.kp, dt == DType::BF16);
      for (const Tier t : MicroKernelTester::tiers()) {
        hostsimd::set_active_tier(t);
        std::vector<std::uint16_t> got(c.rows * c.kp, 0x5555u);
        pack_a_half(a.view, c.kp, got.data(), dt);
        EXPECT_EQ(got, expect) << name(dt) << " " << hostsimd::to_string(t)
                               << " " << c.rows << "x" << c.cols << " ld "
                               << c.ld << " kp " << c.kp;
      }
    }
  }
}

TEST(HalfPack, PackBMatchesReferenceLoop) {
  TierGuard guard;
  Prng rng(5);
  struct Case {
    std::size_t k, n, ld, kp;
  };
  // N of 1, 33 and 96; odd K (zero high half); kp past K (zero pairs).
  for (const Case c : {Case{9, 1, 1, 12}, Case{9, 33, 37, 10},
                       Case{16, 96, 96, 16}, Case{7, 96, 100, 12},
                       Case{1, 33, 33, 4}, Case{32, 13, 13, 32}}) {
    const Operand b(c.k, c.n, c.ld, rng);
    for (const DType dt : {DType::F16, DType::BF16}) {
      const auto expect = reference_pack_b(b.view, c.kp, dt == DType::BF16);
      for (const Tier t : MicroKernelTester::tiers()) {
        hostsimd::set_active_tier(t);
        std::vector<std::uint32_t> got((c.kp / 2) * c.n, 0x55555555u);
        pack_b_half(b.view, c.kp, got.data(), dt);
        EXPECT_EQ(got, expect) << name(dt) << " " << hostsimd::to_string(t)
                               << " k " << c.k << " n " << c.n << " ld "
                               << c.ld << " kp " << c.kp;
      }
    }
  }
}

// ---- hgemm_f32 host_wall_us ---------------------------------------------

/// host_wall_us is the host wall-clock of the call (types.hpp), so on a
/// shape whose time is mostly operand packing (large M x K, narrow N) it
/// must cover most of the wall time measured around the call, not only
/// the GEMM panels.
TEST(HalfPack, HostWallCoversPacking) {
  const std::size_t m = 1024, n = 4, k = 1024;
  HostMatrix a(m, k), b(k, n), c(m, n);
  Prng rng(11);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  FtimmEngine engine;
  FtimmOptions opt;
  opt.dtype = DType::F16;
  const auto in = GemmInput::bound(a.view(), b.view(), c.view());
  hgemm_f32(engine, in, opt);  // kernels generated outside the measurement
  const auto t0 = std::chrono::steady_clock::now();
  const GemmResult r = hgemm_f32(engine, in, opt);
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_GE(r.host_wall_us, 0.5 * wall_us);
  EXPECT_LE(r.host_wall_us, wall_us);
}

}  // namespace
}  // namespace ftm::core
