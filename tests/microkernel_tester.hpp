// One micro-kernel tester for every dtype, in the builder idiom of NNPACK's
// GemmMicroKernelTester:
//
//   MicroKernelTester().dtype(DType::F16).ms(7).ka(50).na(33).test();
//
// test() runs the generated program on the detailed VLIW core, then the
// host replay (MicroKernel::run_fast*) on every SIMD tier this host
// supports, and demands bit-identical C — pad lanes included, since every
// B and C lane holds random data — plus the calibrated cycle count from
// each replay. The detailed core is the reference: it executes the very
// FMA chains the replay has to reproduce.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/sim/core.hpp"
#include "ftm/util/half.hpp"
#include "ftm/util/prng.hpp"

namespace ftm::kernelgen {

class MicroKernelTester {
 public:
  MicroKernelTester& ms(int v) {
    spec_.ms = v;
    return *this;
  }
  MicroKernelTester& ka(int v) {
    spec_.ka = v;
    return *this;
  }
  MicroKernelTester& na(int v) {
    spec_.na = v;
    return *this;
  }
  MicroKernelTester& load_c(bool v) {
    spec_.load_c = v;
    return *this;
  }
  MicroKernelTester& dtype(DType v) {
    spec_.dtype = v;
    return *this;
  }

  /// Every tier the host supports; the scalar tier always.
  static std::vector<hostsimd::Tier> tiers() {
    const hostsimd::Tier prev = hostsimd::active_tier();
    std::vector<hostsimd::Tier> out;
    for (const auto t : {hostsimd::Tier::Scalar, hostsimd::Tier::Avx2,
                         hostsimd::Tier::Neon}) {
      if (hostsimd::set_active_tier(t) == t) out.push_back(t);
    }
    hostsimd::set_active_tier(prev);
    return out;
  }

  void test() const {
    SCOPED_TRACE(describe());
    const isa::MachineConfig& mc = isa::default_machine();
    const MicroKernel uk(spec_, mc);
    std::vector<std::uint8_t> a(spec_.a_bytes()), b(spec_.b_bytes()),
        c0(spec_.c_bytes());
    fill(a, b, c0);

    sim::DspCore core(mc);
    const sim::Region ra = core.sm().alloc(a.size());
    const sim::Region rb = core.am().alloc(b.size());
    const sim::Region rc = core.am().alloc(c0.size());
    std::memcpy(core.sm().raw(ra.offset, a.size()), a.data(), a.size());
    std::memcpy(core.am().raw(rb.offset, b.size()), b.data(), b.size());
    std::memcpy(core.am().raw(rc.offset, c0.size()), c0.data(), c0.size());
    uk.run_detailed(core, ra.offset, rb.offset, rc.offset);
    const std::uint8_t* detailed = core.am().raw(rc.offset, c0.size());

    const hostsimd::Tier prev = hostsimd::active_tier();
    for (const hostsimd::Tier t : tiers()) {
      hostsimd::set_active_tier(t);
      std::vector<std::uint8_t> c = c0;
      const std::uint64_t cycles = run_fast(uk, a, b, c);
      EXPECT_EQ(cycles, uk.cycles()) << hostsimd::to_string(t);
      const std::size_t bad = first_mismatch(c.data(), detailed);
      EXPECT_EQ(bad, c.size() / acc_bytes(spec_.dtype))
          << "tier " << hostsimd::to_string(t) << ": C differs at " << bad;
    }
    hostsimd::set_active_tier(prev);
  }

 private:
  std::string describe() const {
    std::string d = to_string(spec_.dtype);
    d += " ms=" + std::to_string(spec_.ms);
    d += " ka=" + std::to_string(spec_.ka);
    d += " na=" + std::to_string(spec_.na);
    return d + " load_c=" + std::to_string(spec_.load_c);
  }

  /// Index of the first C element that differs, or the element count.
  std::size_t first_mismatch(const std::uint8_t* x,
                             const std::uint8_t* y) const {
    const std::size_t w = acc_bytes(spec_.dtype);
    const std::size_t n = spec_.c_bytes() / w;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::memcmp(x + i * w, y + i * w, w) != 0) return i;
    }
    return n;
  }

  /// Random operands in every byte, pad lanes included. Half operands mix
  /// in values that round to FP16 subnormals (1 in 7), so the exact
  /// widening of every tier is exercised.
  void fill(std::vector<std::uint8_t>& a, std::vector<std::uint8_t>& b,
            std::vector<std::uint8_t>& c) const {
    Prng rng(static_cast<std::uint64_t>(spec_.ms) * 1000003u +
             static_cast<std::uint64_t>(spec_.ka) * 97u +
             static_cast<std::uint64_t>(spec_.na) * 7u +
             static_cast<std::uint64_t>(spec_.dtype));
    const auto fill_as = [](std::vector<std::uint8_t>& v, auto gen) {
      using T = decltype(gen());
      for (std::size_t i = 0; i < v.size(); i += sizeof(T)) {
        const T x = gen();
        std::memcpy(v.data() + i, &x, sizeof(T));
      }
    };
    if (spec_.dtype == DType::F64) {
      const auto gen = [&rng] { return rng.next_double() * 2.0 - 1.0; };
      fill_as(a, gen);
      fill_as(b, gen);
      fill_as(c, gen);
      return;
    }
    const auto gen_f = [&rng] { return rng.next_float(-1, 1); };
    fill_as(c, gen_f);
    if (spec_.dtype == DType::F32) {
      fill_as(a, gen_f);
      fill_as(b, gen_f);
      return;
    }
    const bool bf = spec_.dtype == DType::BF16;
    std::uint64_t n = 0;
    const auto gen_h = [&rng, &n, bf] {
      const float scale = (n++ % 7 == 0) ? 1e-6f : 1.0f;
      return util::f32_to_half(rng.next_float(-1, 1) * scale, bf);
    };
    fill_as(a, gen_h);
    fill_as(b, gen_h);  // a B pair word is two k-adjacent halves
  }

  std::uint64_t run_fast(const MicroKernel& uk,
                         const std::vector<std::uint8_t>& a,
                         const std::vector<std::uint8_t>& b,
                         std::vector<std::uint8_t>& c) const {
    switch (spec_.dtype) {
      case DType::F32:
        return uk.run_fast(reinterpret_cast<const float*>(a.data()),
                           reinterpret_cast<const float*>(b.data()),
                           reinterpret_cast<float*>(c.data()));
      case DType::F64:
        return uk.run_fast_f64(reinterpret_cast<const double*>(a.data()),
                               reinterpret_cast<const double*>(b.data()),
                               reinterpret_cast<double*>(c.data()));
      default:
        return uk.run_fast_half(
            reinterpret_cast<const std::uint16_t*>(a.data()),
            reinterpret_cast<const std::uint32_t*>(b.data()),
            reinterpret_cast<float*>(c.data()));
    }
  }

  KernelSpec spec_;
};

}  // namespace ftm::kernelgen
