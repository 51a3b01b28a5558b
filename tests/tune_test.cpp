// Tests of the shape-class auto-tuner and its persistent cache (ISSUE 4):
// shape bucketing, cache round-trips, every corrupt-file fallback path,
// tuner determinism, concurrent cache use (exercised under TSan in CI),
// and the engine/runtime integration of the PlanProvider hook.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/tune/tuner.hpp"

namespace {

using namespace ftm;
using tune::LoadStatus;
using tune::ShapeClass;
using tune::TunedEntry;
using tune::Tuner;
using tune::TuningCache;

TunedEntry make_entry(std::size_t m, std::size_t n, std::size_t k) {
  TunedEntry e;
  e.cls = ShapeClass::of(m, n, k, 8);
  e.strategy = core::Strategy::ParallelM;
  e.mblocks = core::initial_m_blocks(isa::default_machine());
  e.m = m;
  e.n = n;
  e.k = k;
  e.tuned_cycles = 100;
  e.default_cycles = 200;
  e.seed = 7;
  return e;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(ShapeClassTest, BucketsAreFloorLog2) {
  EXPECT_EQ(tune::shape_bucket(1), 0);
  EXPECT_EQ(tune::shape_bucket(2), 1);
  EXPECT_EQ(tune::shape_bucket(3), 1);
  EXPECT_EQ(tune::shape_bucket(4), 2);
  EXPECT_EQ(tune::shape_bucket(262144), 18);
}

TEST(ShapeClassTest, NearbyShapesShareAClass) {
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8),
            ShapeClass::of(300000, 40, 63, 8));
  EXPECT_NE(ShapeClass::of(262144, 32, 32, 8),
            ShapeClass::of(262144, 32, 32, 4));
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8).key(), "m18-n5-k5-c8");
}

TEST(ShapeClassTest, DtypeIsAClassAxis) {
  // F32 keys keep the schema-1 spelling; half classes are distinct and
  // carry a -dt suffix.
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F32).key(),
            "m18-n5-k5-c8");
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F16).key(),
            "m18-n5-k5-c8-dt2");
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::BF16).key(),
            "m18-n5-k5-c8-dt3");
  EXPECT_NE(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F16),
            ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::BF16));
  EXPECT_NE(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F16),
            ShapeClass::of(262144, 32, 32, 8));
}

TEST(ShapeClassTest, MachineHashSeesEveryField) {
  isa::MachineConfig a = isa::default_machine();
  isa::MachineConfig b = a;
  EXPECT_EQ(tune::machine_hash(a), tune::machine_hash(b));
  b.am_bytes += 1;
  EXPECT_NE(tune::machine_hash(a), tune::machine_hash(b));
}

TEST(TuningCacheTest, PutFindRoundTrip) {
  TuningCache cache;
  EXPECT_EQ(cache.size(), 0u);
  cache.put(make_entry(262144, 32, 32));
  ASSERT_EQ(cache.size(), 1u);
  const auto hit = cache.find(ShapeClass::of(262144, 32, 32, 8));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tuned_cycles, 100u);
  EXPECT_FALSE(cache.find(ShapeClass::of(32, 32, 262144, 8)).has_value());
}

TEST(TuningCacheTest, SerializeDeserializeIdentical) {
  TuningCache cache;
  cache.put(make_entry(262144, 32, 32));
  cache.put(make_entry(32, 32, 262144));
  const std::string text = cache.serialize();
  TuningCache loaded;
  ASSERT_EQ(loaded.deserialize(text), LoadStatus::Ok);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.serialize(), text);  // byte-stable round trip
}

TEST(TuningCacheTest, SaveLoadFile) {
  const std::string path = temp_path("tune_cache_roundtrip.json");
  TuningCache cache;
  cache.put(make_entry(262144, 32, 32));
  ASSERT_TRUE(cache.save(path));
  TuningCache loaded;
  EXPECT_EQ(loaded.load(path), LoadStatus::Ok);
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
}

TEST(TuningCacheTest, MissingFileFallsBack) {
  TuningCache cache;
  EXPECT_EQ(cache.load(temp_path("definitely_missing_cache.json")),
            LoadStatus::FileMissing);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCacheTest, CorruptFileFallsBack) {
  TuningCache cache;
  EXPECT_EQ(cache.deserialize("{not json at all"), LoadStatus::ParseError);
  EXPECT_EQ(cache.deserialize(""), LoadStatus::ParseError);
  EXPECT_EQ(cache.deserialize("[1,2,3]"), LoadStatus::ParseError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCacheTest, TruncatedFileFallsBack) {
  TuningCache full;
  full.put(make_entry(262144, 32, 32));
  const std::string text = full.serialize();
  TuningCache cache;
  for (const std::size_t cut : {text.size() / 4, text.size() / 2,
                                text.size() - 3}) {
    EXPECT_EQ(cache.deserialize(text.substr(0, cut)), LoadStatus::ParseError)
        << "cut at " << cut;
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCacheTest, SchemaMismatchFallsBack) {
  TuningCache full;
  full.put(make_entry(262144, 32, 32));
  std::string text = full.serialize();
  const std::string from = "\"schema\": 2";
  text.replace(text.find(from), from.size(), "\"schema\": 999");
  TuningCache cache;
  EXPECT_EQ(cache.deserialize(text), LoadStatus::SchemaMismatch);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCacheTest, SchemaV1FileFallsBackToAnalytic) {
  // A pre-ISSUE-10 cache file (schema 1, no "dtype" field) must load as
  // SchemaMismatch — same engine behavior as a missing file — and leave
  // the in-memory cache untouched.
  const std::string v1 =
      "{\n  \"schema\": 1,\n  \"machine\": \"0000000000000000\",\n"
      "  \"entries\": [\n"
      "    {\"class\": \"m18-n5-k5-c8\", \"mb\": 18, \"nb\": 5, \"kb\": 5,"
      " \"cores\": 8,\n     \"strategy\": \"ftimm-M\", \"m\": 262144,"
      " \"n\": 32, \"k\": 32, \"dma_buffers\": 2,\n"
      "     \"tuned_cycles\": 123, \"default_cycles\": 456, \"seed\": 1,\n"
      "     \"blocks\": {\"kg\": 5888, \"ng\": 96, \"ma\": 320,"
      " \"na\": 96, \"ka\": 864, \"ms\": 8}}\n  ]\n}\n";
  TuningCache cache;
  EXPECT_EQ(cache.deserialize(v1), LoadStatus::SchemaMismatch);
  EXPECT_EQ(cache.size(), 0u);
  core::FtimmOptions opt;
  EXPECT_FALSE(cache.lookup(262144, 32, 32, opt).has_value());
}

TEST(TuningCacheTest, DtypeEntriesRoundTrip) {
  TuningCache cache;
  TunedEntry h = make_entry(262144, 32, 32);
  h.cls = ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F16);
  cache.put(h);
  const std::string text = cache.serialize();
  EXPECT_NE(text.find("-dt2"), std::string::npos);
  TuningCache loaded;
  ASSERT_EQ(loaded.deserialize(text), LoadStatus::Ok);
  EXPECT_EQ(loaded.serialize(), text);
  ASSERT_TRUE(loaded.find(h.cls).has_value());

  // lookup() keys on the request dtype: the F16 entry is invisible to an
  // F32 request.
  core::FtimmOptions f32;
  EXPECT_FALSE(loaded.lookup(262144, 32, 32, f32).has_value());
  core::FtimmOptions f16 = f32;
  f16.dtype = kernelgen::DType::F16;
  EXPECT_TRUE(loaded.lookup(262144, 32, 32, f16).has_value());
}

TEST(TunerTest, HalfEntriesTuneIntoTheirOwnClass) {
  const isa::MachineConfig mc = isa::default_machine();
  tune::TunerOptions to;
  to.dtype = kernelgen::DType::BF16;
  Tuner tuner(mc, to);
  TuningCache cache(mc);
  tuner.tune_into(cache, {{4096, 64, 4096}});
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.entries()[0].cls.dtype,
            static_cast<int>(kernelgen::DType::BF16));
  core::FtimmOptions bf16;
  bf16.dtype = kernelgen::DType::BF16;
  EXPECT_TRUE(cache.lookup(4096, 64, 4096, bf16).has_value());
  core::FtimmOptions f32;
  EXPECT_FALSE(cache.lookup(4096, 64, 4096, f32).has_value());
}

TEST(TuningCacheTest, MachineMismatchFallsBack) {
  TuningCache full;
  full.put(make_entry(262144, 32, 32));
  isa::MachineConfig other = isa::default_machine();
  other.am_bytes /= 2;
  TuningCache cache(other);
  EXPECT_EQ(cache.deserialize(full.serialize()),
            LoadStatus::MachineMismatch);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCacheTest, BadEntryRejectsWholeFileWithoutPartialApply) {
  TuningCache full;
  full.put(make_entry(262144, 32, 32));
  full.put(make_entry(32, 32, 262144));
  const std::string text = full.serialize();
  // Corrupt the *second* entry's strategy: a staged parse must not keep
  // the first one either.
  std::string bogus = text;
  const auto pos = bogus.rfind("ftimm-M");
  ASSERT_NE(pos, std::string::npos);
  bogus.replace(pos, 7, "bogus!!");
  // A schema-2 file written when "strassen" was still a strategy: the
  // name is no longer known, so the whole file is a bad entry.
  std::string retired = text;
  const auto spos = retired.rfind("\"ftimm-M\"");
  const auto bpos = retired.find("\"blocks\": {", spos);
  const auto bend = retired.find('}', bpos);
  ASSERT_NE(bend, std::string::npos);
  retired.replace(bpos, bend + 1 - bpos, "\"blocks\": {\"cutoff\": 8192}");
  retired.replace(spos, 9, "\"strassen\"");
  for (const std::string& doc : {bogus, retired}) {
    TuningCache cache;
    EXPECT_EQ(cache.deserialize(doc), LoadStatus::ParseError) << doc;
    EXPECT_EQ(cache.size(), 0u);
  }
}

TEST(TuningCacheTest, LoadMergesLastWriteWins) {
  TuningCache a;
  a.put(make_entry(262144, 32, 32));
  TuningCache b;
  TunedEntry e = make_entry(262144, 32, 32);
  e.tuned_cycles = 42;
  b.put(e);
  ASSERT_EQ(a.deserialize(b.serialize()), LoadStatus::Ok);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.find(e.cls)->tuned_cycles, 42u);
}

TEST(TuningCacheTest, LookupRebindsSeedToShape) {
  const isa::MachineConfig mc = isa::default_machine();
  Tuner tuner(mc, {});
  TuningCache cache(mc);
  tuner.tune_into(cache, {{262144, 32, 32}});
  core::FtimmOptions opt;
  // Exact tuned shape hits.
  const auto p = cache.lookup(262144, 32, 32, opt);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->tuned);
  EXPECT_GT(p->dma_buffers, 0);
  // A different member of the same class still gets a (re-bound) plan.
  EXPECT_TRUE(cache.lookup(300000, 40, 40, opt).has_value());
  // A different class misses.
  EXPECT_FALSE(cache.lookup(64, 64, 64, opt).has_value());
  EXPECT_GE(cache.hits(), 2u);
  EXPECT_GE(cache.misses(), 1u);
}

TEST(TunerTest, TunedNeverSlowerThanDefault) {
  Tuner tuner(isa::default_machine(), {});
  for (const auto& s :
       std::vector<Tuner::Shape>{{262144, 32, 32}, {32, 32, 262144},
                                 {2048, 2048, 2048}}) {
    const auto r = tuner.tune(s.m, s.n, s.k);
    EXPECT_LE(r.entry.tuned_cycles, r.entry.default_cycles)
        << s.m << "x" << s.n << "x" << s.k;
    EXPECT_GT(r.evaluated, 0);
  }
}

TEST(TunerTest, DeterministicAcrossRuns) {
  const std::vector<Tuner::Shape> shapes = {{262144, 32, 32},
                                            {8192, 96, 8192}};
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Tuner tuner(isa::default_machine(), {});
    TuningCache cache;
    tuner.tune_into(cache, shapes);
    if (run == 0) {
      first = cache.serialize();
    } else {
      EXPECT_EQ(cache.serialize(), first);  // byte-identical cache files
    }
  }
}

// Exercised under TSan in CI: concurrent lookups while a tuner thread
// keeps publishing entries must be race-free (shared_mutex + staged
// deserialize).
TEST(TuningCacheTest, ConcurrentReadersAndWriters) {
  TuningCache cache;
  const std::string snapshot = [&] {
    TuningCache full;
    full.put(make_entry(262144, 32, 32));
    full.put(make_entry(32, 32, 262144));
    return full.serialize();
  }();
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      TunedEntry e = make_entry(262144, 32, 32);
      e.tuned_cycles = static_cast<std::uint64_t>(i);
      cache.put(e);
      if (i % 50 == 0) cache.deserialize(snapshot);
    }
  });
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      core::FtimmOptions opt;
      for (int i = 0; i < 200; ++i) {
        cache.lookup(262144, 32, 32, opt);
        cache.find(ShapeClass::of(32, 32, 262144, 8));
        cache.serialize();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(cache.size(), 1u);
}

TEST(EngineIntegrationTest, ProviderServesTunedPlans) {
  const isa::MachineConfig mc = isa::default_machine();
  Tuner tuner(mc, {});
  auto cache = std::make_shared<TuningCache>(mc);
  tuner.tune_into(*cache, {{262144, 32, 32}});

  core::FtimmEngine eng(mc);
  core::FtimmOptions opt;
  opt.functional = false;
  const core::GemmPlan before = eng.plan(262144, 32, 32, opt);
  EXPECT_FALSE(before.tuned);

  eng.set_plan_provider(cache);
  const core::GemmPlan tuned = eng.plan(262144, 32, 32, opt);
  EXPECT_TRUE(tuned.tuned);
  const auto r = eng.sgemm(core::GemmInput::shape_only(262144, 32, 32), opt);
  EXPECT_LE(r.cycles, eng.tgemm(core::GemmInput::shape_only(262144, 32, 32),
                                opt)
                          .cycles);

  // Forced strategies and static blocks bypass the provider.
  core::FtimmOptions forced = opt;
  forced.force = core::Strategy::TGemm;
  EXPECT_FALSE(eng.plan(262144, 32, 32, forced).tuned);
  core::FtimmOptions stat = opt;
  stat.dynamic_blocks = false;
  EXPECT_FALSE(eng.plan(262144, 32, 32, stat).tuned);

  eng.set_plan_provider(nullptr);
  EXPECT_FALSE(eng.plan(262144, 32, 32, opt).tuned);
}

TEST(EngineIntegrationTest, TunedPlanMatchesTunerObjective) {
  const isa::MachineConfig mc = isa::default_machine();
  Tuner tuner(mc, {});
  auto cache = std::make_shared<TuningCache>(mc);
  const auto reports = tuner.tune_into(*cache, {{262144, 32, 32}});
  core::FtimmEngine eng(mc);
  eng.set_plan_provider(cache);
  core::FtimmOptions opt;
  opt.functional = false;
  const auto r = eng.sgemm(core::GemmInput::shape_only(262144, 32, 32), opt);
  // The engine replays exactly the plan the tuner measured.
  EXPECT_EQ(r.cycles, reports[0].entry.tuned_cycles);
}

TEST(RuntimeIntegrationTest, TuningOptionWiresEveryCluster) {
  const isa::MachineConfig mc = isa::default_machine();
  Tuner tuner(mc, {});
  auto cache = std::make_shared<TuningCache>(mc);
  tuner.tune_into(*cache, {{262144, 32, 32}});

  runtime::RuntimeOptions ro;
  ro.clusters = 2;
  ro.gemm.functional = false;
  ro.tuning = cache;
  // A split shard's halved M can land in a different shape class (and
  // therefore miss the cache); keep the count exact.
  ro.split_wide = false;
  runtime::GemmRuntime rt(ro, mc);
  std::vector<std::future<core::GemmResult>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(rt.submit(core::GemmInput::shape_only(262144, 32, 32)));
  }
  for (auto& f : futs) f.get();
  const auto s = rt.stats();
  // A cached plan keeps its tuned flag, so every dispatch counts.
  EXPECT_EQ(s.tuned_plans, 4u);
  bool saw_tuned = false;
  for (const auto& r : rt.request_log()) saw_tuned |= r.tuned_plan;
  EXPECT_TRUE(saw_tuned);
}

}  // namespace
