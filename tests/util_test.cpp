#include <gtest/gtest.h>

#include <limits>

#include "ftm/util/assert.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/matrix.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/reporter.hpp"
#include "ftm/util/stats.hpp"

namespace ftm {
namespace {

TEST(Assert, ExpectsThrowsOnViolation) {
  EXPECT_NO_THROW(FTM_EXPECTS(1 + 1 == 2));
  EXPECT_THROW(FTM_EXPECTS(1 + 1 == 3), ContractViolation);
  EXPECT_THROW(FTM_ENSURES(false), ContractViolation);
  EXPECT_THROW(FTM_ASSERT(false), ContractViolation);
}

TEST(Assert, MessageNamesExpression) {
  try {
    FTM_EXPECTS(2 < 1);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
  }
}

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Prng, DoublesInUnitInterval) {
  Prng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Prng, FloatsRespectRange) {
  Prng r(9);
  for (int i = 0; i < 1000; ++i) {
    const float f = r.next_float(-2.0f, 3.0f);
    EXPECT_GE(f, -2.0f);
    EXPECT_LT(f, 3.0f);
  }
}

TEST(Prng, NextBelowBounds) {
  Prng r(5);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.next_below(7), 7u);
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Matrix, HostMatrixZeroInitialized) {
  HostMatrix m(3, 4);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m.at(r, c), 0.0f);
}

TEST(Matrix, ViewIndexingAndBlocks) {
  HostMatrix m(4, 6);
  m.fill_indexed();
  MatrixView v = m.view();
  EXPECT_EQ(v.rows(), 4u);
  EXPECT_EQ(v.cols(), 6u);
  MatrixView blk = v.block(1, 2, 2, 3);
  EXPECT_EQ(blk.rows(), 2u);
  EXPECT_EQ(blk.ld(), 6u);
  EXPECT_EQ(blk(0, 0), v(1, 2));
  EXPECT_EQ(blk(1, 2), v(2, 4));
}

TEST(Matrix, BlockOutOfRangeThrows) {
  HostMatrix m(4, 4);
  EXPECT_THROW(m.view().block(2, 2, 3, 1), ContractViolation);
  EXPECT_THROW(m.view().at(4, 0), ContractViolation);
}

TEST(Matrix, MaxRelDiff) {
  HostMatrix a(2, 2), b(2, 2);
  a.fill(1.0f);
  b.fill(1.0f);
  EXPECT_EQ(max_rel_diff(a.view(), b.view()), 0.0);
  b.at(1, 1) = 1.1f;
  EXPECT_NEAR(max_rel_diff(a.view(), b.view()), 0.1 / 1.1, 1e-6);
}

TEST(Matrix, MaxRelDiffFlagsNonFinite) {
  HostMatrix ref(2, 2), c(2, 2);
  ref.fill(1.0f);
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), inf}) {
    c.fill(1.0f);
    c.at(0, 1) = bad;
    EXPECT_EQ(max_rel_diff(c.view(), ref.view()),
              std::numeric_limits<double>::infinity())
        << bad;
    EXPECT_EQ(max_rel_diff(ref.view(), c.view()),
              std::numeric_limits<double>::infinity())
        << bad;
  }
  // An Inf that equals its reference is no difference.
  c.fill(1.0f);
  c.at(1, 0) = inf;
  ref.at(1, 0) = inf;
  EXPECT_EQ(max_rel_diff(c.view(), ref.view()), 0.0);
}

TEST(Matrix, GemmToleranceGrowsWithK) {
  EXPECT_LT(gemm_tolerance(16), gemm_tolerance(1 << 20));
  EXPECT_GT(gemm_tolerance(1), 0.0);
}

TEST(Stats, Summary) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Stats, Geomean) {
  const double xs[] = {1.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, RunningMatchesBatch) {
  RunningStats rs;
  const double xs[] = {1.5, -2.0, 7.25, 0.0, 3.5};
  for (double x : xs) rs.add(x);
  const Summary s = summarize(xs);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-12);
  EXPECT_NEAR(rs.stddev(), s.stddev, 1e-12);
  EXPECT_EQ(rs.min(), s.min);
  EXPECT_EQ(rs.max(), s.max);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--m", "128", "--fast", "--ratio=2.5", "pos1"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("m", 0), 128);
  EXPECT_TRUE(cli.get_bool("fast", false));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0), 2.5);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, CheckRejectsUndeclaredFlagsAndArguments) {
  const char* ok[] = {"prog", "--m", "128", "--fast"};
  EXPECT_TRUE(Cli(4, ok).check("prog", {"m", "fast", "unused"}));
  const char* typo[] = {"prog", "--m=128", "--fats"};
  EXPECT_FALSE(Cli(3, typo).check("prog", {"m", "fast"}));
  const char* stray[] = {"prog", "--fast", "--m", "128", "extra"};
  EXPECT_FALSE(Cli(5, stray).check("prog", {"m", "fast"}));
  EXPECT_EQ(Cli::flag_list({"m", "fast"}), " [--m] [--fast]");
}

TEST(Reporter, TableRowsAndCsv) {
  Table t({"a", "b"});
  t.begin_row().cell(1.5, 1).cell(std::size_t{7});
  t.begin_row().cell("x").cell("y");
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.rows()[0][0], "1.5");
  const std::string path = ::testing::TempDir() + "/ftm_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,7");
}

TEST(Reporter, TooManyCellsThrows) {
  Table t({"only"});
  t.begin_row().cell("1");
  EXPECT_THROW(t.cell("2"), ContractViolation);
}

}  // namespace
}  // namespace ftm
