// Unit tests for src/util: RNG determinism, statistics, tables, CLI, units.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace tshmem_util;

// --- RNG ---------------------------------------------------------------------

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256, DeterministicAcrossInstances) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, ReseedRestartsStream) {
  Xoshiro256 a(123);
  const auto first = a.next();
  a.next();
  a.reseed(123);
  EXPECT_EQ(a.next(), first);
}

TEST(Xoshiro256, BelowRespectsBound) {
  Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Xoshiro256, BelowZeroBoundReturnsZero) {
  Xoshiro256 rng(5);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Xoshiro256, Uniform01InRange) {
  Xoshiro256 rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Xoshiro256, BelowIsRoughlyUniform) {
  Xoshiro256 rng(3);
  int counts[10] = {};
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
  }
}

// --- stats -------------------------------------------------------------------

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineStats, EmptyIsSafe) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeMatchesCombined) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.37;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 3.0);
}

TEST(SampleSet, PercentilesInterpolate) {
  SampleSet s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(SampleSet, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW((void)s.min(), std::logic_error);
  EXPECT_THROW((void)s.percentile(50), std::logic_error);
}

TEST(SampleSet, BadPercentileThrows) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101), std::invalid_argument);
}

TEST(LinearSlope, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.5 * i + 2.0);
  }
  EXPECT_NEAR(linear_slope(x, y), 3.5, 1e-12);
}

TEST(LinearSlope, RejectsBadInput) {
  EXPECT_THROW(linear_slope({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(linear_slope({1.0, 2.0}, {1.0}), std::invalid_argument);
}

TEST(Correlation, PerfectAndNone) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  std::vector<double> z{5, 5, 5, 5, 5};
  EXPECT_EQ(correlation(x, z), 0.0);  // zero variance
}

// --- table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::bytes(512), "512 B");
  EXPECT_EQ(Table::bytes(2048), "2 kB");
  EXPECT_EQ(Table::bytes(3 << 20), "3 MB");
}

// --- cli ---------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--pes", "16", "--device=gx36", "--csv",
                        "pos1"};
  Cli cli(6, const_cast<char**>(argv), {"csv"});
  EXPECT_EQ(cli.get_int("pes", 1), 16);
  EXPECT_EQ(cli.get_string("device", "?"), "gx36");
  EXPECT_TRUE(cli.get_flag("csv"));
  EXPECT_FALSE(cli.get_flag("missing"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("pes", 7), 7);
  EXPECT_EQ(cli.get_double("frac", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("device", "pro64"), "pro64");
}

TEST(Cli, BadNumberThrows) {
  const char* argv[] = {"prog", "--pes", "abc"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW((void)cli.get_int("pes", 1), std::invalid_argument);
}

TEST(Cli, RejectsEveryFlagNothingRead) {
  const char* argv[] = {"prog", "--pes", "4",    "--help", "--csv",
                        "--max-bytse", "1024", "--device", "gx36"};
  Cli cli(9, const_cast<char**>(argv), {"csv"});
  EXPECT_EQ(cli.get_int("pes", 1), 4);
  EXPECT_FALSE(cli.has("quiet"));  // asked for, though absent
  try {
    cli.reject_unknown();
    FAIL() << "unknown flags were accepted";
  } catch (const std::invalid_argument& e) {
    // Both strays are named; the declared bool flag and the reads are not.
    EXPECT_STREQ(e.what(),
                 "prog: unknown flag(s): --device --help --max-bytse");
  }
  (void)cli.get_string("device", "both");
  (void)cli.get_int("max-bytes", 0);  // the typo stays unread
  EXPECT_THROW(cli.reject_unknown(), std::invalid_argument);
  (void)cli.get_flag("help");
  (void)cli.get_int("max-bytse", 0);
  EXPECT_NO_THROW(cli.reject_unknown());
}

TEST(Cli, UsageErrorsNameTheProgramAndTheFlag) {
  const char* argv[] = {"prog", "--pes", "abc", "--device", "tile9"};
  Cli cli(5, const_cast<char**>(argv));
  try {
    (void)cli.get_int("pes", 1);
    FAIL() << "a bad number was accepted";
  } catch (const CliError& e) {
    EXPECT_STREQ(e.what(), "prog: flag --pes: expects an integer, got 'abc'");
  }
  const auto parse = [](const std::string& name) {
    if (name != "gx36") throw std::invalid_argument("unknown '" + name + "'");
    return 36;
  };
  try {
    (void)cli.get_as("device", "gx36", parse);
    FAIL() << "a bad device was accepted";
  } catch (const CliError& e) {
    EXPECT_STREQ(e.what(), "prog: flag --device: unknown 'tile9'");
  }
  const char* fine[] = {"prog"};
  EXPECT_EQ(Cli(1, const_cast<char**>(fine)).get_as("device", "gx36", parse),
            36);
}

TEST(Cli, MainReturnsTwoOnAUsageError) {
  const char* argv[] = {"prog", "--typo"};
  const auto strict = [](int argc, char** args) {
    Cli(argc, args).reject_unknown();
    return 0;
  };
  EXPECT_EQ(cli_main(1, const_cast<char**>(argv), strict), 0);
  testing::internal::CaptureStderr();
  EXPECT_EQ(cli_main(2, const_cast<char**>(argv), strict), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: unknown flag(s): --typo\n");
  // Any other exception is not a usage error and passes through.
  EXPECT_THROW(cli_main(1, const_cast<char**>(argv),
                        [](int, char**) -> int {
                          throw std::invalid_argument("not a flag");
                        }),
               std::invalid_argument);
}

// --- units -------------------------------------------------------------------

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(ps_to_ns(21'000), 21.0);
  EXPECT_DOUBLE_EQ(ps_to_us(1'500'000), 1.5);
  EXPECT_EQ(ns_to_ps(21.0), 21'000u);
  EXPECT_EQ(us_to_ps(1.5), 1'500'000u);
}

TEST(Units, BandwidthMath) {
  // 1 MB in 1 ms -> 1000 MB/s.
  EXPECT_NEAR(bandwidth_mbps(1'000'000, kPsPerMs), 1000.0, 1e-9);
  EXPECT_NEAR(bandwidth_gbps(1'000'000, kPsPerMs), 1.0, 1e-9);
  EXPECT_EQ(bandwidth_mbps(100, 0), 0.0);
}

TEST(Units, TransferTimeRoundTrips) {
  const auto t = transfer_time_ps(1'000'000, 1000.0);
  EXPECT_EQ(t, kPsPerMs);
  EXPECT_EQ(transfer_time_ps(100, 0.0), 0u);
}

}  // namespace
