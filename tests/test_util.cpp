// Unit tests for the util layer: PRNG determinism and distribution sanity,
// bit operations, statistics, and table formatting.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "util/bitops.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/args.hpp"
#include "util/types.hpp"

namespace tilespmspv {
namespace {

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 16), 1);
}

TEST(Types, RoundUp) {
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(12, 4), 12);
  EXPECT_EQ(round_up(0, 4), 0);
}

TEST(Types, IndexDivIsExactFloorDivision) {
  const index_t kMax = std::numeric_limits<index_t>::max();
  std::vector<index_t> divisors;
  for (index_t d = 1; d <= 300; ++d) divisors.push_back(d);
  for (const index_t d : {1000, 4096, 16384, 65535, 1 << 20, 999999937,
                          (1 << 30) + 1, kMax - 1, kMax}) {
    divisors.push_back(d);
  }
  Prng rng(0x1D1F);
  for (const index_t d : divisors) {
    const IndexDiv div(d);
    std::vector<index_t> as = {0, 1, d - 1, d, kMax, kMax - 1};
    if (d < kMax / 2) as.push_back(2 * d - 1);
    for (int i = 0; i < 200; ++i) {
      as.push_back(static_cast<index_t>(rng.next_below(
          static_cast<std::uint64_t>(kMax) + 1)));
    }
    for (const index_t a : as) {
      ASSERT_EQ(div(a), a / d) << "a=" << a << " d=" << d;
    }
  }
}

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, NextBelowInRange) {
  Prng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Prng, NextDoubleInUnitInterval) {
  Prng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // mean of U[0,1)
}

TEST(Prng, BernoulliFrequency) {
  Prng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Bitops, MsbBitMatchesPaperEncoding) {
  // Paper Fig. 5 writes the length-4 tile {1,0,0,0} as the value 8.
  using W4 = std::uint8_t;  // only the top 4 bits matter for NT=4 examples
  EXPECT_EQ(msb_bit<std::uint8_t>(0), 0x80);
  EXPECT_EQ(msb_bit<std::uint8_t>(7), 0x01);
  EXPECT_EQ(msb_bit<std::uint32_t>(0), 0x80000000u);
  EXPECT_EQ(msb_bit<std::uint64_t>(63), 1ull);
  (void)sizeof(W4);
}

TEST(Bitops, TestMsbBit) {
  const std::uint32_t w = msb_bit<std::uint32_t>(3) | msb_bit<std::uint32_t>(30);
  EXPECT_TRUE(test_msb_bit(w, 3));
  EXPECT_TRUE(test_msb_bit(w, 30));
  EXPECT_FALSE(test_msb_bit(w, 0));
  EXPECT_FALSE(test_msb_bit(w, 31));
}

TEST(Bitops, ForEachSetBitVisitsAllInOrder) {
  std::uint64_t w = 0;
  for (int i : {0, 5, 17, 63}) w |= msb_bit<std::uint64_t>(i);
  std::vector<int> seen;
  for_each_set_bit(w, [&](int b) { seen.push_back(b); });
  EXPECT_EQ(seen, (std::vector<int>{0, 5, 17, 63}));
}

TEST(Bitops, ForEachSetBitEmpty) {
  int count = 0;
  for_each_set_bit<std::uint32_t>(0, [&](int) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(Bitops, PopcountAllWidths) {
  EXPECT_EQ(popcount<std::uint16_t>(0xFFFF), 16);
  EXPECT_EQ(popcount<std::uint32_t>(0), 0);
  EXPECT_EQ(popcount<std::uint64_t>(~0ull), 64);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, PercentAboveOne) {
  EXPECT_DOUBLE_EQ(percent_above_one({2.0, 0.5, 3.0, 1.0}), 50.0);
  EXPECT_DOUBLE_EQ(percent_above_one({}), 0.0);
}

TEST(Stats, SpeedupAggregate) {
  SpeedupAggregate agg;
  agg.add(1.0, 2.0);   // 2x speedup
  agg.add(1.0, 0.5);   // 0.5x
  agg.add(2.0, 16.0);  // 8x
  EXPECT_EQ(agg.count(), 3u);
  EXPECT_NEAR(agg.geomean_speedup(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(agg.max_speedup(), 8.0);
  EXPECT_NEAR(agg.win_rate_percent(), 100.0 * 2 / 3, 1e-9);
}

TEST(Stats, MinMaxMean) {
  EXPECT_DOUBLE_EQ(max_of({1.0, 5.0, 3.0}), 5.0);
  EXPECT_DOUBLE_EQ(min_of({1.0, 5.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 100.0), 7.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.0), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 100.0), 3.0);
}

TEST(Stats, PercentileClampsOutOfRangeP) {
  // p outside [0, 100] clamps to the nearest end — the documented
  // contract for degenerate inputs, not UB.
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, -10.0), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 250.0), 3.0);
  EXPECT_EQ(percentile({7.0}, -1.0), 7.0);
  EXPECT_EQ(percentile({7.0}, 101.0), 7.0);
}

TEST(Stats, MeanAndMinDegenerateInputs) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(mean({4.5}), 4.5);
  EXPECT_EQ(min_of({}), 0.0);
  EXPECT_EQ(min_of({4.5}), 4.5);
  EXPECT_EQ(max_of({}), 0.0);
}

#ifdef NDEBUG
TEST(Stats, GeomeanSkipsNonPositiveInRelease) {
  // Non-positive samples assert in debug builds; in release they are
  // skipped so one bad sample cannot poison a whole aggregate.
  EXPECT_DOUBLE_EQ(geomean({4.0, 0.0, 1.0, -2.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
}
#endif

TEST(Stats, PercentileInterpolatesBetweenOrderStatistics) {
  // Unsorted on purpose: percentile() sorts its own copy.
  const std::vector<double> xs = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 17.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 32.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 95.0), 38.5);
  // p50 of an odd-length vector is the middle element exactly.
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
}

TEST(Table, AlignedOutputContainsCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Args, FlagsAndValues) {
  const char* argv[] = {"prog", "bfs",     "--matrix", "a.mtx",
                        "--iters", "7",    "--verbose"};
  Args args(7, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("--verbose"));
  EXPECT_FALSE(args.has("--quiet"));
  EXPECT_EQ(args.get("--matrix"), "a.mtx");
  EXPECT_EQ(args.get("--missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("--iters", 1), 7);
  EXPECT_EQ(args.get_int("--nope", 3), 3);
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"bfs"}));
}

TEST(Args, DoubleParsing) {
  const char* argv[] = {"prog", "--sparsity", "0.001"};
  Args args(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("--sparsity", 1.0), 0.001);
  EXPECT_DOUBLE_EQ(args.get_double("--alpha", 0.85), 0.85);
}

TEST(Args, MissingValueThrows) {
  const char* argv[] = {"prog", "--matrix"};
  Args args(2, const_cast<char**>(argv));
  EXPECT_THROW(args.get("--matrix"), std::invalid_argument);
}

TEST(Args, UnknownFlagIsDetected) {
  // A typo'd switch (--metircs) must surface as a usage error, not be
  // silently ignored.
  const char* argv[] = {"prog", "spmspv", "--metircs", "out.json"};
  Args args(4, const_cast<char**>(argv));
  EXPECT_EQ(args.first_unknown_flag({"--metrics", "--json"}), "--metircs");
  EXPECT_THROW(args.reject_unknown({"--metrics", "--json"}),
               std::invalid_argument);
}

TEST(Args, KnownFlagsPassTheGuard) {
  const char* argv[] = {"prog",      "bfs",  "--matrix", "a.mtx",
                        "--verbose", "positional"};
  Args args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.first_unknown_flag({"--matrix", "--verbose"}), "");
  EXPECT_NO_THROW(args.reject_unknown({"--matrix", "--verbose"}));
}

TEST(Args, FlagValueIsNeverTreatedAsFlag) {
  // A known flag consumes its value token, so a value that merely looks
  // odd (a file named like a word) cannot trip the guard; only genuine
  // `--` tokens are checked.
  const char* argv[] = {"prog", "--out", "report.json", "--tier", "quick"};
  Args args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.first_unknown_flag({"--out", "--tier"}), "");
  // But an unknown flag in value position of a boolean switch is caught.
  const char* argv2[] = {"prog", "--verbose", "--metircs"};
  Args args2(3, const_cast<char**>(argv2));
  EXPECT_EQ(args2.first_unknown_flag({"--verbose", "--metrics"}),
            "--metircs");
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_count(503000), "503K");
  EXPECT_EQ(fmt_count(17000000), "17M");
  EXPECT_EQ(fmt_count(42), "42");
}

}  // namespace
}  // namespace tilespmspv
