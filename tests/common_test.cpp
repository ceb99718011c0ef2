#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/key_values.hpp"
#include "src/common/parse.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/status.hpp"
#include "src/common/strings.hpp"
#include "src/common/table.hpp"
#include "src/common/units.hpp"

namespace uvs {
namespace {

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024u * 1024 * 1024);
  EXPECT_EQ(1_TiB, 1024ull * 1024 * 1024 * 1024);
}

TEST(Units, RateLiterals) {
  EXPECT_DOUBLE_EQ(1_GBps, 1e9);
  EXPECT_DOUBLE_EQ(2.5_GBps, 2.5e9);
  EXPECT_DOUBLE_EQ(100_MBps, 1e8);
}

TEST(Units, TimeLiterals) {
  EXPECT_DOUBLE_EQ(5_us, 5e-6);
  EXPECT_DOUBLE_EQ(3_ms, 3e-3);
  EXPECT_DOUBLE_EQ(2_sec, 2.0);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such file");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(InvalidArgumentError("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a(), child());
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, VarianceNeedsTwoSamples) {
  RunningStats s;
  s.Add(3.0);
  EXPECT_EQ(s.variance(), 0.0) << "one sample has no spread";
  EXPECT_EQ(s.stddev(), 0.0);
  s.Add(5.0);
  // Sample variance (n-1 denominator): ((3-4)^2 + (5-4)^2) / 1 = 2.
  EXPECT_NEAR(s.variance(), 2.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(Histogram, BucketsAndQuantile) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.Add(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_NEAR(h.Quantile(0.5), 5.0, 1.01);
  EXPECT_NEAR(h.Quantile(1.0), 10.0, 1e-9);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.Add(-5.0);
  h.Add(99.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  // Clamped samples are counted, not silently folded into the edges.
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  h.Add(0.5);  // in range: neither counter moves
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, EmptyQuantileIsLowerBound) {
  Histogram h(2.0, 10.0, 8);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(Histogram, QuantileExtremes) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.Add(static_cast<double>(i) + 0.5);
  // q=0 targets zero mass, satisfied by the first bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
}

TEST(Histogram, QuantileOfClampedSamplesStaysInRange) {
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 8; ++i) h.Add(-100.0);  // all land in the first bucket
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.25);
  for (int i = 0; i < 8; ++i) h.Add(100.0);  // and the last
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1.0);
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2_MiB), "2.0 MiB");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
}

TEST(Strings, HumanRate) {
  EXPECT_EQ(HumanRate(2.8e9), "2.80 GB/s");
  EXPECT_EQ(HumanRate(500.0), "500.00 B/s");
}

TEST(Strings, HumanTime) {
  EXPECT_EQ(HumanTime(1.5), "1.50 s");
  EXPECT_EQ(HumanTime(2e-3), "2.00 ms");
  EXPECT_EQ(HumanTime(3e-6), "3.00 us");
}

TEST(Parse, IntegersMustFillTheStringAndFitTheType) {
  EXPECT_EQ(*ParseInt<int>("42"), 42);
  EXPECT_EQ(*ParseInt<int>("-7"), -7);
  EXPECT_EQ(*ParseInt<int>("2147483647"), 2147483647);
  EXPECT_EQ(*ParseInt<std::uint64_t>("18446744073709551615"), ~std::uint64_t{0});
  for (const char* bad : {"", "abc", "3x", "1e3", "1.5", "4+1"})
    EXPECT_EQ(ParseInt<int>(bad).status().code(), StatusCode::kInvalidArgument) << bad;
  for (const char* big : {"2147483648", "-2147483649", "4294967300", "99999999999999999999"})
    EXPECT_EQ(ParseInt<int>(big).status().code(), StatusCode::kOutOfRange) << big;
  EXPECT_FALSE(ParseInt<long long>("9223372036854775808").ok());
  EXPECT_FALSE(ParseInt<std::uint64_t>("-1").ok()) << "no wrap to 2^64 - 1";
}

TEST(Parse, DoublesMustBeFinite) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 1e-3);
  for (const char* bad : {"", "x", "0.5s"})
    EXPECT_EQ(ParseDouble(bad).status().code(), StatusCode::kInvalidArgument) << bad;
  for (const char* odd : {"nan", "inf", "-inf", "1e999"})
    EXPECT_EQ(ParseDouble(odd).status().code(), StatusCode::kOutOfRange) << odd;
}

TEST(KeyValues, OneRuleSetForBlankAndCommaLists) {
  // A CRLF job-trace line; a token splits at its first '='.
  KeyValues line("at=0.5\tprocs=8  plan=crash@1:node=2,x=y\r\n");
  double at = 0;
  int procs = 0;
  std::string plan;
  line.Number("at", &at, 0.0);
  line.Number("procs", &procs, 1);
  line.Read("plan", &plan, [](const std::string& v) { return Result<std::string>(v); });
  ASSERT_TRUE(line.Finish().ok()) << line.Finish().ToString();
  EXPECT_EQ(at, 0.5);
  EXPECT_EQ(procs, 8);
  EXPECT_EQ(plan, "crash@1:node=2,x=y");

  // Blanks around keys and values of a ',' list are ignored, empty items
  // skipped; booleans are exactly 0 or 1; MiB sizes scale to bytes.
  KeyValues list(" budget = 0.25 ,, on=1 , mb= 3 ", ',');
  double budget = 0;
  bool on = false;
  Bytes size = 0;
  list.Number("budget", &budget, 0.0, 1.0);
  list.Bool("on", &on);
  list.MiB("mb", &size, 1);
  ASSERT_TRUE(list.Finish().ok()) << list.Finish().ToString();
  EXPECT_EQ(budget, 0.25);
  EXPECT_TRUE(on);
  EXPECT_EQ(size, 3_MiB);

  // Every error names its key; the first one sticks.
  const auto error = [](const std::string& text, char sep = ' ') {
    KeyValues kv(text, sep);
    int n = 0;
    bool flag = false;
    Bytes mib = 0;
    kv.Number("n", &n, 1, 10);
    kv.Bool("flag", &flag);
    kv.MiB("mb", &mib, 0);
    kv.Require("n");
    return kv.Finish().message();
  };
  EXPECT_EQ(error("n=8abc"), "n: not an integer: '8abc'");
  EXPECT_EQ(error("n=1 n=2"), "n: duplicate key");
  EXPECT_EQ(error("n=1, n =2", ','), "n: duplicate key");
  EXPECT_EQ(error("n=1 quantum=9"), "unknown key 'quantum'");
  EXPECT_EQ(error("n=11"), "n: must be in [1, 10], got 11");
  EXPECT_EQ(error("n=1 flag=2"), "flag: unknown value '2' (want 0|1)");
  EXPECT_EQ(error("n=1 mb=17592186044416"),
            "mb: must be in [0, 17592186044415], got 17592186044416");
  EXPECT_EQ(error("flag=1"), "n: required");
  EXPECT_EQ(error("n"), "expected key=value, got 'n'");
  EXPECT_EQ(error("=1"), "expected key=value, got '=1'");
}

TEST(Parse, EcShardsAreBoundedSoTheirSumFitsAnInt) {
  EXPECT_EQ(*ParseEcShards("4+2"), std::make_pair(4, 2));
  EXPECT_EQ(*ParseEcShards("1073741823+1073741823"), std::make_pair(kMaxEcShards, kMaxEcShards));
  for (const char* bad : {"", "4", "4+", "+2", "0+0", "0+1", "1+0", "2147483647+1", "3x+1"})
    EXPECT_FALSE(ParseEcShards(bad).ok()) << bad;
}

TEST(Table, AlignsAndCounts) {
  Table t({"procs", "rate"});
  t.AddRow({"64", "1.5"});
  t.AddNumericRow({128, 2.25});
  EXPECT_EQ(t.rows(), 2u);
  std::string out = t.ToString();
  EXPECT_NE(out.find("procs"), std::string::npos);
  EXPECT_NE(out.find("2.25"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace uvs
