// Tests for core/units: strong-typed quantities, arithmetic, formatting,
// parsing of the paper's notation ("4 wk + 12 hr", "727 KB/s", "$50000").
#include "core/units.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace stordep {
namespace {

TEST(Bytes, ConversionsUseBinaryPrefixes) {
  EXPECT_DOUBLE_EQ(kilobytes(1).bytes(), 1024.0);
  EXPECT_DOUBLE_EQ(megabytes(1).bytes(), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(gigabytes(1).megabytes(), 1024.0);
  EXPECT_DOUBLE_EQ(terabytes(2).gigabytes(), 2048.0);
  EXPECT_DOUBLE_EQ(gigabytes(1360).terabytes(), 1360.0 / 1024.0);
}

TEST(Bytes, Arithmetic) {
  EXPECT_EQ(gigabytes(2) + gigabytes(3), gigabytes(5));
  EXPECT_EQ(gigabytes(5) - gigabytes(3), gigabytes(2));
  EXPECT_EQ(gigabytes(2) * 3.0, gigabytes(6));
  EXPECT_EQ(3.0 * gigabytes(2), gigabytes(6));
  EXPECT_DOUBLE_EQ(gigabytes(6) / gigabytes(2), 3.0);
  Bytes b = gigabytes(1);
  b += gigabytes(2);
  EXPECT_EQ(b, gigabytes(3));
  b -= gigabytes(1);
  EXPECT_EQ(b, gigabytes(2));
  b *= 2.0;
  EXPECT_EQ(b, gigabytes(4));
}

TEST(Bytes, Comparisons) {
  EXPECT_LT(megabytes(1), gigabytes(1));
  EXPECT_GT(terabytes(1), gigabytes(1023));
  EXPECT_LE(gigabytes(1), gigabytes(1));
  EXPECT_TRUE(approxEqual(gigabytes(1), gigabytes(1) + bytes(1)));
  EXPECT_FALSE(approxEqual(gigabytes(1), gigabytes(2)));
}

TEST(Bytes, Infinity) {
  EXPECT_TRUE(Bytes::infinite().isInfinite());
  EXPECT_FALSE(Bytes::infinite().isFinite());
  EXPECT_TRUE(gigabytes(1).isFinite());
  EXPECT_LT(terabytes(10000), Bytes::infinite());
}

TEST(Duration, Conversions) {
  EXPECT_DOUBLE_EQ(minutes(1).secs(), 60.0);
  EXPECT_DOUBLE_EQ(hours(1).minutes(), 60.0);
  EXPECT_DOUBLE_EQ(days(1).hrs(), 24.0);
  EXPECT_DOUBLE_EQ(weeks(1).dys(), 7.0);
  EXPECT_DOUBLE_EQ(years(1).dys(), 365.0);
  EXPECT_DOUBLE_EQ(weeks(4).hrs(), 672.0);
}

TEST(Duration, Arithmetic) {
  EXPECT_EQ(hours(1) + minutes(30), minutes(90));
  EXPECT_EQ(days(1) - hours(12), hours(12));
  EXPECT_EQ(hours(2) * 3.0, hours(6));
  EXPECT_DOUBLE_EQ(days(1) / hours(6), 4.0);
}

TEST(Bandwidth, Conversions) {
  EXPECT_DOUBLE_EQ(mbPerSec(1).bytesPerSec(), 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(kbPerSec(1024).mbPerSec(), 1.0);
  // OC-3: 155 Mbps (decimal megabits) = 19.375 decimal MB/s.
  EXPECT_DOUBLE_EQ(megabitsPerSec(155).bytesPerSec(), 155e6 / 8.0);
}

TEST(CrossTypeArithmetic, BytesDurationBandwidth) {
  // Paper Table 5: a 1360 GB full backup over a 48-hour window is ~8.1 MB/s.
  const Bandwidth rate = gigabytes(1360) / hours(48);
  EXPECT_NEAR(rate.mbPerSec(), 8.06, 0.01);
  EXPECT_TRUE(approxEqual(rate * hours(48), gigabytes(1360), 1e-12));
  EXPECT_TRUE(approxEqual(gigabytes(1360) / rate, hours(48), 1e-12));
}

TEST(CrossTypeArithmetic, MoneyRates) {
  const MoneyRate rate = dollarsPerHour(50'000);
  EXPECT_DOUBLE_EQ((rate * hours(2)).usd(), 100'000.0);
  EXPECT_DOUBLE_EQ((hours(217) * rate).millionUsd(), 10.85);
  EXPECT_DOUBLE_EQ((millionDollars(1) / hours(20)).usdPerHour(), 50'000.0);
}

TEST(Formatting, HumanReadable) {
  EXPECT_EQ(toString(gigabytes(1360)), "1.33 TB");
  EXPECT_EQ(toString(megabytes(1)), "1 MB");
  EXPECT_EQ(toString(hours(26.4)), "1.1 days");
  EXPECT_EQ(toString(hours(2.4)), "2.4 hr");
  EXPECT_EQ(toString(seconds(0.004)), "0.004 s");
  EXPECT_EQ(toString(mbPerSec(12.4)), "12.4 MB/s");
  EXPECT_EQ(toString(millionDollars(11.94)), "$11.94M");
  EXPECT_EQ(toString(dollars(650)), "$650");
  EXPECT_EQ(toString(dollarsPerHour(50'000)), "$50000/hr");
}

// ---- toString against a printf oracle --------------------------------------

/// printf's "%.*f" of `value` in a buffer with room for any double, trailing
/// zeros and a bare point trimmed: what every toString prints its number as.
std::string fixedOracle(double value, int prec) {
  std::vector<char> buf(1024);
  std::snprintf(buf.data(), buf.size(), "%.*f", prec, value);
  std::string s = buf.data();
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

// The oracles restate each toString's unit choice; only the number
// formatting differs from the code under test.
std::string bytesOracle(Bytes b) {
  if (b.isInfinite()) return "inf B";
  const double v = b.bytes();
  if (v >= Bytes::kTB) return fixedOracle(b.terabytes(), 2) + " TB";
  if (v >= Bytes::kGB) return fixedOracle(b.gigabytes(), 2) + " GB";
  if (v >= Bytes::kMB) return fixedOracle(b.megabytes(), 2) + " MB";
  if (v >= Bytes::kKB) return fixedOracle(b.kilobytes(), 2) + " KB";
  return fixedOracle(v, 0) + " B";
}

std::string durationOracle(Duration d) {
  if (d.isInfinite()) return "inf";
  const double v = d.secs();
  if (v >= Duration::kYear) return fixedOracle(d.yrs(), 2) + " yr";
  if (v >= Duration::kWeek) return fixedOracle(d.wks(), 2) + " wk";
  if (v >= Duration::kDay) return fixedOracle(d.dys(), 2) + " days";
  if (v >= Duration::kHour) return fixedOracle(d.hrs(), 2) + " hr";
  if (v >= Duration::kMinute) return fixedOracle(d.minutes(), 2) + " min";
  return fixedOracle(v, 3) + " s";
}

std::string bandwidthOracle(Bandwidth bw) {
  if (bw.isInfinite()) return "inf MB/s";
  const double v = bw.bytesPerSec();
  if (v >= Bytes::kMB) return fixedOracle(bw.mbPerSec(), 2) + " MB/s";
  if (v >= Bytes::kKB) return fixedOracle(bw.kbPerSec(), 2) + " KB/s";
  return fixedOracle(v, 1) + " B/s";
}

std::string moneyOracle(Money m) {
  const double v = m.usd();
  if (std::fabs(v) >= 1e6) return "$" + fixedOracle(v / 1e6, 2) + "M";
  if (std::fabs(v) >= 1e3) return "$" + fixedOracle(v / 1e3, 1) + "K";
  return "$" + fixedOracle(v, 2);
}

void expectAllMatchOracle(double value) {
  EXPECT_EQ(toString(Bytes{value}), bytesOracle(Bytes{value})) << value;
  EXPECT_EQ(toString(Duration{value}), durationOracle(Duration{value}))
      << value;
  EXPECT_EQ(toString(Bandwidth{value}), bandwidthOracle(Bandwidth{value}))
      << value;
  EXPECT_EQ(toString(Money{value}), moneyOracle(Money{value})) << value;
}

TEST(Formatting, HugeValuesPrintEveryDigit) {
  // Numbers longer than any fixed small buffer print every digit.
  EXPECT_EQ(toString(years(1e70)), durationOracle(years(1e70)));
  EXPECT_EQ(toString(Bytes{1e80}), bytesOracle(Bytes{1e80}));
  EXPECT_EQ(toString(years(1e70)).size(), 71u + 3u);  // 71 digits + " yr"
  for (double value = 1e60; value < 1e308; value *= 1e7) {
    expectAllMatchOracle(value);
    expectAllMatchOracle(-value);
  }
  expectAllMatchOracle(std::numeric_limits<double>::max());
  expectAllMatchOracle(std::numeric_limits<double>::lowest());
}

TEST(Formatting, MatchesPrintfOracle) {
  // Every precision toString prints (0 for bytes, 1 for bandwidth, 2 for
  // most units, 3 for seconds) over seeded random bit patterns (NaN,
  // infinities, subnormals and negatives included), decimal ratios, and
  // exact binary ties, which printf rounds to even.
  std::mt19937_64 rng(20041);
  for (int i = 0; i < 6000; ++i) {
    expectAllMatchOracle(std::bit_cast<double>(rng()));
    const double scale = std::pow(10.0, static_cast<int>(rng() % 16) - 4);
    expectAllMatchOracle(static_cast<double>(rng() % 1000000) / scale);
  }
  for (std::uint64_t odd = 1; odd < 4096; odd += 2) {
    const double n = static_cast<double>(odd);
    EXPECT_EQ(toString(Bytes{n / 2}), bytesOracle(Bytes{n / 2}));  // prec 0
    EXPECT_EQ(toString(Bandwidth{n / 4}), bandwidthOracle(Bandwidth{n / 4}));
    EXPECT_EQ(toString(Money{n / 8}), moneyOracle(Money{n / 8}));  // prec 2
    EXPECT_EQ(toString(seconds(n / 16)), durationOracle(seconds(n / 16)));
  }
  EXPECT_EQ(toString(Bytes{2.5}), "2 B");
  EXPECT_EQ(toString(Money{0.125}), "$0.12");
  EXPECT_EQ(toString(seconds(0.0625)), "0.062 s");
  EXPECT_EQ(toString(Money{-0.001}), "$-0");
}

/// std::to_chars' fixed form of `value` with `prec` decimals, trailing zeros
/// and a bare point trimmed.
std::string toCharsFixedOracle(double value, int prec) {
  std::vector<char> buf(1024);
  const std::to_chars_result printed =
      std::to_chars(buf.data(), buf.data() + buf.size(), value,
                    std::chars_format::fixed, prec);
  std::string s(buf.data(), printed.ptr);
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

/// Checks `value`'s digits at each precision a toString prints it with
/// unscaled: bytes (0), bandwidth (1) and seconds (3) below their first unit
/// step, small dollar amounts and terabytes (2; a terabyte is a power of
/// two, so the scaled value is exact).
void expectToCharsDigits(double value) {
  if (value < Bytes::kKB) {
    EXPECT_EQ(toString(Bytes{value}), toCharsFixedOracle(value, 0) + " B")
        << value;
    EXPECT_EQ(toString(Bandwidth{value}),
              toCharsFixedOracle(value, 1) + " B/s")
        << value;
  }
  if (std::fabs(value) < 1e3) {
    EXPECT_EQ(toString(Money{value}), "$" + toCharsFixedOracle(value, 2))
        << value;
  }
  if (value >= 1.0 && value < 1e290) {
    EXPECT_EQ(toString(Bytes{value * Bytes::kTB}),
              toCharsFixedOracle(value, 2) + " TB")
        << value;
  }
  if (value < Duration::kMinute) {
    EXPECT_EQ(toString(seconds(value)), toCharsFixedOracle(value, 3) + " s")
        << value;
  }
}

TEST(Formatting, MatchesToCharsFixedOracle) {
  // Whole numbers below 1e15 print through the integer conversion; every
  // other value through the fixed form. Both must print the fixed form's
  // digits at every precision: integers, both zeros, the 1e15 boundary,
  // halves (which round to even) and seeded random values.
  for (int n = -1100; n <= 1100; ++n) {
    expectToCharsDigits(static_cast<double>(n));
    expectToCharsDigits(n + 0.5);
  }
  expectToCharsDigits(0.0);
  expectToCharsDigits(-0.0);
  EXPECT_EQ(toString(Bytes{-0.0}), "-0 B");
  for (const double big : {1e15 - 1, 1e15, 1e15 + 1, 1e15 - 0.5, 1e15 + 2,
                           9007199254740992.0, 1e14 + 0.25, 1e300}) {
    expectToCharsDigits(big);
    expectToCharsDigits(-big);
  }
  std::mt19937_64 rng(27);
  for (int i = 0; i < 4000; ++i) {
    const auto whole = static_cast<double>(
        static_cast<std::int64_t>(rng() % 4'000'000'000'000'000) -
        2'000'000'000'000'000);
    expectToCharsDigits(whole);
    expectToCharsDigits(std::ldexp(whole, -static_cast<int>(rng() % 4)));
    expectToCharsDigits(static_cast<double>(rng() % 2'000'001) / 1000.0 -
                        1000.0);
    const double bits = std::bit_cast<double>(rng());
    if (std::isfinite(bits)) expectToCharsDigits(bits);
  }
}

TEST(Formatting, StreamsMatchToString) {
  std::ostringstream os;
  os << gigabytes(73) << " " << hours(12) << " " << mbPerSec(25) << " "
     << dollars(123'297);
  EXPECT_EQ(os.str(), "73 GB 12 hr 25 MB/s $123.3K");
}

TEST(Parsing, Bytes) {
  EXPECT_EQ(parseBytes("1360 GB"), gigabytes(1360));
  EXPECT_EQ(parseBytes("73GB"), gigabytes(73));
  EXPECT_EQ(parseBytes("400 GB"), gigabytes(400));
  EXPECT_EQ(parseBytes("1 MB"), megabytes(1));
  EXPECT_EQ(parseBytes("512"), bytes(512));
  EXPECT_EQ(parseBytes("2 TiB"), terabytes(2));
  EXPECT_THROW((void)parseBytes("twelve GB"), ParseError);
  EXPECT_THROW((void)parseBytes("12 XB"), ParseError);
  EXPECT_THROW((void)parseBytes(""), ParseError);
}

TEST(Parsing, Durations) {
  EXPECT_EQ(parseDuration("12 hr"), hours(12));
  EXPECT_EQ(parseDuration("48 hr"), hours(48));
  EXPECT_EQ(parseDuration("1 wk"), weeks(1));
  EXPECT_EQ(parseDuration("4 wks"), weeks(4));
  EXPECT_EQ(parseDuration("3 years"), years(3));
  EXPECT_EQ(parseDuration("2 days"), days(2));
  EXPECT_EQ(parseDuration("1 min"), minutes(1));
  EXPECT_EQ(parseDuration("90 s"), seconds(90));
  EXPECT_EQ(parseDuration("0.02 hr"), hours(0.02));
}

TEST(Parsing, CompoundDurations) {
  // The paper's vault hold window: "4 wk + 12 hr".
  EXPECT_EQ(parseDuration("4 wk + 12 hr"), weeks(4) + hours(12));
  EXPECT_EQ(parseDuration("1 day + 1 hr + 30 min"),
            days(1) + hours(1) + minutes(30));
  EXPECT_THROW((void)parseDuration("4 wk +"), ParseError);
  EXPECT_THROW((void)parseDuration("+ 12 hr"), ParseError);
}

TEST(Parsing, Bandwidth) {
  EXPECT_EQ(parseBandwidth("25 MB/s"), mbPerSec(25));
  EXPECT_EQ(parseBandwidth("727 KB/s"), kbPerSec(727));
  EXPECT_EQ(parseBandwidth("155 Mbps"), megabitsPerSec(155));
  EXPECT_THROW((void)parseBandwidth("25 MB"), ParseError);
  EXPECT_THROW((void)parseBandwidth("25 MB/hr"), ParseError);
}

TEST(Parsing, Money) {
  EXPECT_EQ(parseMoney("$123297"), dollars(123'297));
  EXPECT_EQ(parseMoney("123297"), dollars(123'297));
  EXPECT_EQ(parseMoney("$11.94M"), millionDollars(11.94));
  EXPECT_EQ(parseMoney("$50K"), dollars(50'000));
  EXPECT_THROW((void)parseMoney("lots"), ParseError);
}

}  // namespace
}  // namespace stordep
