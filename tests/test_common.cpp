// Unit tests for the common substrate: RNG determinism, statistics,
// CSV/table output and string utilities.

#include <gtest/gtest.h>

#include <atomic>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace hpac;

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicAcrossInstances) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexIsUnbiasedEnough) {
  Xoshiro256 rng(5);
  std::array<int, 7> counts{};
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, draws / 7.0, draws / 7.0 * 0.1);
}

TEST(Rng, NormalHasExpectedMoments) {
  Xoshiro256 rng(6);
  stats::RunningStats acc;
  for (int i = 0; i < 100000; ++i) acc.push(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), std::sqrt(1.25));
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(stats::mean({}), 0.0); }

TEST(Stats, RsdMatchesPaperDefinition) {
  // RSD = sigma / mu (population); constant data has RSD 0.
  const std::vector<double> constant{5, 5, 5};
  EXPECT_DOUBLE_EQ(stats::rsd(constant), 0.0);
  const std::vector<double> xs{9, 10, 11};
  EXPECT_NEAR(stats::rsd(xs), std::sqrt(2.0 / 3.0) / 10.0, 1e-12);
}

TEST(Stats, RsdOfZeroMeanIsInfinite) {
  const std::vector<double> xs{-1, 1};
  EXPECT_TRUE(std::isinf(stats::rsd(xs)));
  const std::vector<double> zeros{0, 0};
  EXPECT_DOUBLE_EQ(stats::rsd(zeros), 0.0);
}

TEST(Stats, GeomeanOfPowers) {
  const std::vector<double> xs{1.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::geomean(xs), 2.0);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(stats::geomean(xs), Error);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 25);
}

TEST(Stats, BoxStatsOrdering) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const auto box = stats::box_stats(xs);
  EXPECT_LE(box.min, box.q1);
  EXPECT_LE(box.q1, box.median);
  EXPECT_LE(box.median, box.q3);
  EXPECT_LE(box.q3, box.max);
  EXPECT_DOUBLE_EQ(box.median, 50.5);
}

TEST(Stats, PerfectLinearRegression) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const auto r = stats::linear_regression(x, y);
  EXPECT_NEAR(r.slope, 2.0, 1e-12);
  EXPECT_NEAR(r.intercept, 1.0, 1e-12);
  EXPECT_NEAR(r.r2, 1.0, 1e-12);
}

TEST(Stats, NoisyRegressionHasR2BelowOne) {
  std::vector<double> x, y;
  Xoshiro256 rng(8);
  for (int i = 0; i < 200; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + 10.0 * rng.normal());
  }
  const auto r = stats::linear_regression(x, y);
  EXPECT_GT(r.r2, 0.9);
  EXPECT_LT(r.r2, 1.0);
}

TEST(Stats, MapeMatchesPaperEquationOne) {
  const std::vector<double> acc{10, 20};
  const std::vector<double> apx{11, 18};
  // (|10-11|/10 + |20-18|/20)/2 = (0.1 + 0.1)/2 = 0.1 -> 10%
  EXPECT_NEAR(stats::mape_percent(acc, apx), 10.0, 1e-12);
}

TEST(Stats, MapeSkipsZeroReferences) {
  const std::vector<double> acc{0, 10};
  const std::vector<double> apx{5, 10};
  EXPECT_DOUBLE_EQ(stats::mape_percent(acc, apx), 0.0);
}

TEST(Stats, McrMatchesPaperEquationTwo) {
  const std::vector<int> acc{1, 2, 3, 4};
  const std::vector<int> apx{1, 2, 9, 9};
  EXPECT_DOUBLE_EQ(stats::mcr_percent(acc, apx), 50.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Xoshiro256 rng(9);
  std::vector<double> xs;
  stats::RunningStats acc;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0, 100);
    xs.push_back(v);
    acc.push(v);
  }
  EXPECT_NEAR(acc.mean(), stats::mean(xs), 1e-9);
  EXPECT_NEAR(acc.variance(), stats::variance(xs), 1e-6);
}

TEST(Csv, RoundTripAndAccessors) {
  CsvTable t({"name", "value"});
  t.add_row({std::string("a"), 1.5});
  t.add_row({std::string("b"), static_cast<long long>(7)});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_DOUBLE_EQ(t.number_at(0, "value"), 1.5);
  EXPECT_DOUBLE_EQ(t.number_at(1, 1), 7.0);
  EXPECT_EQ(std::get<std::string>(t.at(0, 0)), "a");
}

TEST(Csv, RejectsWrongRowWidth) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), Error);
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvTable t({"text"});
  t.add_row({std::string("hello, \"world\"")});
  std::ostringstream os;
  t.write(os);
  EXPECT_NE(os.str().find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(Csv, UnknownColumnThrows) {
  CsvTable t({"a"});
  EXPECT_THROW(t.column_index("missing"), Error);
}

namespace {

std::string rendered(const CsvTable& t) {
  std::ostringstream os;
  t.write(os);
  return os.str();
}

}  // namespace

TEST(Csv, LoadRoundTripsSpecialCharacters) {
  CsvTable t({"text", "more"});
  t.add_row({std::string("comma, inside"), std::string("plain")});
  t.add_row({std::string("quote \"q\" here"), std::string("line\nbreak")});
  t.add_row({std::string("\"leading"), std::string("mix,\"of\"\nall three")});
  const std::string bytes = rendered(t);

  std::istringstream is(bytes);
  const CsvTable loaded = CsvTable::load(is);
  ASSERT_EQ(loaded.row_count(), 3u);
  EXPECT_EQ(loaded.text_at(0, "text"), "comma, inside");
  EXPECT_EQ(loaded.text_at(1, "text"), "quote \"q\" here");
  EXPECT_EQ(loaded.text_at(1, "more"), "line\nbreak");
  EXPECT_EQ(loaded.text_at(2, "text"), "\"leading");
  EXPECT_EQ(loaded.text_at(2, "more"), "mix,\"of\"\nall three");
  EXPECT_EQ(rendered(loaded), bytes);
}

TEST(Csv, NumericFormattingIsStableAcrossRepeatedRoundTrips) {
  CsvTable t({"d", "i", "s"});
  t.add_row({1.0 / 3.0, static_cast<long long>(-7), std::string("x")});
  t.add_row({1.23456789012e-17, static_cast<long long>(1LL << 60), std::string("42x")});
  t.add_row({-0.000123456789, static_cast<long long>(0), std::string("")});
  t.add_row({2.0, static_cast<long long>(9), std::string("1e5")});
  const std::string first = rendered(t);

  std::istringstream is1(first);
  const std::string second = rendered(CsvTable::load(is1));
  std::istringstream is2(second);
  const std::string third = rendered(CsvTable::load(is2));
  EXPECT_EQ(second, first);
  EXPECT_EQ(third, first);
}

TEST(Csv, LoadRestoresNumericTypes) {
  CsvTable t({"d", "i"});
  t.add_row({1.5, static_cast<long long>(7)});
  std::istringstream is(rendered(t));
  const CsvTable loaded = CsvTable::load(is);
  EXPECT_DOUBLE_EQ(loaded.number_at(0, "d"), 1.5);
  EXPECT_DOUBLE_EQ(loaded.number_at(0, "i"), 7.0);
  EXPECT_TRUE(std::holds_alternative<double>(loaded.at(0, 0)));
  EXPECT_TRUE(std::holds_alternative<long long>(loaded.at(0, 1)));
}

TEST(Csv, LoadKeepsNonCanonicalNumbersAsText) {
  // "007" parses as 7 but re-formats differently; it must stay a string so
  // the bytes survive.
  std::istringstream is("col\n007\n");
  const CsvTable loaded = CsvTable::load(is);
  EXPECT_TRUE(std::holds_alternative<std::string>(loaded.at(0, 0)));
  EXPECT_EQ(rendered(loaded), "col\n007\n");
}

TEST(Csv, RandomizedRoundTripIsByteIdentical) {
  // Property test: rows mixing random nasty strings and random numerics
  // survive write -> load -> write untouched.
  Xoshiro256 rng(2026);
  const std::string alphabet = "ab,\"\n x0.-";
  CsvTable t({"s", "d", "i"});
  for (int row = 0; row < 200; ++row) {
    std::string s;
    const std::size_t len = rng.uniform_index(12);
    for (std::size_t i = 0; i < len; ++i) s.push_back(alphabet[rng.uniform_index(alphabet.size())]);
    t.add_row({s, rng.uniform(-1e6, 1e6) * std::pow(10.0, rng.uniform(-12, 12)),
               static_cast<long long>(rng.next())});
  }
  const std::string bytes = rendered(t);
  std::istringstream is(bytes);
  EXPECT_EQ(rendered(CsvTable::load(is)), bytes);
}

TEST(Csv, ReaderHandlesCrlfAndMissingFinalNewline) {
  std::istringstream is("a,b\r\n1,2\r\n3,4");
  CsvReader reader(is);
  const auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ((*header)[0], "a");
  EXPECT_EQ((*header)[1], "b");
  const auto row1 = reader.next_row();
  ASSERT_TRUE(row1.has_value());
  EXPECT_EQ((*row1)[1], "2");
  const auto row2 = reader.next_row();
  ASSERT_TRUE(row2.has_value());
  EXPECT_EQ((*row2)[1], "4");
  EXPECT_FALSE(reader.next_row().has_value());
}

TEST(Csv, ReaderSpansQuotedNewlines) {
  std::istringstream is("\"one\ncell\",two\n");
  CsvReader reader(is);
  const auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  ASSERT_EQ(row->size(), 2u);
  EXPECT_EQ((*row)[0], "one\ncell");
  EXPECT_EQ((*row)[1], "two");
}

TEST(Csv, LoadRejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW(CsvTable::load(empty), Error);
  std::istringstream ragged("a,b\n1\n");
  EXPECT_THROW(CsvTable::load(ragged), Error);
  std::istringstream unterminated("a\n\"open\n");
  EXPECT_THROW(CsvTable::load(unterminated), Error);
}

TEST(Csv, LoadFileMissingPathThrows) {
  EXPECT_THROW(CsvTable::load_file("/nonexistent/dir/f.csv"), Error);
}

TEST(Csv, DropTornTailRecoversJournalsKilledMidRow) {
  // The signature of an append-mode journal whose writer died mid-write:
  // a final record with too few cells ...
  std::istringstream torn_cells("a,b\n1,2\n3\n");
  const CsvTable recovered = CsvTable::load(torn_cells, /*drop_torn_tail=*/true);
  EXPECT_EQ(recovered.row_count(), 1u);
  // ... or one ending inside a quoted cell.
  std::istringstream torn_quote("a,b\n1,2\n3,\"unterm");
  EXPECT_EQ(CsvTable::load(torn_quote, true).row_count(), 1u);
  // Without the flag both stay hard errors ...
  std::istringstream strict("a,b\n1,2\n3\n");
  EXPECT_THROW(CsvTable::load(strict), Error);
  // ... and a ragged row in the *middle* is corruption either way.
  std::istringstream mid("a,b\n1\n3,4\n");
  EXPECT_THROW(CsvTable::load(mid, true), Error);
}

TEST(Strings, TrimRemovesWhitespace) {
  EXPECT_EQ(strings::trim("  hi \t\n"), "hi");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = strings::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, ParseIntStrict) {
  long long v = 0;
  EXPECT_TRUE(strings::parse_int("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(strings::parse_int("42x", v));
  EXPECT_FALSE(strings::parse_int("", v));
}

TEST(Strings, ParseDoubleAcceptsFloatSuffix) {
  double v = 0;
  EXPECT_TRUE(strings::parse_double("0.5f", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(strings::parse_double("1e-3", v));
  EXPECT_FALSE(strings::parse_double("abc", v));
}

TEST(Strings, FormatBehavesLikePrintf) {
  EXPECT_EQ(strings::format("%d-%s", 7, "x"), "7-x");
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "long_header"});
  t.add_row({"xxxx", "1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), Error);
}

// --- locale-independent parsing -------------------------------------------

namespace {

/// RAII LC_NUMERIC override; `ok()` is false when the host has not
/// generated the requested locale, in which case dependent tests skip.
class ScopedNumericLocale {
 public:
  explicit ScopedNumericLocale(const char* name) {
    const char* current = std::setlocale(LC_NUMERIC, nullptr);
    saved_ = current ? current : "C";
    ok_ = std::setlocale(LC_NUMERIC, name) != nullptr;
  }
  ~ScopedNumericLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
  bool ok() const { return ok_; }

 private:
  std::string saved_;
  bool ok_ = false;
};

/// When the ctest harness sets HPAC_TEST_FORCE_LOCALE (the non-C-locale
/// re-run of these suites), adopt it for the whole binary: a C++ process
/// starts in the "C" locale regardless of the environment, so without
/// this the re-run would be vacuous.
const bool g_locale_env_adopted = [] {
  if (const char* name = std::getenv("HPAC_TEST_FORCE_LOCALE")) {
    if (!std::setlocale(LC_ALL, name)) {
      std::fprintf(stderr, "note: locale %s not generated on this host; staying in C\n",
                   name);
    }
  }
  return true;
}();

}  // namespace

TEST(Strings, ParseIntRejectsOverflow) {
  long long v = 0;
  // One past LLONG_MAX / LLONG_MIN: strtoll clamped these (its ERANGE
  // went unchecked), so out-of-range literals silently parsed as the
  // clamped boundary value instead of failing.
  EXPECT_FALSE(strings::parse_int("9223372036854775808", v));
  EXPECT_FALSE(strings::parse_int("-9223372036854775809", v));
  EXPECT_FALSE(strings::parse_int("123456789012345678901234567890", v));
  // The exact boundaries still parse.
  EXPECT_TRUE(strings::parse_int("9223372036854775807", v));
  EXPECT_EQ(v, std::numeric_limits<long long>::max());
  EXPECT_TRUE(strings::parse_int("-9223372036854775808", v));
  EXPECT_EQ(v, std::numeric_limits<long long>::min());
}

TEST(Strings, ParseIntKeepsExplicitPlusCompatibility) {
  long long v = 0;
  EXPECT_TRUE(strings::parse_int("+42", v));
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(strings::parse_int("+-42", v));
  EXPECT_FALSE(strings::parse_int("+", v));
}

TEST(Strings, ParseDoubleRejectsOutOfRangeAndKeepsPlus) {
  double v = 0;
  EXPECT_FALSE(strings::parse_double("1e999", v));
  EXPECT_FALSE(strings::parse_double("-1e999", v));
  EXPECT_TRUE(strings::parse_double("+0.25", v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_FALSE(strings::parse_double("+-0.25", v));
  EXPECT_FALSE(strings::parse_double("+", v));
}

TEST(StringsLocale, ParsersIgnoreCommaDecimalLocale) {
  ScopedNumericLocale de("de_DE.UTF-8");
  if (!de.ok()) GTEST_SKIP() << "de_DE.UTF-8 not generated on this host";
  double v = 0;
  // Under LC_NUMERIC=de_DE, strtod stopped at the '.' and rejected these.
  EXPECT_TRUE(strings::parse_double("0.5", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(strings::parse_double("1e-3", v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  EXPECT_TRUE(strings::parse_double("0.5f", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  // A comma decimal separator is not part of the clause/CSV grammar in
  // any locale.
  EXPECT_FALSE(strings::parse_double("0,5", v));
  long long i = 0;
  EXPECT_TRUE(strings::parse_int("-123456", i));
  EXPECT_EQ(i, -123456);
}

TEST(CsvLocale, CheckpointRoundTripSurvivesCommaDecimalLocale) {
  // A campaign checkpoint is written with std::to_chars and re-parsed on
  // resume through parse_double; under a comma-decimal LC_NUMERIC the
  // strtod-based parser rejected the file it had itself written, so the
  // typed re-parse degraded doubles to strings and resume blew up in
  // number_at. The round trip must stay typed and byte-stable.
  CsvTable table({"name", "speedup", "count"});
  table.add_row({std::string("a"), 1.0 / 3.0, 42LL});
  table.add_row({std::string("b"), 6.02214076e23, -7LL});
  table.add_row({std::string("c"), 0.5, 9000000000000LL});
  std::ostringstream first;
  table.write(first);

  ScopedNumericLocale de("de_DE.UTF-8");
  if (!de.ok()) GTEST_SKIP() << "de_DE.UTF-8 not generated on this host";
  std::istringstream in(first.str());
  const CsvTable loaded = CsvTable::load(in);
  EXPECT_DOUBLE_EQ(loaded.number_at(0, "speedup"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(loaded.number_at(1, "speedup"), 6.02214076e23);
  EXPECT_DOUBLE_EQ(loaded.number_at(2, "count"), 9000000000000.0);
  std::ostringstream second;
  loaded.write(second);
  EXPECT_EQ(first.str(), second.str());
}
