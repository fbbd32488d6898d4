// Unit tests for the common substrate: RNG determinism, statistics,
// CSV/table output (and the result-database CSV read back through
// harness::ResultDb::read) and string utilities.

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
#include "harness/record.hpp"

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
  std::vector<double> draws(100000);
  for (double& x : draws) x = rng.normal();
  const double mu = stats::mean(draws);
  std::vector<double> squared_deviations;
  for (const double x : draws) squared_deviations.push_back((x - mu) * (x - mu));
  EXPECT_NEAR(mu, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(stats::mean(squared_deviations)), 1.0, 0.02);
}

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(stats::mean({}), 0.0); }

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

namespace {

using harness::ResultDb;
using harness::RunRecord;

/// A result-database CSV image: the schema header, then one
/// `write_csv_row` per record.
std::string rendered(const std::vector<RunRecord>& records) {
  std::ostringstream os;
  ResultDb().to_csv().write(os);  // the header line alone
  for (const RunRecord& r : records) write_csv_row(os, r.to_row());
  return os.str();
}

ResultDb read_text(const std::string& bytes, bool drop_torn_tail = false) {
  std::istringstream is(bytes);
  return ResultDb::read(is, drop_torn_tail);
}

std::string reread(const std::string& bytes) { return rendered(read_text(bytes).records()); }

RunRecord record_named(const std::string& benchmark, double speedup = 1.5) {
  RunRecord r;
  r.benchmark = benchmark;
  r.device = "v100";
  r.spec_text = "perfo(small:2)";
  r.speedup = speedup;
  return r;
}

}  // namespace

TEST(Csv, LoadRoundTripsSpecialCharacters) {
  RunRecord a = record_named("comma, inside");
  a.note = "quote \"q\" here";
  a.spec_text = "line\nbreak";
  RunRecord b = record_named("\"leading");
  b.device = "mix,\"of\"\nall three";
  b.perfo_kind = "plain";
  const std::string bytes = rendered({a, b});

  const ResultDb loaded = read_text(bytes);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.records()[0].benchmark, "comma, inside");
  EXPECT_EQ(loaded.records()[0].note, "quote \"q\" here");
  EXPECT_EQ(loaded.records()[0].spec_text, "line\nbreak");
  EXPECT_EQ(loaded.records()[1].benchmark, "\"leading");
  EXPECT_EQ(loaded.records()[1].device, "mix,\"of\"\nall three");
  EXPECT_EQ(loaded.records()[1].perfo_kind, "plain");
  EXPECT_EQ(rendered(loaded.records()), bytes);
}

TEST(Csv, NumericFormattingIsStableAcrossRepeatedRoundTrips) {
  // Doubles, integers and string fields that merely look numeric ("007",
  // "1e5", "42x") all come back byte for byte.
  RunRecord a = record_named("a", 1.0 / 3.0);
  a.perfo_stride = -7;
  a.note = "x";
  RunRecord b = record_named("007", 1.23456789012e-17);
  b.items_per_thread = 1ull << 60;
  b.note = "42x";
  RunRecord c = record_named("c", -0.000123456789);
  c.items_per_thread = 0;
  c.note = "";
  RunRecord d = record_named("d", 2.0);
  d.history_size = 9;
  d.note = "1e5";
  d.perfo_kind = "0.50";
  const std::string first = rendered({a, b, c, d});

  const std::string second = reread(first);
  const std::string third = reread(second);
  EXPECT_EQ(second, first);
  EXPECT_EQ(third, first);
  const ResultDb loaded = read_text(first);
  EXPECT_EQ(loaded.records()[1].benchmark, "007");
  EXPECT_EQ(loaded.records()[3].note, "1e5");
  EXPECT_EQ(loaded.records()[3].perfo_kind, "0.50");
}

TEST(Csv, RandomizedRoundTripIsByteIdentical) {
  // Property test: records mixing random nasty strings and random numerics
  // survive write -> read -> write untouched.
  Xoshiro256 rng(2026);
  const std::string alphabet = "ab,\"\n x0.-";
  const auto nasty = [&rng, &alphabet] {
    std::string s;
    const std::size_t len = rng.uniform_index(12);
    for (std::size_t i = 0; i < len; ++i) s.push_back(alphabet[rng.uniform_index(alphabet.size())]);
    return s;
  };
  std::vector<RunRecord> records;
  for (int row = 0; row < 200; ++row) {
    const auto real = [&rng] {
      const double mantissa = rng.uniform(-1e6, 1e6);
      return mantissa * std::pow(10.0, rng.uniform(-12, 12));
    };
    RunRecord r;
    r.benchmark = nasty();
    r.note = nasty();
    r.perfo_kind = nasty();
    r.speedup = real();
    r.error_percent = real();
    r.items_per_thread = rng.next();
    r.perfo_stride = static_cast<int>(rng.next() >> 33) - (1 << 30);
    records.push_back(std::move(r));
  }
  const std::string bytes = rendered(records);
  EXPECT_EQ(reread(bytes), bytes);
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

  // The same through the record reader: CRLF everywhere, no final newline.
  const std::vector<RunRecord> records{record_named("a", 0.25), record_named("b", 4.0)};
  const std::string lf = rendered(records);
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf.push_back('\r');
    crlf.push_back(c);
  }
  crlf.resize(crlf.size() - 2);
  EXPECT_EQ(rendered(read_text(crlf).records()), lf);
  // A journal row always ends with its newline, so a torn-tail read drops
  // the unterminated last record.
  EXPECT_EQ(read_text(crlf, /*drop_torn_tail=*/true).size(), 1u);
}

TEST(Csv, ReaderSpansQuotedNewlines) {
  std::istringstream is("\"one\ncell\",two\n");
  CsvReader reader(is);
  const auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  ASSERT_EQ(row->size(), 2u);
  EXPECT_EQ((*row)[0], "one\ncell");
  EXPECT_EQ((*row)[1], "two");

  RunRecord r = record_named("a");
  r.note = "one\ncell\n\ntwo";
  const ResultDb loaded = read_text(rendered({r, record_named("b")}));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.records()[0].note, "one\ncell\n\ntwo");
  EXPECT_EQ(loaded.records()[1].benchmark, "b");
}

TEST(Csv, LoadRejectsMalformedInput) {
  const std::string header = rendered({});
  const std::string good = rendered({record_named("a")});
  const std::string row = good.substr(header.size());
  EXPECT_THROW(read_text(""), Error);
  EXPECT_EQ(read_text(header).size(), 0u);
  EXPECT_THROW(read_text("a,b\n1,2\n"), Error);                       // foreign schema
  EXPECT_THROW(read_text(header.substr(0, header.size() - 8) + "\n"), Error);  // cut header
  EXPECT_THROW(read_text(header + "a,v100\n"), Error);                // ragged
  EXPECT_THROW(read_text(header + row + row.substr(0, row.size() - 1) + ",x\n"), Error);
  EXPECT_THROW(read_text(header + "\"open\n"), Error);                // unterminated quote
  std::string bad_number = row;
  bad_number.replace(bad_number.find(",1.5,"), 5, ",fast,");
  EXPECT_THROW(read_text(header + bad_number), Error);
}

TEST(Csv, LoadFileMissingPathThrows) {
  EXPECT_THROW(ResultDb::load("/nonexistent/dir/f.csv"), Error);
}

TEST(Csv, DropTornTailRecoversJournalsKilledMidRow) {
  // The signature of an append-mode journal whose writer died mid-write:
  // a final record with too few cells ...
  const std::string journal = rendered({record_named("a"), record_named("b")});
  const std::string torn_cells = journal + "c,v100\n";
  EXPECT_EQ(read_text(torn_cells, /*drop_torn_tail=*/true).size(), 2u);
  // ... one ending inside a quoted cell ...
  const std::string torn_quote = journal + "c,v100,perfo,\"unterm";
  EXPECT_EQ(read_text(torn_quote, true).size(), 2u);
  // ... or one whose cells all parse but whose newline never landed: a
  // "0.3" cut to "0." in the last column.
  RunRecord c = record_named("c");
  c.perfo_fraction = 0.3;
  const std::string full = rendered({record_named("a"), record_named("b"), c});
  const std::string torn_number = full.substr(0, full.size() - 2);
  EXPECT_EQ(read_text(torn_number, true).size(), 2u);
  // Without the flag the first two stay hard errors, and the third reads
  // as written.
  EXPECT_THROW(read_text(torn_cells), Error);
  EXPECT_THROW(read_text(torn_quote), Error);
  EXPECT_EQ(read_text(torn_number).size(), 3u);
  // A bad record in the *middle* is corruption either way.
  const std::string header = rendered({});
  const std::string mid = header + "a,v100\n" + journal.substr(header.size());
  EXPECT_THROW(read_text(mid, true), Error);
  EXPECT_THROW(read_text(mid), Error);
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
  // strtod-based parser rejected the file it had itself written, and
  // resume blew up. The round trip must keep every value and its bytes.
  RunRecord a = record_named("a", 1.0 / 3.0);
  a.history_size = 42;
  RunRecord b = record_named("b", 6.02214076e23);
  b.perfo_stride = -7;
  RunRecord c = record_named("c", 0.5);
  c.items_per_thread = 9000000000000ull;
  const std::string first = rendered({a, b, c});

  ScopedNumericLocale de("de_DE.UTF-8");
  if (!de.ok()) GTEST_SKIP() << "de_DE.UTF-8 not generated on this host";
  const ResultDb loaded = read_text(first);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.records()[0].speedup, 1.0 / 3.0);
  EXPECT_EQ(loaded.records()[0].history_size, 42);
  EXPECT_DOUBLE_EQ(loaded.records()[1].speedup, 6.02214076e23);
  EXPECT_EQ(loaded.records()[1].perfo_stride, -7);
  EXPECT_EQ(loaded.records()[2].items_per_thread, 9000000000000ull);
  EXPECT_EQ(rendered(loaded.records()), first);
}
