// Tests for the HPAC-Offload clause grammar: the paper's own examples
// (Figures 2 and 5), every clause form, validation rules and round-trips.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/error.hpp"
#include "pragma/parser.hpp"

using namespace hpac;
using namespace hpac::pragma;

TEST(Parser, PaperFigure2Memo) {
  // Figure 2: #pragma approx memo(in: 10 : 0.5f) in(input[i]) out(output[i])
  const auto spec = parse_approx("memo(in: 10 : 0.5f) in(input[i]) out(output[i])");
  EXPECT_EQ(spec.technique, Technique::kIactMemo);
  ASSERT_TRUE(spec.iact.has_value());
  EXPECT_EQ(spec.iact->table_size, 10);
  EXPECT_DOUBLE_EQ(spec.iact->threshold, 0.5);
  EXPECT_EQ(spec.iact->tables_per_warp, 0);  // default: warp size
  ASSERT_EQ(spec.in_sections.size(), 1u);
  EXPECT_EQ(spec.in_sections[0], "input[i]");
}

TEST(Parser, PaperFigure2Perfo) {
  const auto spec = parse_approx("perfo(small:4)");
  EXPECT_EQ(spec.technique, Technique::kPerforation);
  EXPECT_EQ(spec.perfo->kind, PerfoKind::kSmall);
  EXPECT_EQ(spec.perfo->stride, 4);
  EXPECT_TRUE(spec.perfo->herded);
}

TEST(Parser, PaperFigure5IactLine) {
  // Figure 5 line 9: memo(in:2:0.5f:4) level(warp) in(input[i*5:5:N]) out(output1[i])
  const auto spec =
      parse_approx("memo(in:2:0.5f:4) level(warp) in(input[i*5:5:N]) out(output1[i])");
  EXPECT_EQ(spec.technique, Technique::kIactMemo);
  EXPECT_EQ(spec.iact->table_size, 2);
  EXPECT_DOUBLE_EQ(spec.iact->threshold, 0.5);
  EXPECT_EQ(spec.iact->tables_per_warp, 4);
  EXPECT_EQ(spec.level, HierarchyLevel::kWarp);
  EXPECT_EQ(spec.in_sections[0], "input[i*5:5:N]");
}

TEST(Parser, PaperFigure5TafLine) {
  // Figure 5 line 13: memo(out:3:5:1.5f) level(thread) out(output2[i])
  const auto spec = parse_approx("memo(out:3:5:1.5f) level(thread) out(output2[i])");
  EXPECT_EQ(spec.technique, Technique::kTafMemo);
  EXPECT_EQ(spec.taf->history_size, 3);
  EXPECT_EQ(spec.taf->prediction_size, 5);
  EXPECT_DOUBLE_EQ(spec.taf->rsd_threshold, 1.5);
  EXPECT_EQ(spec.level, HierarchyLevel::kThread);
}

TEST(Parser, FullPragmaPrefixIsAccepted) {
  const auto spec = parse_approx("#pragma approx perfo(large:8)");
  EXPECT_EQ(spec.perfo->kind, PerfoKind::kLarge);
}

TEST(Parser, TeamMapsToBlockLevel) {
  EXPECT_EQ(parse_approx("memo(out:1:2:0.5) level(team)").level, HierarchyLevel::kBlock);
  EXPECT_EQ(parse_approx("memo(out:1:2:0.5) level(block)").level, HierarchyLevel::kBlock);
}

TEST(Parser, IniFiniTakeFractions) {
  const auto ini = parse_approx("perfo(ini:0.25)");
  EXPECT_EQ(ini.perfo->kind, PerfoKind::kIni);
  EXPECT_DOUBLE_EQ(ini.perfo->fraction, 0.25);
  const auto fini = parse_approx("perfo(fini:0.9)");
  EXPECT_EQ(fini.perfo->kind, PerfoKind::kFini);
}

TEST(Parser, HerdedFlagForms) {
  EXPECT_TRUE(parse_approx("perfo(small:2)").perfo->herded);
  EXPECT_FALSE(parse_approx("perfo(small:2) herded(0)").perfo->herded);
  EXPECT_TRUE(parse_approx("perfo(small:2) herded(1)").perfo->herded);
  EXPECT_TRUE(parse_approx("perfo(small:2) herded").perfo->herded);
}

TEST(Parser, ReplacementClause) {
  EXPECT_TRUE(parse_approx("memo(in:4:0.5) replacement(clock) in(x) out(y)")
                  .iact->clock_replacement);
  EXPECT_FALSE(
      parse_approx("memo(in:4:0.5) replacement(rr) in(x) out(y)").iact->clock_replacement);
  EXPECT_THROW(parse_approx("replacement(clock)"), ParseError);
}

TEST(Parser, LabelClause) {
  EXPECT_EQ(parse_approx("memo(out:1:2:0.5) label(hourglass)").label, "hourglass");
}

TEST(Parser, NoneIsAccurateOnly) {
  const auto spec = parse_approx("none");
  EXPECT_EQ(spec.technique, Technique::kNone);
  const auto empty = parse_approx("");
  EXPECT_EQ(empty.technique, Technique::kNone);
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parse_approx("memo(sideways:1:2:3)"), ParseError);
  EXPECT_THROW(parse_approx("memo(out:1:2)"), ParseError);           // missing threshold
  EXPECT_THROW(parse_approx("perfo(small)"), ParseError);            // missing stride
  EXPECT_THROW(parse_approx("level(warp)x"), ParseError);            // trailing junk
  EXPECT_THROW(parse_approx("memo(out:1:2:0.5) level(galaxy)"), ParseError);
  EXPECT_THROW(parse_approx("frobnicate(3)"), ParseError);
  EXPECT_THROW(parse_approx("memo(out:1:2:0.5"), ParseError);        // unbalanced
}

TEST(Parser, RejectsTwoTechniques) {
  EXPECT_THROW(parse_approx("memo(out:1:2:0.5) perfo(small:2)"), ParseError);
  EXPECT_THROW(parse_approx("memo(out:1:2:0.5) memo(in:2:0.5) in(x)"), ParseError);
}

TEST(Parser, ValidationRules) {
  EXPECT_THROW(parse_approx("memo(in:2:0.5)"), ParseError);   // iACT needs in(...)
  EXPECT_THROW(parse_approx("perfo(small:1)"), ParseError);   // stride >= 2
  EXPECT_THROW(parse_approx("perfo(ini:1.5)"), ParseError);   // fraction in (0,1)
  EXPECT_THROW(parse_approx("perfo(ini:0.5) level(warp)"), ParseError);
  // to_string omits the level of a none spec, so one would not round-trip.
  EXPECT_THROW(parse_approx("level(warp)"), ParseError);
  EXPECT_THROW(parse_approx("memo(out:0:2:0.5)"), ParseError);
}

TEST(Parser, RoundTripThroughToString) {
  for (const char* text :
       {"memo(out:3:5:1.5) level(warp) out(o[i])",
        "memo(in:2:0.5:4) in(a[i]) out(b[i])",
        "memo(in:2:0.5:4) replacement(clock) in(a[i]) out(b[i])",
        "perfo(small:4)", "perfo(ini:0.3)", "perfo(large:16) herded(0)"}) {
    const auto spec = parse_approx(text);
    const auto again = parse_approx(spec.to_string());
    EXPECT_EQ(again.to_string(), spec.to_string()) << text;
    EXPECT_EQ(again, spec) << text;
  }
}

TEST(Parser, RejectsIntegersOutsideInt) {
  // Each of these once wrapped modulo 2^32 into a valid-looking value
  // (history 3, stride 2, one table per warp, herded off).
  const std::pair<const char*, const char*> cases[] = {
      {"memo(out:4294967299:8:0.5)", "TAF history size"},
      {"memo(out:3:2147483648:0.5)", "TAF prediction size"},
      {"memo(in:4294967300:0.5) in(x)", "iACT table size"},
      {"memo(in:4:0.5:-4294967295) in(x)", "tables per warp"},
      {"perfo(small:4294967298)", "perforation stride"},
      {"perfo(small:2) herded(4294967296)", "herded flag"},
  };
  for (const auto& [text, clause] : cases) {
    try {
      parse_approx(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(clause) + " "), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(parse_approx("perfo(small:2147483647)").perfo->stride, 2147483647);
}

TEST(Parser, ToStringKeepsEveryDigitOfItsDoubles) {
  // Six significant digits made these two one text (and one store key).
  const auto a = parse_approx("memo(out:3:8:0.1234567)");
  const auto b = parse_approx("memo(out:3:8:0.1234568)");
  EXPECT_EQ(a.to_string(), "memo(out:3:8:0.1234567)");
  EXPECT_EQ(b.to_string(), "memo(out:3:8:0.1234568)");
  EXPECT_EQ(parse_approx(a.to_string()), a);
  EXPECT_EQ(parse_approx("perfo(fini:0.30000000000000004)").to_string(),
            "perfo(fini:0.30000000000000004)");
  EXPECT_EQ(parse_approx("memo(in:4:2.0000001) in(x)").to_string(),
            "memo(in:4:2.0000001) in(x)");
  // Texts that already round-trip at six digits print as before.
  for (const char* text : {"memo(out:3:8:0.5)", "memo(out:3:8:20)", "memo(out:3:8:0.123457)",
                           "memo(out:3:8:1e-05)", "memo(out:3:8:1e+06)", "perfo(ini:0.3)",
                           "memo(in:4:0.1) in(x)"}) {
    EXPECT_EQ(parse_approx(text).to_string(), text);
  }
}

TEST(Parser, WhitespaceInsensitive) {
  const auto a = parse_approx("memo(out:3:5:1.5)");
  const auto b = parse_approx("  memo ( out : 3 : 5 : 1.5 )  ");
  EXPECT_EQ(a.to_string(), b.to_string());
}

class PerfoStrideParse : public ::testing::TestWithParam<int> {};

TEST_P(PerfoStrideParse, AllTable2StridesParse) {
  const int stride = GetParam();
  const auto spec = parse_approx("perfo(small:" + std::to_string(stride) + ")");
  EXPECT_EQ(spec.perfo->stride, stride);
}

INSTANTIATE_TEST_SUITE_P(Table2, PerfoStrideParse, ::testing::Values(2, 4, 8, 16, 32, 64));
