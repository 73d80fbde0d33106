// Autotuning table (dc/tune.hpp): JSON round trip, nearest-n lookup with
// precision/worker wildcards, and the solve-time precedence contract --
// an explicit Options::nb always outranks the table, which only replaces
// the built-in default. The end-to-end test proves a
// DNC_TUNE_TABLE solve stamps the consulted entry into its SolveReport.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "dc/api.hpp"
#include "dc/options.hpp"
#include "dc/tune.hpp"
#include "matgen/tridiag.hpp"

namespace dnc::dc::tune {
namespace {

Table sample_table() {
  Table t;
  Entry a;
  a.n = 100;
  a.family = "type4";
  a.precision = "f64";
  a.workers = 4;
  a.nb = 96;
  a.makespan = 0.012;
  a.how = "solve-sweep";
  Entry b;
  b.n = 500;
  b.nb = 192;
  b.makespan = 0.25;
  b.how = "trace-sweep";
  t.entries = {a, b};
  return t;
}

/// Writes `t` to a per-test file name and points DNC_TUNE_TABLE at it.
/// Distinct names per test keep the mtime+size table cache honest.
struct ScopedTuneTable {
  std::string path;
  explicit ScopedTuneTable(const std::string& name, const Table& t) : path(name) {
    std::ofstream f(path);
    f << table_to_json(t);
    f.close();
    setenv("DNC_TUNE_TABLE", path.c_str(), 1);
  }
  ~ScopedTuneTable() {
    unsetenv("DNC_TUNE_TABLE");
    std::remove(path.c_str());
  }
};

TEST(TuneTest, DefaultsMatchOptions) {
  // tune.cpp's kDefaultNb is the value apply_env_tuning treats as "caller
  // left it alone"; it must track the Options default.
  EXPECT_EQ(Options{}.nb, 128);
}

TEST(TuneTest, JsonRoundTrip) {
  const Table t = sample_table();
  Table back;
  std::string err;
  ASSERT_TRUE(parse_table(table_to_json(t), back, &err)) << err;
  EXPECT_EQ(back.version, 1);
  ASSERT_EQ(back.entries.size(), 2u);
  const Entry& a = back.entries[0];
  EXPECT_EQ(a.n, 100);
  EXPECT_EQ(a.family, "type4");
  EXPECT_EQ(a.precision, "f64");
  EXPECT_EQ(a.workers, 4);
  EXPECT_EQ(a.nb, 96);
  EXPECT_NEAR(a.makespan, 0.012, 1e-9);
  EXPECT_EQ(a.how, "solve-sweep");
  const Entry& b = back.entries[1];
  EXPECT_EQ(b.n, 500);
  EXPECT_EQ(b.precision, "");
  EXPECT_EQ(b.workers, 0);
  // Tables written when the runtime had two policies carry a "sched"
  // member; it is ignored like any unknown member.
  Table legacy;
  ASSERT_TRUE(parse_table(
      "{\"version\": 1, \"entries\": [{\"n\": 600, \"nb\": 96, \"sched\": \"central\"}]}",
      legacy, &err))
      << err;
  ASSERT_EQ(legacy.entries.size(), 1u);
  EXPECT_EQ(legacy.entries[0].nb, 96);
  EXPECT_EQ(entry_label(legacy.entries[0]), "n=600 nb=96");
}

TEST(TuneTest, RejectsWrongVersionAndGarbage) {
  Table t;
  std::string err;
  EXPECT_FALSE(parse_table("{\"version\": 2, \"entries\": []}", t, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;
  EXPECT_FALSE(parse_table("not json at all", t, &err));
  EXPECT_FALSE(parse_table("{\"version\": 1}", t, &err)) << "entries required";
  Table ok;
  ASSERT_TRUE(parse_table(
      "{\"version\": 1, \"entries\": [{\"n\": 0, \"nb\": 64}, {\"n\": 10}]}", ok, &err))
      << err;
  EXPECT_EQ(ok.entries.size(), 1u) << "n<=0 entries are dropped";
}

TEST(TuneTest, LookupNearestNWithFilters) {
  const Table t = sample_table();  // entries at n=100 (f64, 4 workers), n=500 (wildcards)
  // Nearest n; ties go to the smaller entry.
  const Entry* e = lookup(t, 120, "f64", 4);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->n, 100);
  e = lookup(t, 450, "f64", 4);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->n, 500);
  e = lookup(t, 300, "f64", 4);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->n, 100) << "equidistant: smaller n wins";
  // Precision filter: the f64-only entry is invisible to an f32 solve, the
  // wildcard entry still matches.
  e = lookup(t, 120, "f32", 4);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->n, 500);
  // Workers filter: entry workers=4 is skipped for an 8-worker solve.
  e = lookup(t, 100, "f64", 8);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->n, 500);
  // Caller workers=0 wildcards the filter from the other side.
  e = lookup(t, 100, "f64", 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->n, 100);
  EXPECT_EQ(lookup(Table{}, 100, "f64", 4), nullptr);
}

TEST(TuneTest, EntryLabelOmitsUnsetFields) {
  EXPECT_EQ(entry_label(sample_table().entries[0]),
            "n=100 family=type4 precision=f64 workers=4 nb=96");
  EXPECT_EQ(entry_label(sample_table().entries[1]), "n=500 nb=192");
}

TEST(TuneTest, ApplyOverridesOnlyDefaultNb) {
  Table t;
  Entry e;
  e.n = 200;
  e.nb = 96;
  t.entries = {e};
  ScopedTuneTable table("tune_test_nb.json", t);
  Options opt;
  ASSERT_TRUE(apply_env_tuning(opt, 200));
  EXPECT_EQ(opt.nb, 96);
  Options explicit_opt;
  explicit_opt.nb = 160;
  ASSERT_TRUE(apply_env_tuning(explicit_opt, 200)) << "consultation still recorded";
  EXPECT_EQ(explicit_opt.nb, 160) << "explicit Options outrank the table";
}

TEST(TuneTest, NoTableMeansNoStamp) {
  unsetenv("DNC_TUNE_TABLE");
  Options opt;
  EXPECT_FALSE(apply_env_tuning(opt, 200));
  obs::SolveReport rep;
  rep.tuned = true;  // a stale value the stamp must overwrite
  stamp_report(rep);
  EXPECT_FALSE(rep.tuned);
  EXPECT_EQ(rep.tune_entry, "");
}

TEST(TuneTest, SolveStampsConsultedEntryIntoReport) {
  // Precision/worker wildcards so the DNC_PREC re-run configurations of
  // this suite match the entry too.
  Table t;
  Entry e;
  e.n = 96;
  e.nb = 48;
  t.entries = {e};
  ScopedTuneTable table("tune_test_solve.json", t);
  const index_t n = 96;
  matgen::Tridiag m = matgen::table3_matrix(4, n);
  Matrix v;
  SolveStats stats;
  Options opt;
  opt.threads = 2;
  stedc_taskflow(n, m.d.data(), m.e.data(), v, opt, &stats);
  EXPECT_TRUE(stats.report.tuned);
  EXPECT_EQ(stats.report.tune_source, table.path);
  EXPECT_EQ(stats.report.tune_entry, "n=96 nb=48");

  // A follow-up solve without the table must not inherit the stamp.
  unsetenv("DNC_TUNE_TABLE");
  matgen::Tridiag m2 = matgen::table3_matrix(4, n);
  SolveStats stats2;
  stedc_taskflow(n, m2.d.data(), m2.e.data(), v, opt, &stats2);
  EXPECT_FALSE(stats2.report.tuned);
  EXPECT_EQ(stats2.report.tune_entry, "");
}

}  // namespace
}  // namespace dnc::dc::tune
