// The env front door (common/env.hpp): typed getters over DNC_* knobs and
// the knob-reference table, plus parse_topology_spec -- the pure parser
// behind DNC_TOPOLOGY (cpu_topology() itself is probed once per process,
// so tests exercise the parser directly rather than racing the cache).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "common/cpu_features.hpp"
#include "common/env.hpp"

namespace dnc {
namespace {

// Each test uses its own variable name so ctest's parallel runners (which
// share the process environment within one gtest binary) cannot interfere.
struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const char* value) : name(n) { setenv(n, value, 1); }
  ~ScopedEnv() { unsetenv(name); }
};

TEST(EnvTest, RawAndIsSet) {
  unsetenv("DNC_TEST_RAW");
  EXPECT_EQ(env::raw("DNC_TEST_RAW"), nullptr);
  EXPECT_FALSE(env::is_set("DNC_TEST_RAW"));
  {
    ScopedEnv e("DNC_TEST_RAW", "hello");
    ASSERT_NE(env::raw("DNC_TEST_RAW"), nullptr);
    EXPECT_STREQ(env::raw("DNC_TEST_RAW"), "hello");
    EXPECT_TRUE(env::is_set("DNC_TEST_RAW"));
  }
  EXPECT_FALSE(env::is_set("DNC_TEST_RAW"));
  ScopedEnv e("DNC_TEST_RAW", "");
  EXPECT_FALSE(env::is_set("DNC_TEST_RAW")) << "empty value counts as unset";
}

TEST(EnvTest, StrDefaultsWhenUnsetOrEmpty) {
  unsetenv("DNC_TEST_STR");
  EXPECT_EQ(env::str("DNC_TEST_STR", "dflt"), "dflt");
  ScopedEnv e("DNC_TEST_STR", "value");
  EXPECT_EQ(env::str("DNC_TEST_STR", "dflt"), "value");
  setenv("DNC_TEST_STR", "", 1);
  EXPECT_EQ(env::str("DNC_TEST_STR", "dflt"), "dflt");
}

TEST(EnvTest, FlagSpellings) {
  unsetenv("DNC_TEST_FLAG");
  EXPECT_FALSE(env::flag("DNC_TEST_FLAG"));
  EXPECT_TRUE(env::flag("DNC_TEST_FLAG", true)) << "default honoured when unset";
  for (const char* off : {"0", "off", "false", "no"}) {
    setenv("DNC_TEST_FLAG", off, 1);
    EXPECT_FALSE(env::flag("DNC_TEST_FLAG", true)) << "value '" << off << "'";
  }
  setenv("DNC_TEST_FLAG", "", 1);
  EXPECT_TRUE(env::flag("DNC_TEST_FLAG", true)) << "empty behaves like unset";
  for (const char* on : {"1", "on", "true", "yes", "anything"}) {
    setenv("DNC_TEST_FLAG", on, 1);
    EXPECT_TRUE(env::flag("DNC_TEST_FLAG")) << "value '" << on << "'";
  }
  unsetenv("DNC_TEST_FLAG");
}

TEST(EnvTest, IntegerParsesAndFallsBack) {
  unsetenv("DNC_TEST_INT");
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), 42);
  ScopedEnv e("DNC_TEST_INT", "96");
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), 96);
  setenv("DNC_TEST_INT", "-7", 1);
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), -7);
  setenv("DNC_TEST_INT", "notanumber", 1);
  EXPECT_EQ(env::integer("DNC_TEST_INT", 42), 42);
}

TEST(EnvTest, NumberParsesAndFallsBack) {
  unsetenv("DNC_TEST_NUM");
  EXPECT_DOUBLE_EQ(env::number("DNC_TEST_NUM", 1.5), 1.5);
  ScopedEnv e("DNC_TEST_NUM", "2.5e-3");
  EXPECT_DOUBLE_EQ(env::number("DNC_TEST_NUM", 1.5), 2.5e-3);
  setenv("DNC_TEST_NUM", "garbage", 1);
  EXPECT_DOUBLE_EQ(env::number("DNC_TEST_NUM", 1.5), 1.5);
}

TEST(EnvTest, KnobReferenceIsSentinelTerminatedAndComplete) {
  const env::Knob* knobs = env::knob_reference();
  ASSERT_NE(knobs, nullptr);
  bool saw_tune = false, saw_topo = false, saw_hist = false;
  int flight_triggers = 0;
  int count = 0;
  for (const env::Knob* k = knobs; k->name != nullptr; ++k) {
    ASSERT_LT(++count, 256) << "runaway table: missing sentinel?";
    EXPECT_NE(k->summary, nullptr) << k->name;
    EXPECT_EQ(std::strncmp(k->name, "DNC_", 4), 0) << k->name;
    if (!std::strcmp(k->name, "DNC_TUNE_TABLE")) saw_tune = true;
    if (!std::strcmp(k->name, "DNC_TOPOLOGY")) saw_topo = true;
    for (const char* trigger : {"DNC_FLIGHT_RESID", "DNC_FLIGHT_LATENCY", "DNC_FLIGHT_DEFL"})
      if (!std::strcmp(k->name, trigger)) ++flight_triggers;
    if (!std::strcmp(k->name, "DNC_HISTORY")) saw_hist = true;
  }
  EXPECT_EQ(count, 19);
  EXPECT_TRUE(saw_tune);
  EXPECT_TRUE(saw_topo);
  EXPECT_EQ(flight_triggers, 3);
  EXPECT_TRUE(saw_hist);
}

TEST(TopologySpecTest, ParsesSocketsByL3ByCpus) {
  CpuTopology t;
  ASSERT_TRUE(parse_topology_spec("2x2x4", t));
  EXPECT_EQ(t.cpus, 16);
  EXPECT_EQ(t.sockets, 2);
  EXPECT_EQ(t.l3_domains, 4);
  EXPECT_TRUE(t.detected);
  EXPECT_EQ(t.source, "override");
  ASSERT_EQ(t.socket_of.size(), 16u);
  ASSERT_EQ(t.l3_of.size(), 16u);
  // cpus 0-7 on socket 0 (L3 domains 0,1), cpus 8-15 on socket 1 (2,3).
  for (int c = 0; c < 16; ++c) {
    EXPECT_EQ(t.socket_of[static_cast<std::size_t>(c)], c / 8) << "cpu " << c;
    EXPECT_EQ(t.l3_of[static_cast<std::size_t>(c)], c / 4) << "cpu " << c;
  }
}

TEST(TopologySpecTest, FlatSpecCollapsesHierarchy) {
  CpuTopology t;
  ASSERT_TRUE(parse_topology_spec("flat", t));
  EXPECT_EQ(t.sockets, 1);
  EXPECT_EQ(t.l3_domains, 1);
  EXPECT_GE(t.cpus, 1);
  for (int s : t.socket_of) EXPECT_EQ(s, 0);
  for (int l : t.l3_of) EXPECT_EQ(l, 0);
}

TEST(TopologySpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "2x2", "2x2x", "x2x2", "0x1x1", "1x0x1", "1x1x0", "2x2x4x8", "axbxc",
        "2x2x4 ", "-1x1x1"}) {
    CpuTopology t;
    t.cpus = -99;  // canary: a rejecting parse must leave `out` untouched
    EXPECT_FALSE(parse_topology_spec(bad, t)) << "spec '" << bad << "'";
    EXPECT_EQ(t.cpus, -99) << "spec '" << bad << "' modified out";
  }
  CpuTopology t;
  EXPECT_FALSE(parse_topology_spec(nullptr, t));
}

}  // namespace
}  // namespace dnc
