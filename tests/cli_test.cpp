#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace churnstore {
namespace {

TEST(Cli, ParsesEqualsForm) {
  Cli cli({"--n=1024", "--rate=2.5", "--verbose=true"});
  EXPECT_EQ(cli.get_int("n", 0), 1024);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, ParsesSpaceForm) {
  Cli cli({"--n", "512", "--name", "soup"});
  EXPECT_EQ(cli.get_int("n", 0), 512);
  EXPECT_EQ(cli.get("name", ""), "soup");
}

TEST(Cli, BareFlagIsTrue) {
  Cli cli({"--fast", "--n=4"});
  EXPECT_TRUE(cli.get_bool("fast", false));
  EXPECT_EQ(cli.get_int("n", 0), 4);
}

TEST(Cli, FallbacksWhenMissing) {
  Cli cli({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, IntListParsing) {
  Cli cli({"--sizes=256,512,1024"});
  const auto v = cli.get_int_list("sizes", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 256);
  EXPECT_EQ(v[1], 512);
  EXPECT_EQ(v[2], 1024);
}

TEST(Cli, IntListFallback) {
  Cli cli({});
  const auto v = cli.get_int_list("sizes", {1, 2});
  ASSERT_EQ(v.size(), 2u);
}

/// `fn` throws std::invalid_argument whose message names `key` and `value`.
template <typename Fn>
void expect_rejected(const std::string& key, const std::string& value, Fn fn) {
  try {
    fn();
    FAIL() << key << "=" << value << " must not parse";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'" + key + "'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'" + value + "'"), std::string::npos) << msg;
  }
}

TEST(Cli, ValuesMustParseWhole) {
  // A prefix parse would run n=256x as n=256 and churn-mult=0.5.9 as 0.5.
  for (const std::string v : {"256x", "abc", "", " 256", "+256", "2.5",
                              "99999999999999999999"}) {
    expect_rejected("n", v, [&v] { (void)Cli({"n=" + v}).get_int("n", 0); });
  }
  for (const std::string v : {"0.5.9", "1e", "", "nan", "inf", "-inf",
                              "1e999", "0x1p3"}) {
    expect_rejected("churn-mult", v, [&v] {
      (void)Cli({"churn-mult=" + v}).get_double("churn-mult", 0.0);
    });
  }
  // Any other spelling used to read false: csv=ture printed the text table.
  for (const std::string v : {"ture", "", "TRUE", "2", "y"}) {
    expect_rejected("csv", v, [&v] { (void)Cli({"csv=" + v}).get_bool("csv", false); });
  }
  for (const std::string v : {"", "256,,512", "256,", ",256", "256,5x"}) {
    expect_rejected("n", v, [&v] {
      (void)Cli({"n=" + v}).get_int_list("n", {1});
    });
  }
  // The accepted spellings still parse.
  EXPECT_EQ(Cli({"n=-7"}).get_int("n", 0), -7);
  EXPECT_DOUBLE_EQ(Cli({"x=1e-3"}).get_double("x", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(Cli({"x=.5"}).get_double("x", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(Cli({"x=10"}).get_double("x", 0.0), 10.0);
  for (const char* yes : {"true", "1", "yes", "on"}) {
    EXPECT_TRUE(Cli({std::string("b=") + yes}).get_bool("b", false)) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    EXPECT_FALSE(Cli({std::string("b=") + no}).get_bool("b", true)) << no;
  }
  EXPECT_EQ(Cli({"n=256"}).get_int_list("n", {}),
            (std::vector<std::int64_t>{256}));
}

TEST(Cli, PositionalArguments) {
  Cli cli({"run", "--n=2", "fast"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "run");
  EXPECT_EQ(cli.positional()[1], "fast");
}

TEST(Cli, EnvironmentFallback) {
  // The command line is the only input: an exported CHURNSTORE_<KEY>
  // variable must not reach the run.
  ::setenv("CHURNSTORE_TEST_KNOB", "99", 1);
  Cli cli({});
  EXPECT_EQ(cli.get_int("test-knob", 0), 0);
  EXPECT_FALSE(cli.has("test-knob"));
  ::unsetenv("CHURNSTORE_TEST_KNOB");
}

}  // namespace
}  // namespace churnstore
