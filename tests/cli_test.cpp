#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdlib>

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
