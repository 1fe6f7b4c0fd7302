#include "common/config.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace dlion::common {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValueFlags) {
  const Config cfg = parse({"--scale=paper", "--seed=7"});
  EXPECT_EQ(cfg.get_string("scale", "bench"), "paper");
  EXPECT_EQ(cfg.get_int("seed", 0), 7);
}

TEST(Config, BareFlagIsTrue) {
  const Config cfg = parse({"--verbose"});
  EXPECT_TRUE(cfg.get_bool("verbose", false));
}

TEST(Config, MissingKeyUsesFallback) {
  const Config cfg = parse({});
  EXPECT_EQ(cfg.get_string("missing", "fallback"), "fallback");
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("missing", true));
}

TEST(Config, LaterFlagWins) {
  const Config cfg = parse({"--x=1", "--x=2"});
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

TEST(Config, NonFlagArgumentsIgnored) {
  const Config cfg = parse({"positional", "--k=v"});
  EXPECT_EQ(cfg.get_string("k", ""), "v");
  EXPECT_FALSE(cfg.contains("positional"));
}

TEST(Config, MalformedNumberThrows) {
  // Neither garbage nor a numeric prefix ("6O" is six and a letter O)
  // silently becomes the fallback or the prefix.
  for (const char* bad : {"--n=abc", "--n=6O", "--n=", "--n=1.5x"}) {
    const Config cfg = parse({bad});
    EXPECT_THROW(cfg.get_double("n", 1.5), std::invalid_argument) << bad;
    EXPECT_THROW(cfg.get_int("n", 9), std::invalid_argument) << bad;
  }
  // A fractional value is not an integer.
  EXPECT_THROW(parse({"--n=2.5"}).get_int("n", 9), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse({"--n=2.5"}).get_double("n", 0.0), 2.5);
  try {
    parse({"--seed=abc"}).get_int("seed", 42);
    FAIL() << "--seed=abc parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seed=abc"), std::string::npos)
        << e.what();
  }
}

TEST(Config, MalformedBoolThrows) {
  for (const char* bad : {"--a=maybe", "--a=TRUE", "--a=", "--a=2"}) {
    EXPECT_THROW(parse({bad}).get_bool("a", false), std::invalid_argument)
        << bad;
  }
}

TEST(Config, BoolParsingVariants) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=on"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=off"}).get_bool("a", true));
}

TEST(Config, EnvironmentFallback) {
  ::setenv("DLION_TEST_KEY_XYZ", "from-env", 1);
  const Config cfg = parse({});
  EXPECT_EQ(cfg.get_string("test-key-xyz", ""), "from-env");
  ::unsetenv("DLION_TEST_KEY_XYZ");
}

TEST(Config, FlagOverridesEnvironment) {
  ::setenv("DLION_PRIORITY", "env", 1);
  const Config cfg = parse({"--priority=flag"});
  EXPECT_EQ(cfg.get_string("priority", ""), "flag");
  ::unsetenv("DLION_PRIORITY");
}

TEST(Config, SetAndContains) {
  Config cfg;
  EXPECT_FALSE(cfg.contains("k"));
  cfg.set("k", "v");
  EXPECT_TRUE(cfg.contains("k"));
  EXPECT_EQ(cfg.get_string("k", ""), "v");
}

}  // namespace
}  // namespace dlion::common
