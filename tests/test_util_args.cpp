#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/args.hpp"

namespace hsbp::util {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EmptyCommandLine) {
  const Args args = make_args({});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_FALSE(args.has("anything"));
  EXPECT_TRUE(args.positionals().empty());
}

TEST(Args, SpaceSeparatedValue) {
  const Args args = make_args({"--vertices", "1000"});
  EXPECT_TRUE(args.has("vertices"));
  EXPECT_EQ(args.get_int("vertices", 0), 1000);
}

TEST(Args, EqualsSeparatedValue) {
  const Args args = make_args({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.25);
}

TEST(Args, BareFlagIsTrue) {
  const Args args = make_args({"--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, BooleanSpellings) {
  EXPECT_TRUE(make_args({"--f", "yes"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"--f", "on"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"--f=1"}).get_bool("f", false));
  EXPECT_TRUE(make_args({"--f", "TRUE"}).get_bool("f", false));
  EXPECT_FALSE(make_args({"--f", "no"}).get_bool("f", true));
  EXPECT_FALSE(make_args({"--f=0"}).get_bool("f", true));
  EXPECT_FALSE(make_args({"--f", "Off"}).get_bool("f", true));
}

TEST(Args, DefaultsWhenAbsent) {
  const Args args = make_args({});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get_string("s", "fallback"), "fallback");
  EXPECT_TRUE(args.get_bool("b", true));
}

TEST(Args, NamesListsEveryFlagOnceSorted) {
  const Args args =
      make_args({"in.mtx", "--seed", "3", "--algorithm=hsbp", "--json",
                 "--seed", "4"});
  EXPECT_EQ(args.names(),
            (std::vector<std::string>{"algorithm", "json", "seed"}));
  EXPECT_TRUE(make_args({"in.mtx"}).names().empty());
}

TEST(Args, PositionalsCollected) {
  const Args args = make_args({"input.mtx", "--runs", "3", "output.tsv"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "input.mtx");
  EXPECT_EQ(args.positionals()[1], "output.tsv");
  EXPECT_EQ(args.get_int("runs", 0), 3);
}

TEST(Args, NegativeNumbersParse) {
  const Args args = make_args({"--offset=-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

TEST(Args, MalformedIntegerThrows) {
  const Args args = make_args({"--n", "abc"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
}

TEST(Args, MalformedDoubleThrows) {
  const Args args = make_args({"--x", "oops"});
  EXPECT_THROW(args.get_double("x", 0.0), std::invalid_argument);
}

TEST(Args, MalformedBoolThrows) {
  const Args args = make_args({"--b", "maybe"});
  EXPECT_THROW(args.get_bool("b", false), std::invalid_argument);
}

TEST(Args, LastOccurrenceWins) {
  const Args args = make_args({"--n", "1", "--n", "2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

TEST(Args, BareFlagLeavesNextTokenPositional) {
  std::vector<const char*> argv = {"prog", "--weighted", "g.mtx", "--runs",
                                   "1"};
  const std::string_view bare[] = {"weighted"};
  const Args args(static_cast<int>(argv.size()), argv.data(), bare);
  EXPECT_TRUE(args.get_bool("weighted", false));
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "g.mtx");
  EXPECT_EQ(args.get_int("runs", 0), 1);

  // `--flag=value` still sets a value; other flags still take the next
  // token.
  argv = {"prog", "--weighted=false", "--out", "x.tsv", "g.mtx"};
  const Args spelled(static_cast<int>(argv.size()), argv.data(), bare);
  EXPECT_FALSE(spelled.get_bool("weighted", true));
  EXPECT_EQ(spelled.get_string("out", ""), "x.tsv");
  ASSERT_EQ(spelled.positionals().size(), 1u);

  // Without the bare list the flag takes the positional as its value.
  EXPECT_TRUE(make_args({"--weighted", "g.mtx"}).positionals().empty());
}

}  // namespace
}  // namespace hsbp::util
