#include "util/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace snnmap::util {
namespace {

TEST(Config, ParsesFlatScalars) {
  const auto cfg = Config::parse(
      "name: noxim\n"
      "buffer_depth: 4\n"
      "rate: 2.5\n"
      "multicast: true\n");
  EXPECT_EQ(cfg.get_string("name"), "noxim");
  EXPECT_EQ(cfg.get_string("buffer_depth"), "4");
  EXPECT_EQ(cfg.get_string("rate"), "2.5");
  EXPECT_EQ(cfg.get_string("multicast"), "true");
}

TEST(Config, ParsesNestedSection) {
  const auto cfg = Config::parse(
      "energy:\n"
      "  link_hop_pj: 10.5\n"
      "  router_flit_pj: 6\n"
      "noc:\n"
      "  buffer_depth: 8\n");
  EXPECT_EQ(cfg.get_string("energy.link_hop_pj"), "10.5");
  EXPECT_EQ(cfg.get_string("energy.router_flit_pj"), "6");
  EXPECT_EQ(cfg.get_string("noc.buffer_depth"), "8");
}

TEST(Config, IgnoresCommentsAndBlankLines) {
  const auto cfg = Config::parse(
      "# power model\n"
      "\n"
      "a: 1  # trailing comment\n"
      "   \n"
      "b: 2\n");
  EXPECT_EQ(cfg.get_string("a"), "1");
  EXPECT_EQ(cfg.get_string("b"), "2");
}

TEST(Config, QuotedStringsKeepHashAndSpaces) {
  const auto cfg = Config::parse("label: \"mesh # 4x4\"\n");
  EXPECT_EQ(cfg.get_string("label"), "mesh # 4x4");
}

TEST(Config, MissingKeyIsNullopt) {
  const auto cfg = Config::parse("a: 1\n");
  EXPECT_FALSE(cfg.get_string("zzz").has_value());
  EXPECT_FALSE(cfg.contains("zzz"));
  EXPECT_TRUE(cfg.contains("a"));
}

TEST(Config, RejectsTabs) {
  EXPECT_THROW(Config::parse("a:\n\tb: 1\n"), std::runtime_error);
}

TEST(Config, RejectsBadIndent) {
  EXPECT_THROW(Config::parse("a:\n   b: 1\n"), std::runtime_error);
  EXPECT_THROW(Config::parse(" a: 1\n"), std::runtime_error);
}

TEST(Config, RejectsMissingColon) {
  EXPECT_THROW(Config::parse("just a line\n"), std::runtime_error);
}

TEST(Config, RejectsNestedWithoutSection) {
  EXPECT_THROW(Config::parse("  a: 1\n"), std::runtime_error);
}

TEST(Config, RejectsDeepNesting) {
  EXPECT_THROW(Config::parse("a:\n  b:\n"), std::runtime_error);
}

TEST(Config, SetAndDumpRoundTrip) {
  Config cfg;
  cfg.set("energy.link_hop_pj", "10.5");
  cfg.set("name", "x");
  const auto reparsed = Config::parse(cfg.dump());
  EXPECT_EQ(reparsed.get_string("energy.link_hop_pj"), "10.5");
  EXPECT_EQ(reparsed.get_string("name"), "x");
}

TEST(Config, KeysAreSorted) {
  Config cfg;
  cfg.set("b", "1");
  cfg.set("a", "2");
  const auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(Config, LoadFileMissingThrows) {
  EXPECT_THROW(Config::load_file("/nonexistent/path.yaml"),
               std::runtime_error);
}

}  // namespace
}  // namespace snnmap::util
