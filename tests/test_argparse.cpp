#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/router.h"
#include "util/argparse.h"

namespace emmark {
namespace {

ArgParser make_parser() {
  ArgParser parser("tool", "test tool");
  parser.add_option("model", "opt-125m-sim", "model name");
  parser.add_option("bits", "12", "bits per layer");
  parser.add_option("alpha", "0.5", "scoring alpha");
  parser.add_flag("verbose", "chatty output");
  return parser;
}

TEST(ArgParse, DefaultsApply) {
  auto parser = make_parser();
  const char* argv[] = {"tool"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get("model"), "opt-125m-sim");
  EXPECT_EQ(parser.get_int("bits"), 12);
  EXPECT_DOUBLE_EQ(parser.get_double("alpha"), 0.5);
  EXPECT_FALSE(parser.get_flag("verbose"));
}

TEST(ArgParse, SpaceSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--model", "llama2-7b-sim", "--bits", "40"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get("model"), "llama2-7b-sim");
  EXPECT_EQ(parser.get_int("bits"), 40);
}

TEST(ArgParse, EqualsSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--alpha=0.25", "--verbose"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_DOUBLE_EQ(parser.get_double("alpha"), 0.25);
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(ArgParse, UnknownOptionFails) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
}

TEST(ArgParse, MissingValueFails) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--bits"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParse, PositionalArgumentFails) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "oops"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParse, HelpReturnsFalse) {
  auto parser = make_parser();
  const char* argv[] = {"tool", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParse, UnregisteredGetThrows) {
  auto parser = make_parser();
  const char* argv[] = {"tool"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_THROW(parser.get("nope"), std::invalid_argument);
}

TEST(ArgParse, UsageMentionsOptions) {
  auto parser = make_parser();
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--model"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

TEST(ArgParse, RouterConfigRoundTripsThroughItsOptions) {
  // The process-shard supervisor hands its RouterConfig to every worker as
  // argv: every field but `shards` must arrive exactly, doubles included
  // (std::to_string's six decimals would turn a 1e-7 s TTL into 0), and a
  // base seed above INT64_MAX too (a signed parse would reject it, and the
  // worker would exit at startup and be respawned forever).
  RouterConfig config;
  config.cache_dir = "zoo cache/dir";
  config.store_capacity = 7;
  config.max_resident_bytes = 123456789012;
  config.train_steps_cap = 33;
  config.base_seed = UINT64_MAX;
  config.min_wer_pct = 99.9999999;
  config.shards = 4;
  config.max_queued = 11;
  config.store_ttl_sec = 1e-7;
  config.echo = true;

  ArgParser parser("shard-worker", "router options");
  add_router_options(parser);
  ASSERT_TRUE(parser.parse(router_args(config)));
  const RouterConfig back = router_config_from(parser);
  EXPECT_EQ(back.cache_dir, config.cache_dir);
  EXPECT_EQ(back.store_capacity, config.store_capacity);
  EXPECT_EQ(back.max_resident_bytes, config.max_resident_bytes);
  EXPECT_EQ(back.train_steps_cap, config.train_steps_cap);
  EXPECT_EQ(back.base_seed, config.base_seed);
  EXPECT_EQ(back.min_wer_pct, config.min_wer_pct);
  EXPECT_EQ(back.max_queued, config.max_queued);
  EXPECT_EQ(back.store_ttl_sec, config.store_ttl_sec);
  EXPECT_EQ(back.echo, config.echo);
  EXPECT_EQ(back.shards, 1u);  // a worker serves one shard

  // And the defaults, so an unset flag is never rendered wrong.
  ASSERT_TRUE(parser.parse(router_args(RouterConfig{})));
  EXPECT_EQ(router_config_from(parser).min_wer_pct, RouterConfig{}.min_wer_pct);
  EXPECT_FALSE(router_config_from(parser).echo);
}

TEST(ArgParse, NumbersParseWhollyAndErrorsNameTheOption) {
  // "3abc" is not 3 and "95percent" is not 95; a negative or overflowing
  // value for an unsigned option must not wrap.
  ArgParser parser("daemon", "router options");
  add_router_options(parser);
  const std::vector<std::vector<std::string>> rejected = {
      {"--base-seed", "-1"},
      {"--base-seed", "18446744073709551616"},
      {"--shards", "-2"},
      {"--capacity", "3abc"},
      {"--min-wer", "95percent"},
      {"--train-cap", "40x"},
  };
  for (const auto& argv : rejected) {
    ASSERT_TRUE(parser.parse(argv));
    try {
      (void)router_config_from(parser);
      ADD_FAILURE() << argv[0] << " " << argv[1] << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("option " + argv[0]), std::string::npos) << what;
      EXPECT_NE(what.find("got: " + argv[1]), std::string::npos) << what;
    }
  }
}

TEST(ArgParse, UintMaxRejectsWhatANarrowerFieldWouldWrap) {
  // `serve --port` lands in a uint16_t and the respawn backoffs in an int:
  // past the bound a value must fail naming the option, not wrap (70000
  // used to listen on 4464, -1 on 65535).
  ArgParser parser("serve", "bounded options");
  parser.add_option("port", "4780", "port");
  parser.add_option("respawn-backoff", "200", "ms");
  for (const std::string bad : {"70000", "65536", "-1"}) {
    ASSERT_TRUE(parser.parse(std::vector<std::string>{"--port", bad}));
    try {
      (void)parser.get_uint("port", UINT16_MAX);
      ADD_FAILURE() << "--port " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("option --port"), std::string::npos) << what;
      EXPECT_NE(what.find("got: " + bad), std::string::npos) << what;
    }
  }
  for (const std::string good : {"0", "65535"}) {
    ASSERT_TRUE(parser.parse(std::vector<std::string>{"--port", good}));
    EXPECT_EQ(parser.get_uint("port", UINT16_MAX), std::stoull(good));
  }
  ASSERT_TRUE(parser.parse(std::vector<std::string>{"--respawn-backoff", "2147483648"}));
  EXPECT_THROW(parser.get_uint("respawn-backoff", INT32_MAX), std::invalid_argument);
  ASSERT_TRUE(parser.parse(std::vector<std::string>{"--respawn-backoff", "2147483647"}));
  EXPECT_EQ(parser.get_uint("respawn-backoff", INT32_MAX), uint64_t{INT32_MAX});
}

}  // namespace
}  // namespace emmark
