#include <gtest/gtest.h>

#include "netbase/ip.hpp"

namespace asrel::net {
namespace {

TEST(Ipv4, ParseAndFormat) {
  const auto addr = parse_ipv4("10.2.0.1");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->bits(), 0x0A020001u);
  EXPECT_EQ(to_string(*addr), "10.2.0.1");
}

TEST(Ipv4, ParseEdgeValues) {
  EXPECT_EQ(parse_ipv4("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(parse_ipv4("255.255.255.255")->bits(), 0xFFFFFFFFu);
}

TEST(Ipv4, RejectsMalformed) {
  EXPECT_FALSE(parse_ipv4(""));
  EXPECT_FALSE(parse_ipv4("1.2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(parse_ipv4("256.0.0.1"));
  EXPECT_FALSE(parse_ipv4("1.2.3.x"));
  EXPECT_FALSE(parse_ipv4("1..2.3"));
}

TEST(Ipv4, BitIndexingFromMsb) {
  const Ipv4Addr addr{0x80000001u};
  EXPECT_TRUE(addr.bit(0));
  EXPECT_FALSE(addr.bit(1));
  EXPECT_TRUE(addr.bit(31));
}

TEST(Ipv6, ParseFull) {
  const auto addr = parse_ipv6("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->high(), 0x20010db800000000ull);
  EXPECT_EQ(addr->low(), 1ull);
}

TEST(Ipv6, ParseCompressed) {
  const auto addr = parse_ipv6("2001:db8::1");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->high(), 0x20010db800000000ull);
  EXPECT_EQ(addr->low(), 1ull);
  EXPECT_EQ(*parse_ipv6("::"), (Ipv6Addr{0, 0}));
  EXPECT_EQ(*parse_ipv6("::1"), (Ipv6Addr{0, 1}));
  EXPECT_EQ(*parse_ipv6("fe80::"), (Ipv6Addr{0xfe80000000000000ull, 0}));
}

TEST(Ipv6, RejectsMalformed) {
  EXPECT_FALSE(parse_ipv6(""));
  EXPECT_FALSE(parse_ipv6("1:2:3:4:5:6:7"));       // too few, no ::
  EXPECT_FALSE(parse_ipv6("1:2:3:4:5:6:7:8:9"));   // too many
  EXPECT_FALSE(parse_ipv6("::1::2"));              // two gaps
  EXPECT_FALSE(parse_ipv6("12345::"));             // group too wide
  EXPECT_FALSE(parse_ipv6("gggg::"));
}

TEST(Ipv6, FormatCompressesLongestRun) {
  EXPECT_EQ(to_string(Ipv6Addr{0x20010db800000000ull, 1}), "2001:db8::1");
  EXPECT_EQ(to_string(Ipv6Addr{0, 0}), "::");
  EXPECT_EQ(to_string(Ipv6Addr{0, 1}), "::1");
}

class Ipv6RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(Ipv6RoundTripTest, RoundTrips) {
  const auto addr = parse_ipv6(GetParam());
  ASSERT_TRUE(addr);
  EXPECT_EQ(parse_ipv6(to_string(*addr)), addr);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Ipv6RoundTripTest,
                         ::testing::Values("::", "::1", "2001:db8::1",
                                           "fe80::1:2:3", "1:2:3:4:5:6:7:8",
                                           "2001:db8:0:1::", "a:b::c:0:0:d"));

TEST(Prefix4, CanonicalizesHostBits) {
  const Prefix4 prefix{Ipv4Addr{10, 1, 2, 3}, 8};
  EXPECT_EQ(prefix.network(), (Ipv4Addr{10, 0, 0, 0}));
  EXPECT_EQ(prefix.length(), 8u);
}

TEST(Prefix4, Contains) {
  const auto prefix = *parse_prefix4("10.0.0.0/8");
  EXPECT_TRUE(prefix.contains(Ipv4Addr{10, 255, 0, 1}));
  EXPECT_FALSE(prefix.contains(Ipv4Addr{11, 0, 0, 1}));
  EXPECT_TRUE(prefix.contains(*parse_prefix4("10.2.0.0/16")));
  EXPECT_FALSE(prefix.contains(*parse_prefix4("0.0.0.0/0")));
}

TEST(Prefix4, ZeroLengthContainsEverything) {
  const Prefix4 all{Ipv4Addr{1, 2, 3, 4}, 0};
  EXPECT_EQ(all.network().bits(), 0u);
  EXPECT_TRUE(all.contains(Ipv4Addr{255, 255, 255, 255}));
  EXPECT_EQ(all.address_count(), 1ull << 32);
}

TEST(Prefix4, AddressCount) {
  EXPECT_EQ(parse_prefix4("10.0.0.0/8")->address_count(), 1u << 24);
  EXPECT_EQ(parse_prefix4("10.0.0.0/24")->address_count(), 256u);
  EXPECT_EQ(parse_prefix4("10.0.0.1/32")->address_count(), 1u);
}

TEST(Prefix4, ParseRejects) {
  EXPECT_FALSE(parse_prefix4("10.0.0.0"));
  EXPECT_FALSE(parse_prefix4("10.0.0.0/33"));
  EXPECT_FALSE(parse_prefix4("10.0.0/8"));
  EXPECT_FALSE(parse_prefix4("/8"));
}

TEST(Prefix4, FormatRoundTrips) {
  EXPECT_EQ(to_string(*parse_prefix4("10.128.0.0/9")), "10.128.0.0/9");
}

TEST(Prefix6, CanonicalizesAndContains) {
  const Prefix6 prefix{*parse_ipv6("2001:db8::ffff"), 32};
  EXPECT_EQ(to_string(prefix), "2001:db8::/32");
  EXPECT_TRUE(prefix.contains(*parse_ipv6("2001:db8:1::1")));
  EXPECT_FALSE(prefix.contains(*parse_ipv6("2001:db9::1")));
  EXPECT_TRUE(prefix.contains(*parse_prefix6("2001:db8:ff::/48")));
}

TEST(Prefix6, LongLengths) {
  const auto p127 = *parse_prefix6("2001:db8::/127");
  EXPECT_TRUE(p127.contains(*parse_ipv6("2001:db8::1")));
  EXPECT_FALSE(p127.contains(*parse_ipv6("2001:db8::2")));
}

}  // namespace
}  // namespace asrel::net
