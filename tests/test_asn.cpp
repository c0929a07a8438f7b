#include "asn/asn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace asrel::asn {
namespace {

TEST(Asn, DefaultConstructsToZero) { EXPECT_EQ(Asn{}.value(), 0u); }

TEST(Asn, ComparesByValue) {
  EXPECT_LT(Asn{1}, Asn{2});
  EXPECT_EQ(Asn{3356}, Asn{3356});
  EXPECT_NE(Asn{3356}, Asn{174});
}

TEST(Asn, SixteenBitBoundary) {
  EXPECT_TRUE(Asn{65535}.is_16bit());
  EXPECT_FALSE(Asn{65536}.is_16bit());
}

TEST(Asn, HashesDistinctValues) {
  const std::hash<Asn> hash;
  EXPECT_NE(hash(Asn{1}), hash(Asn{2}));
}

// gtest names each case after the raw bytes of its parameter, tail padding
// included. The three bytes after `expected` are therefore spelled out rather
// than left as padding: indeterminate padding would give the cases names that
// change from build to build. `tag` fixes each case's name and nothing else.
struct CategoryCase {
  std::uint32_t value;
  AsnCategory expected;
  std::array<std::uint8_t, 3> tag{};
};
static_assert(sizeof(CategoryCase) == 8, "CategoryCase must have no padding");

class AsnCategoryTest : public ::testing::TestWithParam<CategoryCase> {};

TEST_P(AsnCategoryTest, Categorizes) {
  EXPECT_EQ(category(Asn{GetParam().value}), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    IanaRegistry, AsnCategoryTest,
    ::testing::Values(
        CategoryCase{0, AsnCategory::kZero, {0x5F, 0x67, 0x6F}},
        CategoryCase{1, AsnCategory::kPublic, {0x63, 0x70, 0x70}},
        CategoryCase{3356, AsnCategory::kPublic},
        CategoryCase{23455, AsnCategory::kPublic},
        CategoryCase{23456, AsnCategory::kAsTrans},
        CategoryCase{23457, AsnCategory::kPublic},
        CategoryCase{64495, AsnCategory::kPublic, {0x3B, 0x2C, 0x00}},
        CategoryCase{64496, AsnCategory::kDocumentation, {0x00, 0xC0, 0xEF}},
        CategoryCase{64511, AsnCategory::kDocumentation, {0x00, 0xD0, 0xEF}},
        CategoryCase{64512, AsnCategory::kPrivateUse, {0x00, 0xE0, 0xEF}},
        CategoryCase{65534, AsnCategory::kPrivateUse},
        CategoryCase{65535, AsnCategory::kLast16},
        CategoryCase{65536, AsnCategory::kDocumentation},
        CategoryCase{65551, AsnCategory::kDocumentation},
        CategoryCase{65552, AsnCategory::kIanaReserved, {0x1E, 0x09, 0x00}},
        CategoryCase{131071, AsnCategory::kIanaReserved, {0x00, 0xC0, 0xCA}},
        CategoryCase{131072, AsnCategory::kPublic, {0x00, 0xD0, 0xCA}},
        CategoryCase{4199999999u, AsnCategory::kPublic, {0x00, 0xC5, 0xCA}},
        CategoryCase{4200000000u, AsnCategory::kPrivateUse},
        CategoryCase{4294967294u, AsnCategory::kPrivateUse},
        CategoryCase{4294967295u, AsnCategory::kLast32}));

TEST(AsnReserved, AsTransIsReserved) {
  EXPECT_TRUE(is_reserved(kAsTrans));
  EXPECT_TRUE(is_as_trans(kAsTrans));
  EXPECT_FALSE(is_as_trans(Asn{23457}));
}

TEST(AsnReserved, PublicIsNotReserved) {
  EXPECT_FALSE(is_reserved(Asn{3356}));
  EXPECT_FALSE(is_reserved(Asn{196608}));
}

TEST(AsnReserved, PrivateAndDocumentationHelpers) {
  EXPECT_TRUE(is_private_use(Asn{64512}));
  EXPECT_TRUE(is_private_use(Asn{4200000000u}));
  EXPECT_FALSE(is_private_use(Asn{64496}));
  EXPECT_TRUE(is_documentation(Asn{64500}));
  EXPECT_TRUE(is_documentation(Asn{65540}));
}

TEST(AsnRange, ContainsAndSize) {
  constexpr AsnRange range{Asn{100}, Asn{199}};
  EXPECT_TRUE(range.contains(Asn{100}));
  EXPECT_TRUE(range.contains(Asn{150}));
  EXPECT_TRUE(range.contains(Asn{199}));
  EXPECT_FALSE(range.contains(Asn{99}));
  EXPECT_FALSE(range.contains(Asn{200}));
  EXPECT_EQ(range.size(), 100u);
}

TEST(AsnRange, SingleElementRange) {
  constexpr AsnRange range{Asn{5}, Asn{5}};
  EXPECT_TRUE(range.contains(Asn{5}));
  EXPECT_EQ(range.size(), 1u);
}

TEST(AsnFormat, ToStringPlain) {
  EXPECT_EQ(to_string(Asn{0}), "0");
  EXPECT_EQ(to_string(Asn{3356}), "3356");
  EXPECT_EQ(to_string(Asn{4294967295u}), "4294967295");
}

TEST(AsnFormat, ToAsdot) {
  EXPECT_EQ(to_asdot(Asn{3356}), "3356");       // 16-bit stays plain
  EXPECT_EQ(to_asdot(Asn{65536}), "1.0");
  EXPECT_EQ(to_asdot(Asn{65537}), "1.1");
  EXPECT_EQ(to_asdot(Asn{196608}), "3.0");
  EXPECT_EQ(to_asdot(Asn{4294967295u}), "65535.65535");
}

TEST(AsnParse, PlainDecimal) {
  EXPECT_EQ(parse_asn("3356"), Asn{3356});
  EXPECT_EQ(parse_asn("0"), Asn{0});
  EXPECT_EQ(parse_asn("4294967295"), Asn{4294967295u});
}

TEST(AsnParse, AsPrefixAnyCase) {
  EXPECT_EQ(parse_asn("AS3356"), Asn{3356});
  EXPECT_EQ(parse_asn("as3356"), Asn{3356});
  EXPECT_EQ(parse_asn("As3356"), Asn{3356});
  EXPECT_EQ(parse_asn("aS3356"), Asn{3356});
}

TEST(AsnParse, Asdot) {
  EXPECT_EQ(parse_asn("1.0"), Asn{65536});
  EXPECT_EQ(parse_asn("AS1.1"), Asn{65537});
  EXPECT_EQ(parse_asn("65535.65535"), Asn{4294967295u});
}

TEST(AsnParse, RejectsGarbage) {
  EXPECT_FALSE(parse_asn(""));
  EXPECT_FALSE(parse_asn("AS"));
  EXPECT_FALSE(parse_asn("abc"));
  EXPECT_FALSE(parse_asn("-1"));
  EXPECT_FALSE(parse_asn("4294967296"));   // overflow
  EXPECT_FALSE(parse_asn("1.65536"));      // asdot part overflow
  EXPECT_FALSE(parse_asn("65536.0"));
  EXPECT_FALSE(parse_asn("1.2.3"));
  EXPECT_FALSE(parse_asn("3356 "));
  EXPECT_FALSE(parse_asn("0x10"));
}

class AsnRoundTripTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AsnRoundTripTest, PlainRoundTrips) {
  const Asn asn{GetParam()};
  EXPECT_EQ(parse_asn(to_string(asn)), asn);
}

TEST_P(AsnRoundTripTest, AsdotRoundTrips) {
  const Asn asn{GetParam()};
  EXPECT_EQ(parse_asn(to_asdot(asn)), asn);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AsnRoundTripTest,
                         ::testing::Values(0u, 1u, 174u, 3356u, 23456u,
                                           65535u, 65536u, 131072u, 196613u,
                                           4200000000u, 4294967295u));

}  // namespace
}  // namespace asrel::asn
