// Wire-codec pinning: io/wire.hpp's little-endian primitives are the
// substrate of every binary format in the repo (the flat v3 snapshot and
// the stream checkpoints), so their layout is asserted here byte for
// byte — a width asymmetry (a u64 written where a u32 is read) or an
// endianness slip would silently corrupt every format at once. The suite
// also pins the flat v3 snapshot's invariants at the wire layer: an
// image re-encodes byte for byte from either open (structural or deep),
// and corruption is rejected at the right layer (structural vs deep
// verify). The checkpoint codec is canonical (accepted bytes re-encode
// identically). The field-by-field snapshot round trip lives with the
// other snapshot tests (Snapshot.RoundTripIsIdentity).
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/snapshot_builder.hpp"
#include "flat_inflate.hpp"
#include "io/flat_snapshot.hpp"
#include "io/wire.hpp"
#include "stream/checkpoint.hpp"
#include "test_support.hpp"

namespace asrel {
namespace {

const io::Snapshot& wire_snapshot() {
  static const io::Snapshot snapshot =
      core::build_snapshot(test::shared_scenario());
  return snapshot;
}

/// A decoder positioned at the start of `bytes` (which must outlive it).
io::wire::Cursor cursor_over(std::string_view bytes) {
  io::wire::Cursor cursor;
  cursor.data = bytes;
  return cursor;
}

// ------------------------------------------------------------- primitives

TEST(Wire, PrimitiveRoundTripsAreWidthSymmetric) {
  // Table-driven: each encoder against its decoder over boundary
  // patterns. The cursor position check is the width audit — an encoder
  // emitting more (or fewer) bytes than its decoder consumes fails here
  // even when the value happens to round-trip.
  for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{1},
                               std::uint8_t{0x7F}, std::uint8_t{0x80},
                               std::uint8_t{0xFF}}) {
    std::string out;
    io::wire::put_u8(out, v);
    ASSERT_EQ(out.size(), 1u);
    auto cursor = cursor_over(out);
    EXPECT_EQ(cursor.get_u8("u8"), v);
    EXPECT_FALSE(cursor.failed()) << cursor.error;
    EXPECT_EQ(cursor.remaining(), 0u);
  }

  for (const std::uint32_t v :
       {0u, 1u, 0xFFu, 0x100u, 0x12345678u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    std::string out;
    io::wire::put_u32(out, v);
    ASSERT_EQ(out.size(), 4u);
    auto cursor = cursor_over(out);
    EXPECT_EQ(cursor.get_u32("u32"), v);
    EXPECT_FALSE(cursor.failed()) << cursor.error;
    EXPECT_EQ(cursor.remaining(), 0u);
  }

  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xFFFFFFFFull},
        std::uint64_t{0x100000000ull}, std::uint64_t{0x0123456789ABCDEFull},
        ~std::uint64_t{0}}) {
    std::string out;
    io::wire::put_u64(out, v);
    ASSERT_EQ(out.size(), 8u);
    auto cursor = cursor_over(out);
    EXPECT_EQ(cursor.get_u64("u64"), v);
    EXPECT_FALSE(cursor.failed()) << cursor.error;
    EXPECT_EQ(cursor.remaining(), 0u);
  }

  for (const double v : {0.0, -0.0, 1.5, -2.25, 1e308, 5e-324,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::string out;
    io::wire::put_f64(out, v);
    ASSERT_EQ(out.size(), 8u);
    auto cursor = cursor_over(out);
    const double decoded = cursor.get_f64("f64");
    EXPECT_FALSE(cursor.failed()) << cursor.error;
    // Bit-pattern equality, so -0.0 round-trips as -0.0, not 0.0.
    EXPECT_EQ(std::memcmp(&decoded, &v, sizeof(v)), 0) << v;
  }
  {
    // NaN survives by bit pattern too (== comparison would always fail).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::string out;
    io::wire::put_f64(out, nan);
    auto cursor = cursor_over(out);
    const double decoded = cursor.get_f64("nan");
    EXPECT_TRUE(std::isnan(decoded));
    EXPECT_EQ(std::memcmp(&decoded, &nan, sizeof(nan)), 0);
  }

  for (const std::string& v :
       {std::string{}, std::string{"a"}, std::string(1, '\0'),
        std::string{"hello \"wire\" world"}, std::string(300, 'x')}) {
    std::string out;
    io::wire::put_string(out, v);
    ASSERT_EQ(out.size(), 4 + v.size());
    auto cursor = cursor_over(out);
    EXPECT_EQ(cursor.get_string("string"), v);
    EXPECT_FALSE(cursor.failed()) << cursor.error;
    EXPECT_EQ(cursor.remaining(), 0u);
  }

  // A mixed record decodes field-for-field in write order.
  std::string out;
  io::wire::put_u8(out, 0xAB);
  io::wire::put_u32(out, 0xDEADBEEFu);
  io::wire::put_u64(out, 0x1122334455667788ull);
  io::wire::put_f64(out, 3.25);
  io::wire::put_string(out, "tail");
  auto cursor = cursor_over(out);
  EXPECT_EQ(cursor.get_u8("a"), 0xAB);
  EXPECT_EQ(cursor.get_u32("b"), 0xDEADBEEFu);
  EXPECT_EQ(cursor.get_u64("c"), 0x1122334455667788ull);
  EXPECT_EQ(cursor.get_f64("d"), 3.25);
  EXPECT_EQ(cursor.get_string("e"), "tail");
  EXPECT_FALSE(cursor.failed()) << cursor.error;
  EXPECT_EQ(cursor.remaining(), 0u);
}

TEST(Wire, LittleEndianLayoutIsPinned) {
  // The on-disk byte order is part of the format contract (flat v3 reads
  // these bytes in place), so it is asserted literally.
  std::string out;
  io::wire::put_u32(out, 0x04030201u);
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04", 4));

  out.clear();
  io::wire::put_u64(out, 0x0807060504030201ull);
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8));

  out.clear();
  io::wire::put_string(out, "ab");
  EXPECT_EQ(out, std::string("\x02\x00\x00\x00"
                             "ab",
                             6));

  out.clear();
  io::wire::put_f64(out, 1.0);  // IEEE-754: 0x3FF0000000000000
  EXPECT_EQ(out, std::string("\x00\x00\x00\x00\x00\x00\xF0\x3F", 8));
}

TEST(Wire, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors; both file formats stamp this
  // checksum, so a drifted basis or prime breaks every saved artifact.
  EXPECT_EQ(io::wire::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(io::wire::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(io::wire::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Wire, CursorFailureIsStickyAndBoundsChecked) {
  std::string out;
  io::wire::put_u32(out, 7);
  auto cursor = cursor_over(out);
  (void)cursor.get_u64("wide field");  // only 4 bytes available
  EXPECT_TRUE(cursor.failed());
  EXPECT_NE(cursor.error.find("wide field"), std::string::npos)
      << cursor.error;

  // Sticky: later reads are no-ops and the first diagnosis survives.
  EXPECT_EQ(cursor.get_u32("later field"), 0u);
  EXPECT_EQ(cursor.get_string("later string"), "");
  EXPECT_NE(cursor.error.find("wide field"), std::string::npos)
      << cursor.error;

  // A length-prefixed string larger than the remaining payload fails.
  std::string lying;
  io::wire::put_u32(lying, 1000);
  lying += "short";
  auto lying_cursor = cursor_over(lying);
  EXPECT_EQ(lying_cursor.get_string("lying string"), "");
  EXPECT_TRUE(lying_cursor.failed());

  // get_count rejects element counts implausible for the bytes left, so
  // a corrupted count cannot drive a huge allocation.
  std::string counted;
  io::wire::put_u64(counted, std::uint64_t{1} << 20);
  auto counted_cursor = cursor_over(counted);
  EXPECT_EQ(counted_cursor.get_count("records", 16), 0u);
  EXPECT_TRUE(counted_cursor.failed());
  EXPECT_NE(counted_cursor.error.find("implausible"), std::string::npos)
      << counted_cursor.error;
}

// --------------------------------------------------------- flat snapshot

TEST(Wire, FlatV3InflatesBackToByteIdenticalV3) {
  // open -> inflate -> encode reproduces the image exactly, through the
  // structural-only open that hot reload uses as well as the deep one:
  // neither reader drops or reorders anything the encoder stored.
  const std::string v3 = io::to_snapshot_bytes(wire_snapshot());
  for (const bool deep_verify : {false, true}) {
    std::string error;
    const auto view =
        io::FlatView::from_bytes(std::string{v3}, &error, deep_verify);
    ASSERT_NE(view, nullptr) << "deep_verify=" << deep_verify << ": "
                             << error;
    EXPECT_EQ(view->size_bytes(), v3.size());
    EXPECT_EQ(io::to_snapshot_bytes(test::inflate(*view)), v3)
        << "deep_verify=" << deep_verify;
  }
}

TEST(Wire, FlatV3RejectsCorruptionAtTheRightLayer) {
  const std::string bytes = io::to_snapshot_bytes(wire_snapshot());
  std::string error;

  // Truncations fail the structural open (no deep verify needed).
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{8}, std::size_t{100},
        sizeof(io::flat::Header) - 1, bytes.size() / 2, bytes.size() - 1}) {
    error.clear();
    EXPECT_EQ(io::FlatView::from_bytes(bytes.substr(0, cut), &error,
                                       /*deep_verify=*/false),
              nullptr)
        << "prefix of " << cut << " bytes opened";
    EXPECT_FALSE(error.empty());
  }

  // Wrong magic and wrong version are structural failures.
  std::string bad = bytes;
  bad[0] = 'X';
  error.clear();
  EXPECT_EQ(io::FlatView::from_bytes(std::string{bad}, &error, false),
            nullptr);
  EXPECT_FALSE(error.empty());

  bad = bytes;
  bad[8] = static_cast<char>(bad[8] + 1);  // version u32 at offset 8
  error.clear();
  EXPECT_EQ(io::FlatView::from_bytes(std::string{bad}, &error, false),
            nullptr);
  EXPECT_FALSE(error.empty());

  // A payload bit-flip (here: inside the string pool, which the
  // structural pass only bounds-checks) passes the structural open but
  // must fail the deep checksum — exactly the split the hot-reload path
  // relies on: structural-only is safe because atomic rename guarantees
  // completeness, while untrusted bytes get the deep pass.
  const auto intact = io::FlatView::from_bytes(std::string{bytes}, &error);
  ASSERT_NE(intact, nullptr) << error;
  ASSERT_GT(intact->header().strings_bytes, 0u);
  bad = bytes;
  bad[intact->header().off_strings] =
      static_cast<char>(bad[intact->header().off_strings] ^ 0x40);
  error.clear();
  const auto structural =
      io::FlatView::from_bytes(std::string{bad}, &error, false);
  EXPECT_NE(structural, nullptr) << error;
  error.clear();
  EXPECT_EQ(io::FlatView::from_bytes(std::string{bad}, &error, true),
            nullptr);
  EXPECT_FALSE(error.empty());

  // Section offsets that wrap past 2^64 back inside the file. off_ases
  // sits in the header, outside the checksum, so only the structural
  // bounds check stands between it and a read before the buffer; an
  // algorithm's labels_off is checksummed, so the checksum is re-stamped
  // to leave the bounds check alone again.
  const std::uint64_t wrapped = ~std::uint64_t{7};  // 2^64 - 8
  const auto put_u64_at = [](std::string& image, std::size_t at,
                             std::uint64_t value) {
    std::memcpy(image.data() + at, &value, sizeof(value));
  };
  bad = bytes;
  put_u64_at(bad, offsetof(io::flat::Header, off_ases), wrapped);
  error.clear();
  EXPECT_EQ(io::FlatView::from_bytes(std::string{bad}, &error, true),
            nullptr)
      << "wrapped off_ases opened";
  EXPECT_FALSE(error.empty());

  ASSERT_GT(intact->header().n_algorithms, 0u);
  bad = bytes;
  put_u64_at(bad,
             intact->header().off_algorithms +
                 offsetof(io::flat::Algo, labels_off),
             wrapped);
  put_u64_at(bad, offsetof(io::flat::Header, checksum),
             io::wire::fnv1a64(
                 std::string_view{bad}.substr(sizeof(io::flat::Header))));
  error.clear();
  EXPECT_EQ(io::FlatView::from_bytes(std::string{bad}, &error, true),
            nullptr)
      << "wrapped Algo::labels_off opened";
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------ checkpoint codec

TEST(Wire, CheckpointCodecIsCanonicalAndRejectsCorruption) {
  stream::StreamCheckpoint checkpoint;
  checkpoint.fingerprint.as_count = 42;
  checkpoint.fingerprint.topo_seed = 7;
  checkpoint.fingerprint.scheme_seed = 9;
  checkpoint.fingerprint.vantage_seed = 11;
  checkpoint.fingerprint.vantage_targets = 3;
  // The decoder refuses a node count larger than the payload, so a
  // checkpoint without edges has an empty node universe.
  checkpoint.fingerprint.node_count = 0;
  checkpoint.fingerprint.node_hash = io::wire::fnv1a64("");
  checkpoint.epoch = 12;
  checkpoint.built_unix_ms = 1234567;
  checkpoint.feed_position = 99;
  checkpoint.transit_asns = {asn::Asn{10}, asn::Asn{20},
                             asn::Asn{4200000000}};

  const std::string bytes = stream::to_checkpoint_bytes(checkpoint);
  EXPECT_EQ(std::string_view{bytes}.substr(0, 8), stream::kCheckpointMagic);

  std::string error;
  const auto parsed = stream::parse_checkpoint_bytes(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->fingerprint, checkpoint.fingerprint);
  EXPECT_EQ(parsed->epoch, 12u);
  EXPECT_EQ(parsed->built_unix_ms, 1234567u);
  EXPECT_EQ(parsed->feed_position, 99u);
  EXPECT_EQ(parsed->transit_asns, checkpoint.transit_asns);

  // Canonical: accepted bytes re-encode byte-identically.
  EXPECT_EQ(stream::to_checkpoint_bytes(*parsed), bytes);

  // Truncation, wrong magic, and a payload bit-flip are all rejected.
  EXPECT_FALSE(
      stream::parse_checkpoint_bytes(bytes.substr(0, bytes.size() - 1)));
  std::string bad = bytes;
  bad[0] = 'X';
  error.clear();
  EXPECT_FALSE(stream::parse_checkpoint_bytes(bad, &error));
  EXPECT_FALSE(error.empty());
  bad = bytes;
  bad.back() = static_cast<char>(bad.back() ^ 0x01);
  error.clear();
  EXPECT_FALSE(stream::parse_checkpoint_bytes(bad, &error));
  EXPECT_FALSE(error.empty());

  // A file of the previous version is refused at the header, by name.
  const std::uint32_t previous = stream::kCheckpointVersion - 1;
  bad = bytes;
  std::memcpy(bad.data() + stream::kCheckpointMagic.size(), &previous,
              sizeof(previous));
  error.clear();
  EXPECT_FALSE(stream::parse_checkpoint_bytes(bad, &error));
  EXPECT_NE(error.find("version " + std::to_string(previous)),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace asrel
