// Regression tests for the flat (v3) snapshot reader's hardening: every
// class of structurally invalid image that fuzzing can produce must be
// rejected with a diagnostic before any section is trusted. The images
// start from a real encoding and are patched in place (header fields at
// their struct offsets), so each test controls the exact bytes.
//
// The FuzzProperty tests at the bottom run the same oracles the fuzz/
// binaries use, inside the unit suite, over seeded random mutations — with
// shrinking, so a failure prints a minimal counterexample.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "io/flat_snapshot.hpp"
#include "io/wire.hpp"
#include "serve/http_parser.hpp"
#include "testing/flat_oracle.hpp"
#include "testing/mutate.hpp"
#include "testing/property.hpp"

namespace asrel::io {
namespace {

std::string tiny_bytes() {
  return to_snapshot_bytes(asrel::testing::tiny_snapshot());
}

/// Overwrites the header field at `offset` (offsetof(flat::Header, ...)).
template <typename T>
void patch(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/// Re-stamps the header checksum, so only the structural checks can
/// reject the image.
void restamp(std::string& bytes) {
  patch(bytes, offsetof(flat::Header, checksum),
        wire::fnv1a64(std::string_view{bytes}.substr(sizeof(flat::Header))));
}

TEST(SnapshotHardening, TrailingBytesRejected) {
  std::string error;
  const std::string bytes = tiny_bytes();
  EXPECT_EQ(FlatView::from_bytes(bytes + "x", &error, false), nullptr);
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  // With the header's file size patched to cover them, the checksum
  // still does.
  std::string padded = bytes + std::string(8, '\0');
  patch(padded, offsetof(flat::Header, file_size),
        std::uint64_t{padded.size()});
  error.clear();
  EXPECT_EQ(FlatView::from_bytes(padded, &error, true), nullptr);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(SnapshotHardening, ChecksumAndTruncationRejected) {
  const std::string bytes = tiny_bytes();
  std::string flipped = bytes;
  flipped[sizeof(flat::Header)] =
      static_cast<char>(flipped[sizeof(flat::Header)] ^ 0x01);
  std::string error;
  EXPECT_EQ(FlatView::from_bytes(flipped, &error, true), nullptr);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  error.clear();
  EXPECT_EQ(FlatView::from_bytes(bytes.substr(0, bytes.size() - 3), &error,
                                 false),
            nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(FlatView::from_bytes("", &error, false), nullptr);
  EXPECT_EQ(FlatView::from_bytes(std::string{kFlatSnapshotMagic}, &error,
                                 false),
            nullptr);
}

TEST(SnapshotHardening, ImplausibleElementCountRejected) {
  // A count claiming more records than the file has bytes for fails the
  // structural open, even with a matching checksum, before any record is
  // read.
  for (const std::size_t field :
       {offsetof(flat::Header, n_ases), offsetof(flat::Header, n_edges),
        offsetof(flat::Header, n_validation),
        offsetof(flat::Header, n_links)}) {
    std::string bytes = tiny_bytes();
    patch(bytes, field, std::uint32_t{0xFFFFFFFFu});
    restamp(bytes);
    std::string error;
    EXPECT_EQ(FlatView::from_bytes(bytes, &error, true), nullptr)
        << "header field at offset " << field;
    EXPECT_NE(error.find("out of bounds"), std::string::npos) << error;
  }
}

TEST(SnapshotHardening, LoadSnapshotFileDiagnosesMissingAndGarbage) {
  std::string error;
  EXPECT_EQ(FlatView::open_file("/nonexistent/asrel.snap", &error), nullptr);
  EXPECT_FALSE(error.empty());

  // Long enough to clear the header-size check so the magic check fires.
  const std::string path = ::testing::TempDir() + "asrel_garbage.snap";
  {
    std::ofstream out{path, std::ios::binary};
    for (int i = 0; i < 8; ++i) {
      out << "this is not a snapshot, padded well past the header size";
    }
  }
  error.clear();
  EXPECT_EQ(FlatView::open_file(path, &error), nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

// ---- in-suite mini-fuzz: same oracles as fuzz/, with shrinking ----

TEST(FuzzProperty, FlatSnapshotReaderIsTotal) {
  const std::string base = tiny_bytes();
  asrel::testing::PropertyConfig config;
  config.cases = 400;
  const auto result = asrel::testing::check_property<std::string>(
      config,
      [&](asrel::testing::Rng& rng) {
        return asrel::testing::mutate_bytes(base, rng);
      },
      [](const std::string& bytes) {
        return asrel::testing::check_flat_reader(bytes);
      },
      [](const std::string& bytes) {
        return asrel::testing::shrink_bytes(bytes);
      });
  EXPECT_TRUE(result.ok) << result.message << " (case " << result.failing_case
                         << ", seed " << result.failing_seed << ", "
                         << (result.counterexample
                                 ? result.counterexample->size()
                                 : 0)
                         << " bytes after " << result.shrink_steps
                         << " shrink steps)";
}

TEST(FuzzProperty, HttpParserIsTotal) {
  const std::string base =
      "GET /links?algo=asrank&class=T1-TR HTTP/1.1\r\n"
      "Host: localhost\r\nContent-Length: 0\r\nConnection: keep-alive"
      "\r\n\r\n";
  asrel::testing::PropertyConfig config;
  config.cases = 600;
  const auto result = asrel::testing::check_property<std::string>(
      config,
      [&](asrel::testing::Rng& rng) {
        return asrel::testing::mutate_bytes(base, rng);
      },
      [](const std::string& bytes) -> std::optional<std::string> {
        std::size_t header_len = 0;
        const std::size_t body_start =
            serve::find_header_end(bytes, &header_len);
        if (body_start == std::string::npos) return std::nullopt;
        if (body_start > bytes.size() || header_len >= body_start) {
          return "header end out of bounds";
        }
        serve::HttpRequest request;
        const serve::HttpParse parsed = serve::parse_http_request(
            std::string_view{bytes}.substr(0, header_len), &request);
        if (!parsed) {
          if (parsed.error.empty()) return "rejection without a diagnostic";
          return std::nullopt;
        }
        if (request.method.empty() || request.target.empty()) {
          return "accepted request with an empty method or target";
        }
        return std::nullopt;
      },
      [](const std::string& bytes) {
        return asrel::testing::shrink_bytes(bytes);
      });
  EXPECT_TRUE(result.ok) << result.message << " (case " << result.failing_case
                         << ", seed " << result.failing_seed << ")";
}

}  // namespace
}  // namespace asrel::io
