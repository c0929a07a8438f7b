// Shared little-endian wire codec for the repo's binary file formats.
//
// The stream checkpoint (src/stream/checkpoint) serializes with these
// primitives: fixed-width little-endian integers, IEEE-754 doubles by bit
// pattern, length-prefixed strings, and an FNV-1a checksum over the
// payload; the flat snapshot (io/flat_snapshot) stamps the same
// checksum. Decoding goes through Cursor, a bounds-checked reader whose
// getters all become no-ops after the first failure — callers check once
// per section instead of once per field — and whose get_count guards
// element counts against the bytes actually remaining, so a corrupted
// count fails cleanly instead of driving a multi-gigabyte allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace asrel::io::wire {

// ---- encoding ----

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

inline void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ---- decoding ----

/// Bounds-checked little-endian reader over a payload. All getters return
/// zero values once `fail` is set; callers check once per section.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }
  [[nodiscard]] std::size_t remaining() const { return data.size() - pos; }

  void fail(const std::string& message) {
    if (error.empty()) error = message;
  }

  [[nodiscard]] bool need(std::size_t bytes, const char* what) {
    if (failed()) return false;
    if (remaining() < bytes) {
      fail(std::string{"truncated payload while reading "} + what);
      return false;
    }
    return true;
  }

  std::uint8_t get_u8(const char* what) {
    if (!need(1, what)) return 0;
    return static_cast<std::uint8_t>(data[pos++]);
  }

  std::uint32_t get_u32(const char* what) {
    if (!need(4, what)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t{static_cast<std::uint8_t>(data[pos + i])} << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t get_u64(const char* what) {
    if (!need(8, what)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(data[pos + i])} << (8 * i);
    }
    pos += 8;
    return v;
  }

  double get_f64(const char* what) {
    const std::uint64_t bits = get_u64(what);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string get_string(const char* what) {
    const std::uint32_t size = get_u32(what);
    if (!need(size, what)) return {};
    std::string s{data.substr(pos, size)};
    pos += size;
    return s;
  }

  /// Reads an element count and sanity-checks it against the bytes left
  /// (each element occupies at least `min_element_bytes`), so a corrupted
  /// count cannot drive a multi-gigabyte allocation.
  std::uint64_t get_count(const char* what, std::size_t min_element_bytes) {
    const std::uint64_t count = get_u64(what);
    if (failed()) return 0;
    if (min_element_bytes > 0 && count > remaining() / min_element_bytes) {
      fail(std::string{"implausible element count for "} + what);
      return 0;
    }
    return count;
  }
};

}  // namespace asrel::io::wire
