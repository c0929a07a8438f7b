#include "stream/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "io/atomic_file.hpp"
#include "io/wire.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/fault_inject.hpp"

namespace asrel::stream {

namespace {

using io::wire::Cursor;
using io::wire::fnv1a64;
using io::wire::put_u32;
using io::wire::put_u64;
using io::wire::put_u8;

constexpr std::uint8_t kEdgeViaCommunity = 1u << 0;
constexpr std::uint8_t kEdgeMisdocumented = 1u << 1;
constexpr std::uint8_t kEdgeHybrid = 1u << 2;
constexpr std::uint8_t kEdgeRemoved = 1u << 3;
constexpr std::uint8_t kEdgeFlagMask =
    kEdgeViaCommunity | kEdgeMisdocumented | kEdgeHybrid | kEdgeRemoved;

[[nodiscard]] bool valid_rel(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(topo::RelType::kS2S);
}

[[nodiscard]] bool valid_scope(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(topo::ExportScope::kCustomersOnly);
}

[[nodiscard]] std::uint32_t prefix_mask(unsigned length) {
  return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
}

void put_payload(std::string& out, const StreamCheckpoint& checkpoint) {
  const auto& fp = checkpoint.fingerprint;
  put_u64(out, static_cast<std::uint64_t>(fp.as_count));
  put_u64(out, fp.topo_seed);
  put_u64(out, fp.scheme_seed);
  put_u64(out, fp.vantage_seed);
  put_u32(out, fp.vantage_targets);
  put_u64(out, fp.node_count);
  put_u64(out, fp.node_hash);

  put_u64(out, checkpoint.epoch);
  put_u64(out, checkpoint.built_unix_ms);
  put_u64(out, checkpoint.feed_position);

  put_u64(out, checkpoint.edges.size());
  for (const auto& edge : checkpoint.edges) {
    put_u32(out, edge.u);
    put_u32(out, edge.v);
    put_u8(out, static_cast<std::uint8_t>(edge.rel));
    put_u8(out, static_cast<std::uint8_t>(edge.scope));
    put_u8(out, static_cast<std::uint8_t>(
                    (edge.scope_via_community ? kEdgeViaCommunity : 0) |
                    (edge.misdocumented ? kEdgeMisdocumented : 0) |
                    (edge.hybrid_rel ? kEdgeHybrid : 0) |
                    (edge.removed ? kEdgeRemoved : 0)));
    put_u8(out, edge.hybrid_rel
                    ? static_cast<std::uint8_t>(*edge.hybrid_rel)
                    : 0);
  }

  put_u64(out, checkpoint.prefixes.size());
  for (const auto& [asn, list] : checkpoint.prefixes) {
    put_u32(out, asn.value());
    put_u64(out, list.size());
    for (const auto& prefix : list) {
      put_u32(out, prefix.network().bits());
      put_u8(out, static_cast<std::uint8_t>(prefix.length()));
    }
  }

  put_u64(out, checkpoint.transit_asns.size());
  for (const auto asn : checkpoint.transit_asns) {
    put_u32(out, asn.value());
  }
}

void get_edges(Cursor& in, StreamCheckpoint& checkpoint) {
  const std::uint64_t count = in.get_count("edge table", 12);
  checkpoint.edges.reserve(count);
  std::unordered_set<std::uint64_t> live_pairs;
  for (std::uint64_t i = 0; i < count && !in.failed(); ++i) {
    topo::Edge edge;
    edge.u = in.get_u32("edge endpoint");
    edge.v = in.get_u32("edge endpoint");
    const std::uint8_t rel = in.get_u8("edge rel");
    const std::uint8_t scope = in.get_u8("edge scope");
    const std::uint8_t flags = in.get_u8("edge flags");
    const std::uint8_t hybrid = in.get_u8("edge hybrid rel");
    if (in.failed()) return;
    if (edge.u >= checkpoint.fingerprint.node_count ||
        edge.v >= checkpoint.fingerprint.node_count || edge.u == edge.v) {
      in.fail("edge endpoints out of range");
      return;
    }
    if (!valid_rel(rel) || !valid_scope(scope) ||
        (flags & ~kEdgeFlagMask) != 0) {
      in.fail("invalid edge encoding");
      return;
    }
    edge.rel = static_cast<topo::RelType>(rel);
    edge.scope = static_cast<topo::ExportScope>(scope);
    edge.scope_via_community = (flags & kEdgeViaCommunity) != 0;
    edge.misdocumented = (flags & kEdgeMisdocumented) != 0;
    edge.removed = (flags & kEdgeRemoved) != 0;
    if ((flags & kEdgeHybrid) != 0) {
      if (!valid_rel(hybrid)) {
        in.fail("invalid hybrid relationship");
        return;
      }
      edge.hybrid_rel = static_cast<topo::RelType>(hybrid);
    } else if (hybrid != 0) {
      in.fail("nonzero hybrid byte on a non-hybrid edge");
      return;
    }
    if (!edge.removed) {
      const auto lo = std::min(edge.u, edge.v);
      const auto hi = std::max(edge.u, edge.v);
      if (!live_pairs.insert((std::uint64_t{lo} << 32) | hi).second) {
        in.fail("duplicate live edge between one AS pair");
        return;
      }
    }
    checkpoint.edges.push_back(edge);
  }
}

void get_prefixes(Cursor& in, StreamCheckpoint& checkpoint) {
  // 17 = owner u32 + list count u64 + at least one 5-byte prefix.
  const std::uint64_t count = in.get_count("prefix table", 17);
  checkpoint.prefixes.reserve(count);
  std::uint64_t previous = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < count && !in.failed(); ++i) {
    const std::uint32_t asn = in.get_u32("prefix owner");
    const std::uint64_t list_count = in.get_count("prefix list", 5);
    if (in.failed()) return;
    if (!first && asn <= previous) {
      in.fail("prefix owners not strictly ascending");
      return;
    }
    if (list_count == 0) {
      in.fail("empty prefix list (must be omitted)");
      return;
    }
    first = false;
    previous = asn;
    std::vector<net::Prefix4> list;
    list.reserve(list_count);
    for (std::uint64_t j = 0; j < list_count && !in.failed(); ++j) {
      const std::uint32_t bits = in.get_u32("prefix network");
      const std::uint8_t length = in.get_u8("prefix length");
      if (in.failed()) return;
      if (length > 32 || (bits & ~prefix_mask(length)) != 0) {
        in.fail("non-canonical prefix");
        return;
      }
      list.emplace_back(net::Ipv4Addr{bits}, length);
    }
    checkpoint.prefixes.emplace_back(asn::Asn{asn}, std::move(list));
  }
}

void get_transit(Cursor& in, StreamCheckpoint& checkpoint) {
  const std::uint64_t count = in.get_count("transit bits", 4);
  checkpoint.transit_asns.reserve(count);
  std::uint64_t previous = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < count && !in.failed(); ++i) {
    const std::uint32_t asn = in.get_u32("transit ASN");
    if (in.failed()) return;
    if (!first && asn <= previous) {
      in.fail("transit ASNs not strictly ascending");
      return;
    }
    first = false;
    previous = asn;
    checkpoint.transit_asns.push_back(asn::Asn{asn});
  }
}

struct CheckpointMetrics {
  obs::Counter& writes_ok;
  obs::Counter& writes_failed;
  obs::Counter& loads_ok;
  obs::Counter& loads_rejected;

  static CheckpointMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static CheckpointMetrics metrics{
        reg.counter("asrel_checkpoint_writes_total{result=\"ok\"}",
                    "Stream checkpoint file writes by outcome"),
        reg.counter("asrel_checkpoint_writes_total{result=\"error\"}"),
        reg.counter("asrel_checkpoint_loads_total{result=\"ok\"}",
                    "Stream checkpoint file loads by outcome"),
        reg.counter("asrel_checkpoint_loads_total{result=\"rejected\"}"),
    };
    return metrics;
  }
};

}  // namespace

std::string to_checkpoint_bytes(const StreamCheckpoint& checkpoint) {
  std::string payload;
  put_payload(payload, checkpoint);

  std::string out;
  out.reserve(payload.size() + 28);
  out.append(kCheckpointMagic);
  put_u32(out, kCheckpointVersion);
  put_u64(out, payload.size());
  put_u64(out, fnv1a64(payload));
  out.append(payload);
  return out;
}

std::optional<StreamCheckpoint> parse_checkpoint_bytes(std::string_view bytes,
                                                       std::string* error) {
  const auto fail = [&](const std::string& message)
      -> std::optional<StreamCheckpoint> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  const std::size_t header = kCheckpointMagic.size() + 4 + 8 + 8;
  if (bytes.size() < header) return fail("truncated checkpoint header");
  if (bytes.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
    return fail("bad checkpoint magic");
  }
  Cursor head;
  head.data = bytes.substr(kCheckpointMagic.size());
  const std::uint32_t version = head.get_u32("version");
  const std::uint64_t payload_size = head.get_u64("payload size");
  const std::uint64_t checksum = head.get_u64("checksum");
  if (version != kCheckpointVersion) {
    return fail("unsupported checkpoint version " + std::to_string(version));
  }
  const std::string_view payload = bytes.substr(header);
  if (payload.size() != payload_size) {
    return fail("checkpoint payload size mismatch (torn file?)");
  }
  if (fnv1a64(payload) != checksum) {
    return fail("checkpoint checksum mismatch");
  }

  Cursor in;
  in.data = payload;
  StreamCheckpoint checkpoint;
  auto& fp = checkpoint.fingerprint;
  fp.as_count = static_cast<std::int64_t>(in.get_u64("as_count"));
  fp.topo_seed = in.get_u64("topology seed");
  fp.scheme_seed = in.get_u64("scheme seed");
  fp.vantage_seed = in.get_u64("vantage seed");
  fp.vantage_targets = in.get_u32("vantage target count");
  fp.node_count = in.get_u64("node count");
  fp.node_hash = in.get_u64("node hash");

  checkpoint.epoch = in.get_u64("epoch");
  checkpoint.built_unix_ms = in.get_u64("built timestamp");
  checkpoint.feed_position = in.get_u64("feed position");
  if (!in.failed() && fp.node_count > in.remaining()) {
    in.fail("implausible node count");
  }

  if (!in.failed()) get_edges(in, checkpoint);
  if (!in.failed()) get_prefixes(in, checkpoint);
  if (!in.failed()) get_transit(in, checkpoint);
  if (!in.failed() && in.remaining() != 0) {
    in.fail("trailing bytes after the last section");
  }
  if (in.failed()) return fail(in.error);
  return checkpoint;
}

bool save_checkpoint_file(const StreamCheckpoint& checkpoint,
                          const std::string& path, std::string* error) {
  const std::size_t cap =
      serve::fault::FaultInjector::instance().checkpoint_write_cap();
  const bool ok =
      io::write_file_atomic(to_checkpoint_bytes(checkpoint), path, error, cap);
  auto& metrics = CheckpointMetrics::get();
  (ok ? metrics.writes_ok : metrics.writes_failed).inc();
  // Save failures are capped: a full disk fails every periodic save, and
  // one event per second tells the story without flooding the ring.
  static obs::LogSite save_ok_site{"stream.checkpoint", "save_ok", 4};
  static obs::LogSite save_failed_site{"stream.checkpoint", "save_failed", 2};
  if (ok) {
    obs::log_event(save_ok_site, obs::LogLevel::kInfo, 0,
                   {{"epoch", checkpoint.epoch}, {"path", path}});
  } else {
    obs::log_event(save_failed_site, obs::LogLevel::kError, 0,
                   {{"epoch", checkpoint.epoch},
                    {"path", path},
                    {"error", error != nullptr ? std::string_view{*error}
                                               : std::string_view{}}});
  }
  return ok;
}

std::optional<StreamCheckpoint> load_checkpoint_file(const std::string& path,
                                                     std::string* error) {
  const std::size_t cap =
      serve::fault::FaultInjector::instance().checkpoint_read_cap();
  auto& metrics = CheckpointMetrics::get();
  const auto bytes = io::read_file_capped(path, error, cap);
  if (!bytes) {
    metrics.loads_rejected.inc();
    return std::nullopt;
  }
  auto checkpoint = parse_checkpoint_bytes(*bytes, error);
  (checkpoint ? metrics.loads_ok : metrics.loads_rejected).inc();
  return checkpoint;
}

CheckpointDir::CheckpointDir(std::string dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(std::max<std::size_t>(1, keep)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; save reports
}

std::string CheckpointDir::path_for_epoch(std::uint64_t epoch) const {
  std::string digits = std::to_string(epoch);
  digits.insert(0, digits.size() < 20 ? 20 - digits.size() : 0, '0');
  return dir_ + "/checkpoint-" + digits + ".ckpt";
}

std::vector<std::string> CheckpointDir::candidates() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator{dir_, ec}) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("checkpoint-") && name.ends_with(".ckpt")) {
      names.push_back(name);
    }
  }
  // Zero-padded epochs: lexical descending == numeric descending.
  std::sort(names.begin(), names.end(), std::greater<>{});
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& name : names) paths.push_back(dir_ + "/" + name);
  return paths;
}

bool CheckpointDir::save(const StreamCheckpoint& checkpoint,
                         std::string* error) {
  if (!save_checkpoint_file(checkpoint, path_for_epoch(checkpoint.epoch),
                            error)) {
    return false;
  }
  const auto existing = candidates();
  for (std::size_t i = keep_; i < existing.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(existing[i], ec);
  }
  return true;
}

}  // namespace asrel::stream
