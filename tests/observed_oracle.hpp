// Reference sanitizer for infer::ObservedPaths.
//
// This is the original hash-container build of the observed view, kept
// only as a test oracle: per-path hash sets for loop detection, sorted
// neighbor vectors for the degrees, an AsLink-keyed map for the link
// statistics and per-VP maps for the first hops. Every field is stored in
// ASN terms so a comparison never trusts the dense build's indices.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/propagation.hpp"
#include "infer/observed.hpp"

namespace asrel::test {

struct OracleLink {
  std::uint32_t link_id = 0;      ///< first-occurrence order
  std::uint32_t occurrences = 0;  ///< path positions where the link appears
  std::uint16_t vp_count = 0;     ///< distinct VPs that observed the link
};

struct ObservedOracle {
  infer::SanitizeStats stats;
  std::vector<std::vector<asn::Asn>> paths;
  std::vector<std::uint16_t> path_vp;
  std::vector<asn::Asn> ases;  ///< sorted
  std::vector<std::uint32_t> transit_degree;  ///< parallel to `ases`
  std::vector<std::uint32_t> node_degree;
  std::vector<asn::Asn> rank_order;
  std::unordered_map<val::AsLink, OracleLink> links;
  std::vector<val::AsLink> link_order;
  std::vector<asn::Asn> vp_asns;
  std::vector<std::unordered_map<asn::Asn, std::uint32_t>> first_hop;
  std::vector<std::uint32_t> origins_per_vp;

  [[nodiscard]] static ObservedOracle build(const bgp::PathTable& table);
};

/// Compares every accessor of `observed` with `oracle`; returns the first
/// mismatch, or nullopt when they agree.
[[nodiscard]] std::optional<std::string> diff_against_oracle(
    const infer::ObservedPaths& observed,
    const infer::SanitizeStats& observed_stats, const ObservedOracle& oracle);

/// Every accessor of `observed`, and `stats`, rendered in index terms:
/// two builds agree on every accessor iff their renderings are equal.
[[nodiscard]] std::string render_observed(const infer::ObservedPaths& observed,
                                          const infer::SanitizeStats& stats);

}  // namespace asrel::test
