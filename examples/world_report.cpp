// World report: prints the ground-truth composition of a generated world
// and how much of it the collectors see — useful for understanding how the
// synthetic Internet is put together before auditing bias on it.
//
//   ./examples/world_report [as_count] [seed]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/bias_audit.hpp"
#include "core/scenario.hpp"
#include "infer/asrank.hpp"

int main(int argc, char** argv) {
  using namespace asrel;

  core::ScenarioParams params;
  params.topology.as_count = argc > 1 ? std::atoi(argv[1]) : 4000;
  params.topology.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  const auto scenario = core::Scenario::build(params);
  const auto& world = scenario->world();

  // ---- tier composition ----
  std::map<std::string, int> tier_counts;
  for (const auto asn : world.graph.nodes()) {
    const auto& attrs = world.attrs.at(asn);
    tier_counts[std::string{topo::to_string(attrs.tier)}]++;
    if (attrs.hypergiant) tier_counts["hypergiant"]++;
  }
  std::printf("=== Tier composition ===\n");
  for (const auto& [tier, count] : tier_counts) {
    std::printf("  %-14s %6d\n", tier.c_str(), count);
  }

  // ---- ground-truth link types ----
  std::map<std::string, int> rel_counts;
  for (const auto& edge : world.graph.edges()) {
    rel_counts[std::string{topo::to_string(edge.rel)}]++;
    if (edge.scope != topo::ExportScope::kFull) rel_counts["partial-transit"]++;
    if (edge.hybrid_rel) rel_counts["hybrid"]++;
  }
  std::printf("\n=== Ground-truth links ===\n");
  for (const auto& [rel, count] : rel_counts) {
    std::printf("  %-14s %6d\n", rel.c_str(), count);
  }

  // ---- visibility ----
  const auto& observed = scenario->observed();
  std::printf("\n=== Visibility ===\n");
  std::printf("  vantage points: %zu\n", scenario->vantage_points().size());
  std::printf("  sanitized paths: %zu\n", observed.path_count());
  std::printf("  visible links: %zu of %zu ground-truth links (%.0f%%)\n",
              observed.link_count(), world.graph.edge_count(),
              100.0 * static_cast<double>(observed.link_count()) /
                  static_cast<double>(world.graph.edge_count()));

  // ---- transit-degree ranking vs true tiers ----
  std::printf("\n=== Top 25 by observed transit degree ===\n");
  const auto rank = observed.rank_order();
  for (std::size_t i = 0; i < std::min<std::size_t>(25, rank.size()); ++i) {
    const auto asn = observed.asn_at(rank[i]);
    const auto& attrs = world.attrs.at(asn);
    std::printf("  #%2zu AS%-8u td=%5u deg=%5u tier=%s%s\n", i + 1,
                asn.value(), observed.transit_degree(rank[i]),
                observed.node_degree(rank[i]),
                std::string{topo::to_string(attrs.tier)}.c_str(),
                attrs.hypergiant ? " (hypergiant)" : "");
  }

  // ---- inferred clique vs ground truth ----
  const auto& asrank = scenario->asrank();
  std::printf("\n=== Clique: inferred %zu, ground truth %zu ===\n",
              asrank.clique.size(), world.clique.size());
  int correct = 0;
  for (const auto asn : asrank.clique) {
    const bool is_true_t1 = world.attrs.at(asn).tier == topo::Tier::kClique;
    if (is_true_t1) ++correct;
    std::printf("  AS%-8u %s\n", asn.value(),
                is_true_t1 ? "true Tier-1" : "NOT a Tier-1");
  }
  std::printf("  precision: %d/%zu\n", correct, asrank.clique.size());

  // ---- validation source composition ----
  std::printf("\n=== Validation ===\n");
  std::printf("  raw entries: %zu, cleaned: %zu\n",
              scenario->raw_validation().size(),
              scenario->validation().size());
  const auto& cs = scenario->cleaning_stats();
  std::printf(
      "  cleaning: %zu AS_TRANS, %zu reserved, %zu multi-label (%zu ASes), "
      "%zu siblings removed\n",
      cs.as_trans_removed, cs.reserved_removed, cs.multi_label_entries,
      cs.multi_label_ases, cs.sibling_removed);
  return 0;
}
