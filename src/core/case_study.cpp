#include "core/case_study.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

namespace asrel::core {

CaseStudyReport run_case_study(const Scenario& scenario,
                               const BiasAudit& audit,
                               const infer::Inference& inference) {
  CaseStudyReport report;
  const auto& world = scenario.world();

  // ---- 1. Target links: validated P2C, inferred P2P, class T1-TR ---------
  const auto pairs =
      eval::make_eval_pairs(scenario.validation(), inference);
  std::map<asn::Asn, std::vector<val::AsLink>> by_tier1;
  for (const auto& pair : pairs) {
    if (audit.topological_class_of(pair.link) != "T1-TR") continue;
    if (pair.validated != topo::RelType::kP2C) continue;
    if (pair.inferred != topo::RelType::kP2P) continue;
    ++report.wrong_p2p_t1_tr;
    const auto t1 =
        audit.topo_classifier().category_of(pair.link.a) ==
                eval::TopoCategory::kTier1
            ? pair.link.a
            : pair.link.b;
    by_tier1[t1].push_back(pair.link);
  }
  for (const auto& [t1, links] : by_tier1) {
    if (links.size() > report.dominant_count) {
      report.dominant_count = links.size();
      report.dominant_tier1 = t1;
    }
  }
  if (report.dominant_count == 0) return report;

  // ---- 2. Triplet search: any C|T1|X with C another clique member? -------
  const auto& observed = scenario.observed();
  std::vector<std::uint8_t> in_clique(observed.as_count(), 0);
  for (const asn::Asn member : world.clique) {
    if (const auto index = observed.index_of(member)) in_clique[*index] = 1;
  }
  // Per LinkId: 1 = a target link, 2 = a target seen after C|T1.
  std::vector<std::uint8_t> target_state(observed.link_count(), 0);
  for (const auto& link : by_tier1[report.dominant_tier1]) {
    const infer::LinkId id = observed.find_link(link);
    if (id != infer::kNoLink) target_state[id] = 1;
  }
  if (const auto tier1 = observed.index_of(report.dominant_tier1)) {
    for (std::size_t p = 0; p < observed.path_count(); ++p) {
      const auto path = observed.path(p);
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        if (path[i + 1] != *tier1 || in_clique[path[i]] == 0) continue;
        const infer::LinkId id = observed.path_slots(p)[i + 1] / 2;
        if (target_state[id] != 0) target_state[id] = 2;
      }
    }
  }
  const auto with_triplet = [&](const val::AsLink& link) {
    const infer::LinkId id = observed.find_link(link);
    return id != infer::kNoLink && target_state[id] == 2;
  };

  // ---- 3. Looking-glass investigation of each target ---------------------
  const LookingGlass glass{world, scenario.schemes(),
                           scenario.params().propagation};
  const auto expected_tag =
      val::no_export_to_peers_community(report.dominant_tier1);

  for (const auto& link : by_tier1[report.dominant_tier1]) {
    TargetLink target;
    target.tier1 = report.dominant_tier1;
    target.other = link.a == report.dominant_tier1 ? link.b : link.a;
    target.clique_triplet_found = with_triplet(link);

    const auto route = glass.query(target.tier1, target.other);
    target.action_community_seen =
        route.reachable &&
        std::find(route.communities.begin(), route.communities.end(),
                  expected_tag) != route.communities.end();

    if (const auto edge_id = world.graph.find_edge(link.a, link.b)) {
      const auto& edge = world.graph.edge(*edge_id);
      target.silent_partial_transit =
          edge.rel == topo::RelType::kP2C &&
          edge.scope != topo::ExportScope::kFull && !edge.scope_via_community;
      target.validation_was_wrong = edge.rel == topo::RelType::kP2P;
    }

    report.with_clique_triplet += target.clique_triplet_found ? 1 : 0;
    report.with_action_community += target.action_community_seen ? 1 : 0;
    report.with_silent_partial_transit +=
        target.silent_partial_transit ? 1 : 0;
    report.with_wrong_validation += target.validation_was_wrong ? 1 : 0;
    report.targets.push_back(target);
  }
  std::sort(report.targets.begin(), report.targets.end(),
            [](const TargetLink& a, const TargetLink& b) {
              return a.other < b.other;
            });
  return report;
}

std::string render(const CaseStudyReport& report) {
  std::string out;
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "Wrongly inferred P2P among validated T1-TR links: %zu\n",
                report.wrong_p2p_t1_tr);
  out += buffer;
  if (report.dominant_count == 0) return out;
  std::snprintf(
      buffer, sizeof buffer,
      "Dominant Tier-1: AS%u, involved in %zu of %zu target links (%.0f%%)\n",
      report.dominant_tier1.value(), report.dominant_count,
      report.wrong_p2p_t1_tr,
      100.0 * static_cast<double>(report.dominant_count) /
          static_cast<double>(report.wrong_p2p_t1_tr));
  out += buffer;
  std::snprintf(buffer, sizeof buffer,
                "Targets with a C|T1|X clique triplet in the paths: %zu\n",
                report.with_clique_triplet);
  out += buffer;
  std::snprintf(
      buffer, sizeof buffer,
      "Looking glass: %zu targets tag the no-export-to-peers community "
      "(AS%u:990 analogue)\n",
      report.with_action_community, report.dominant_tier1.value());
  out += buffer;
  std::snprintf(buffer, sizeof buffer,
                "Silent (contract-level) partial transit: %zu\n",
                report.with_silent_partial_transit);
  out += buffer;
  std::snprintf(buffer, sizeof buffer,
                "Inaccurate validation data (link is really P2P): %zu\n",
                report.with_wrong_validation);
  out += buffer;
  return out;
}

}  // namespace asrel::core
