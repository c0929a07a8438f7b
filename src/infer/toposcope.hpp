// TopoScope (Jin et al., IMC 2020) reimplementation.
//
// Structure follows the published system: vantage points are split into
// groups to fight observation bias; a base inference runs per group; an
// ensemble classifier reconciles the per-group verdicts with global link
// features. The original's final stage, predicting *hidden* links that no
// collector saw, is a separate on-demand call (predict_hidden_links): no
// published classification reads it.
//
// Documented simplification: the original's gradient-boosted trees are
// replaced by a calibrated categorical naive-Bayes over the same feature
// families (group-vote distribution, global base verdict, visibility,
// clique distance). Like the original, the ensemble is trained on the
// available validation data — inheriting its bias, which is the paper's §6
// point.
#pragma once

#include <span>
#include <vector>

#include "infer/asrank.hpp"
#include "infer/inference.hpp"
#include "infer/observed.hpp"
#include "validation/cleaner.hpp"

namespace asrel::infer {

struct TopoScopeParams {
  int vp_groups = 8;
  AsRankParams base;
  double laplace = 1.0;
  /// Worker count for the per-group ensemble members and per-link feature /
  /// scoring passes (0 = hardware concurrency, 1 = serial). The inference is
  /// byte-identical for every setting.
  unsigned threads = 0;
};

struct HiddenLink {
  val::AsLink link;
  double confidence = 0.0;  ///< Jaccard similarity of neighbor sets
};

struct TopoScopeResult {
  Inference inference;
  std::vector<asn::Asn> clique;
  int groups_used = 0;
  std::size_t training_links = 0;
};

[[nodiscard]] TopoScopeResult run_toposcope(
    const ObservedPaths& observed, const AsRankResult& global,
    std::span<const val::CleanLabel> training,
    const TopoScopeParams& params = {});

/// Hidden-link prediction: two collector peers sharing at least
/// `min_common_neighbors` observed neighbors, but no observed link, are
/// predicted to interconnect. Sorted by confidence descending, then link.
[[nodiscard]] std::vector<HiddenLink> predict_hidden_links(
    const ObservedPaths& observed, std::uint32_t min_common_neighbors = 8);

}  // namespace asrel::infer
