// ProbLink (Jin et al., NSDI 2019) reimplementation.
//
// Structure follows the published system: start from an ASRank labeling,
// then iteratively re-classify every link with a naive-Bayes model over
// link features, re-deriving the feature values that depend on neighboring
// links' current labels each round until convergence.
//
// Feature families (per the paper): triplet context (what kind of link
// precedes this one in observed paths), distance to the clique, vantage-
// point visibility, transit-degree imbalance, and path-position. The
// conditional probabilities are estimated from the *validation data* — the
// original does exactly this, which is why the paper's §6 finds ProbLink
// degrading hardest on link classes the validation data under-covers: the
// classifier literally never saw them in training.
#pragma once

#include <span>
#include <unordered_map>

#include "infer/asrank.hpp"
#include "infer/inference.hpp"
#include "infer/observed.hpp"
#include "validation/cleaner.hpp"

namespace asrel::infer {

struct ProbLinkParams {
  int max_iterations = 6;
  double laplace = 1.0;  ///< additive smoothing for the conditionals
  /// Stop when fewer than this fraction of links change per iteration.
  double convergence_fraction = 0.001;
  /// Worker count for the path sweeps, the per-round scoring and the
  /// triplet refresh (0 = hardware concurrency, 1 = serial). The inference
  /// and the confidences are byte-identical for every setting.
  unsigned threads = 0;
};

struct ProbLinkResult {
  Inference inference;
  int iterations_used = 0;
  std::size_t training_links = 0;
  /// Posterior probability of the chosen class per link (final iteration) —
  /// the UNARI-style uncertainty signal the paper could not evaluate for
  /// lack of public artifacts (§1, footnote 1). Low-confidence links are
  /// exactly the "hard links" of §3.3.
  std::unordered_map<val::AsLink, double> confidence;
};

/// `training` is the cleaned validation data available to the researcher
/// (labels for a subset of links); links outside the observed data are
/// ignored.
[[nodiscard]] ProbLinkResult run_problink(
    const ObservedPaths& observed, const AsRankResult& initial,
    std::span<const val::CleanLabel> training,
    const ProbLinkParams& params = {});

}  // namespace asrel::infer
