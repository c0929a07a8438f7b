#include "infer/problink.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "core/parallel.hpp"
#include "infer/link_class.hpp"
#include "obs/trace.hpp"

namespace asrel::infer {

namespace {

using asn::Asn;

/// Feature value counts per feature family (categorical naive Bayes).
struct FeatureSpec {
  int cardinality;
};
constexpr std::array<FeatureSpec, 5> kFeatures{{
    {16},  // 0: triplet context (4 predecessor categories x 2 orientations)
    {4},   // 1: distance to clique {adjacent,1,2,3+/none}
    {5},   // 2: VP visibility bucket
    {9},   // 3: signed transit-degree log-ratio bucket
    {3},   // 4: path position {origin-side, mixed, middle}
}};

struct LinkFeatures {
  std::array<int, kFeatures.size()> value{};
};

/// Predecessor category for the triplet feature.
enum Pred : int { kPredNone = 0, kPredDown = 1, kPredUp = 2, kPredPeer = 3 };

int bucket_visibility(std::uint32_t vp_count) {
  if (vp_count <= 1) return 0;
  if (vp_count <= 3) return 1;
  if (vp_count <= 7) return 2;
  if (vp_count <= 15) return 3;
  return 4;
}

int bucket_ratio(std::uint32_t td_a, std::uint32_t td_b) {
  const double r = std::log2(static_cast<double>(td_a + 1) /
                             static_cast<double>(td_b + 1));
  const int clamped = static_cast<int>(std::clamp(std::round(r), -4.0, 4.0));
  return clamped + 4;
}

}  // namespace

ProbLinkResult run_problink(const ObservedPaths& observed,
                            const AsRankResult& initial,
                            std::span<const val::CleanLabel> training,
                            const ProbLinkParams& params) {
  obs::StageScope stage{"infer.problink"};
  ProbLinkResult result;
  const auto& links = observed.link_order();
  const std::size_t link_count = links.size();
  core::ThreadPool& pool = core::ThreadPool::shared();
  const unsigned threads = core::ThreadPool::effective_threads(params.threads);

  // Current labels, indexed like link_order.
  std::vector<InferredRel> current(link_count);
  for (std::size_t i = 0; i < link_count; ++i) {
    const auto* rel = initial.inference.find(links[i]);
    current[i] = rel != nullptr ? *rel : InferredRel{};
  }

  // ---- Static features -----------------------------------------------------
  std::vector<std::uint8_t> in_clique(observed.as_count(), 0);
  for (const Asn member : initial.clique) {
    if (const auto index = observed.index_of(member)) in_clique[*index] = 1;
  }

  // Path sweeps run over contiguous ranges of paths, one per worker. Every
  // tally is an integer sum or minimum over hops, and partials merge in
  // range order, so the result is the same at any thread count.
  const std::size_t path_count = observed.path_count();

  // Distance to clique and origin-side occurrences, one path sweep.
  struct PathStats {
    std::vector<std::uint8_t> clique_distance;  // 3 == "3+/none"
    std::vector<std::uint32_t> end_occurrences;
  };
  const auto fresh_stats = [&] {
    return PathStats{std::vector<std::uint8_t>(link_count, 3),
                     std::vector<std::uint32_t>(link_count, 0)};
  };
  const PathStats stats = core::parallel_reduce_ranges(
      pool, path_count, threads, fresh_stats(),
      [&](std::size_t begin, std::size_t end) {
        PathStats local = fresh_stats();
        for (std::size_t p = begin; p < end; ++p) {
          const auto path = observed.path(p);
          const auto slots = observed.path_slots(p);
          int last_clique = -1;
          for (std::size_t i = 0; i < slots.size(); ++i) {
            if (in_clique[path[i]] != 0) last_clique = static_cast<int>(i);
            const LinkId id = slots[i] / 2;
            if (i + 1 == slots.size()) ++local.end_occurrences[id];
            const int distance =
                last_clique < 0
                    ? 3
                    : std::min(3, static_cast<int>(i) - last_clique);
            local.clique_distance[id] = static_cast<std::uint8_t>(
                std::min<int>(local.clique_distance[id], distance));
          }
        }
        return local;
      },
      [&](PathStats& acc, PathStats&& partial) {
        for (LinkId i = 0; i < link_count; ++i) {
          acc.clique_distance[i] =
              std::min(acc.clique_distance[i], partial.clique_distance[i]);
          acc.end_occurrences[i] += partial.end_occurrences[i];
        }
      });

  // Assemble static feature parts.
  std::vector<LinkFeatures> features(link_count);
  for (LinkId i = 0; i < link_count; ++i) {
    features[i].value[1] = stats.clique_distance[i];
    features[i].value[2] = bucket_visibility(observed.link_vp_count(i));
    const auto [ia, ib] = observed.link_ends(i);
    features[i].value[3] = bucket_ratio(observed.transit_degree(ia),
                                        observed.transit_degree(ib));
    // Every link occurs at least once.
    const double end_share = static_cast<double>(stats.end_occurrences[i]) /
                             observed.link_occurrences(i);
    features[i].value[4] = end_share > 0.8 ? 0 : end_share > 0.2 ? 1 : 2;
  }

  // Dynamic feature 0 (triplet context) from the current labeling. Per
  // directed slot (see ObservedPaths::path_slots), how often a hop is
  // preceded by a predecessor of each category.
  std::vector<std::uint8_t> category(2 * link_count);
  using TripletCounts = std::vector<std::array<std::uint32_t, 4>>;
  const auto refresh_triplet_feature = [&] {
    // Category of a predecessor hop by its slot: traversed from link.a
    // (even slot) or from link.b (odd slot).
    for (LinkId i = 0; i < link_count; ++i) {
      const auto category_from = [&](Asn from) {
        if (current[i].rel != topo::RelType::kP2C) return kPredPeer;
        return current[i].provider == from ? kPredDown : kPredUp;
      };
      category[2 * i] = static_cast<std::uint8_t>(category_from(links[i].a));
      category[2 * i + 1] =
          static_cast<std::uint8_t>(category_from(links[i].b));
    }
    const TripletCounts counts = core::parallel_reduce_ranges(
        pool, path_count, threads, TripletCounts(2 * link_count),
        [&](std::size_t begin, std::size_t end) {
          obs::TraceSpan span{"infer.problink.triplet_chunk"};
          TripletCounts local(2 * link_count);
          for (std::size_t p = begin; p < end; ++p) {
            const auto slots = observed.path_slots(p);
            for (std::size_t i = 1; i < slots.size(); ++i) {
              ++local[slots[i]][category[slots[i - 1]]];
            }
          }
          return local;
        },
        [&](TripletCounts& acc, TripletCounts&& partial) {
          for (std::size_t slot = 0; slot < acc.size(); ++slot) {
            for (int c = 0; c < 4; ++c) acc[slot][c] += partial[slot][c];
          }
        });
    const auto dominant = [](const std::array<std::uint32_t, 4>& count) {
      int best_category = kPredNone;
      std::uint32_t best = 0;
      for (int c = 1; c < 4; ++c) {
        if (count[c] > best) {
          best = count[c];
          best_category = c;
        }
      }
      return best_category;
    };
    // Orientation 0 is a hop against link order (odd slot), 1 along it.
    core::parallel_for_ranges(
        pool, link_count, threads, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            features[i].value[0] =
                dominant(counts[2 * i + 1]) * 4 + dominant(counts[2 * i]);
          }
        });
  };

  // ---- Training labels ------------------------------------------------------
  std::vector<std::pair<std::uint32_t, LinkClass>> train;
  for (const auto& label : training) {
    const LinkId id = observed.find_link(label.link);
    if (id == kNoLink) continue;
    InferredRel rel;
    rel.rel = label.rel;
    rel.provider = label.provider;
    train.emplace_back(id, link_class_of(label.link, rel));
  }
  result.training_links = train.size();

  // ---- Iterative classification ---------------------------------------------
  struct Verdict {
    LinkClass best;
    double confidence;
  };
  std::vector<Verdict> verdicts;
  int iteration = 0;
  for (; iteration < params.max_iterations; ++iteration) {
    refresh_triplet_feature();

    // Estimate priors and conditionals from the training set under the
    // *current* dynamic features.
    std::array<double, kLinkClassCount> prior{};
    std::array<std::vector<std::array<double, kLinkClassCount>>,
               kFeatures.size()>
        conditional;
    for (std::size_t f = 0; f < kFeatures.size(); ++f) {
      conditional[f].assign(kFeatures[f].cardinality, {});
    }
    for (const auto& [index, cls] : train) {
      prior[cls] += 1.0;
      for (std::size_t f = 0; f < kFeatures.size(); ++f) {
        conditional[f][features[index].value[f]][cls] += 1.0;
      }
    }
    std::array<double, kLinkClassCount> log_prior{};
    const double total = prior[0] + prior[1] + prior[2];
    for (int c = 0; c < kLinkClassCount; ++c) {
      log_prior[c] = std::log((prior[c] + params.laplace) /
                              (total + kLinkClassCount * params.laplace));
    }
    std::array<std::vector<std::array<double, kLinkClassCount>>,
               kFeatures.size()>
        log_cond;
    for (std::size_t f = 0; f < kFeatures.size(); ++f) {
      log_cond[f].assign(kFeatures[f].cardinality, {});
      for (int v = 0; v < kFeatures[f].cardinality; ++v) {
        for (int c = 0; c < kLinkClassCount; ++c) {
          log_cond[f][v][c] =
              std::log((conditional[f][v][c] + params.laplace) /
                       (prior[c] + kFeatures[f].cardinality * params.laplace));
        }
      }
    }

    // Re-classify every link. Each link's verdict reads only the frozen
    // model and its own features, so the scores parallelize; the verdicts
    // are applied on the caller thread in link order below.
    verdicts.resize(link_count);
    core::parallel_for_ranges(
        pool, link_count, threads, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            std::array<double, kLinkClassCount> score = log_prior;
            for (std::size_t f = 0; f < kFeatures.size(); ++f) {
              for (int c = 0; c < kLinkClassCount; ++c) {
                score[c] += log_cond[f][features[i].value[f]][c];
              }
            }
            const auto best = static_cast<LinkClass>(
                std::max_element(score.begin(), score.end()) -
                score.begin());
            // Normalized posterior of the winning class (softmax over the
            // three log scores, stabilized by the max).
            const double peak = score[best];
            double exp_total = 0;
            for (int c = 0; c < kLinkClassCount; ++c) {
              exp_total += std::exp(score[c] - peak);
            }
            verdicts[i] = Verdict{best, 1.0 / exp_total};
          }
        });

    std::size_t changed = 0;
    for (std::size_t i = 0; i < link_count; ++i) {
      const InferredRel updated = rel_of_link_class(links[i], verdicts[i].best);
      const bool same = updated.rel == current[i].rel &&
                        (updated.rel != topo::RelType::kP2C ||
                         updated.provider == current[i].provider);
      if (!same) {
        current[i] = updated;
        ++changed;
      }
    }
    if (static_cast<double>(changed) <
        params.convergence_fraction * static_cast<double>(link_count)) {
      ++iteration;
      break;
    }
  }
  result.iterations_used = iteration;

  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    result.confidence[links[i]] = verdicts[i].confidence;
  }
  for (std::size_t i = 0; i < link_count; ++i) {
    result.inference.set(links[i], current[i]);
  }
  return result;
}

}  // namespace asrel::infer
