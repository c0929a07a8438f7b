#include "infer/problink.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>
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

  // Distance to clique and position statistics, one path sweep.
  std::vector<int> clique_distance(link_count, 3);  // 3 == "3+/none"
  std::vector<std::uint32_t> end_occurrences(link_count, 0);
  std::vector<std::uint32_t> total_occurrences(link_count, 0);

  // Triplet-context adjacency: for every (predecessor link, this link,
  // orientation) pair, how often it occurs. Orientation 0 = traversed a->b.
  struct AdjKey {
    std::uint32_t prev;
    std::uint32_t cur;
    std::uint8_t prev_forward;  // predecessor traversed in canonical order?
    std::uint8_t cur_forward;
    bool operator==(const AdjKey&) const = default;
  };
  struct AdjKeyHash {
    std::size_t operator()(const AdjKey& k) const {
      std::uint64_t x = (std::uint64_t{k.prev} << 32) | k.cur;
      x ^= (std::uint64_t{k.prev_forward} << 1 | k.cur_forward) << 62;
      x *= 0x9E3779B97F4A7C15ull;
      return static_cast<std::size_t>(x ^ (x >> 32));
    }
  };
  std::unordered_map<AdjKey, std::uint32_t, AdjKeyHash> adjacency;

  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    int last_clique = -1;
    std::uint32_t prev_id = ~std::uint32_t{0};
    std::uint8_t prev_forward = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (in_clique[path[i]] != 0) last_clique = static_cast<int>(i);
      const LinkId id = observed.link_id(path[i], path[i + 1]);
      // Index order is ASN order: ascending hops run link.a -> link.b.
      const std::uint8_t forward = path[i] < path[i + 1] ? 1 : 0;

      ++total_occurrences[id];
      if (i + 2 == path.size()) ++end_occurrences[id];
      const int distance =
          last_clique < 0 ? 3
                          : std::min(3, static_cast<int>(i) - last_clique);
      clique_distance[id] = std::min(clique_distance[id], distance);

      if (prev_id != ~std::uint32_t{0}) {
        ++adjacency[AdjKey{prev_id, id, prev_forward, forward}];
      }
      prev_id = id;
      prev_forward = forward;
    }
  }

  // Flattened adjacency for the per-round refresh: contiguous slices chunk
  // across workers, and because the per-(link, orientation) tallies are
  // plain integer sums, no chunking choice can change the totals.
  const std::vector<std::pair<AdjKey, std::uint32_t>> adjacency_flat(
      adjacency.begin(), adjacency.end());

  // Assemble static feature parts.
  std::vector<LinkFeatures> features(link_count);
  for (LinkId i = 0; i < link_count; ++i) {
    features[i].value[1] = clique_distance[i];
    features[i].value[2] = bucket_visibility(observed.link_vp_count(i));
    const auto [ia, ib] = observed.link_ends(i);
    features[i].value[3] = bucket_ratio(observed.transit_degree(ia),
                                        observed.transit_degree(ib));
    const double end_share =
        total_occurrences[i] == 0
            ? 0.0
            : static_cast<double>(end_occurrences[i]) / total_occurrences[i];
    features[i].value[4] = end_share > 0.8 ? 0 : end_share > 0.2 ? 1 : 2;
  }

  // Dynamic feature 0 (triplet context) from the current labeling.
  using TripletCounts =
      std::vector<std::array<std::array<std::uint32_t, 4>, 2>>;
  const auto refresh_triplet_feature = [&] {
    // Per (link, orientation): counts of predecessor categories, summed
    // over adjacency chunks (one per worker; integer sums are merge-order
    // independent, so the result matches the serial accumulation exactly).
    const std::size_t chunks = std::max<std::size_t>(
        1, std::min<std::size_t>(threads, adjacency_flat.size()));
    const TripletCounts counts = core::parallel_reduce_ordered(
        pool, chunks, threads,
        TripletCounts(link_count, {{{0, 0, 0, 0}, {0, 0, 0, 0}}}),
        [&](std::size_t chunk) {
          obs::TraceSpan span{"infer.problink.triplet_chunk"};
          TripletCounts local(link_count, {{{0, 0, 0, 0}, {0, 0, 0, 0}}});
          const std::size_t begin = chunk * adjacency_flat.size() / chunks;
          const std::size_t end =
              (chunk + 1) * adjacency_flat.size() / chunks;
          for (std::size_t k = begin; k < end; ++k) {
            const auto& [key, count] = adjacency_flat[k];
            const auto& prev_link = links[key.prev];
            const auto& prev_rel = current[key.prev];
            // Direction of travel across the predecessor: from x to y where
            // the pair (x, y) is (a, b) if prev_forward, else (b, a).
            const Asn from = key.prev_forward ? prev_link.a : prev_link.b;
            Pred category = kPredPeer;
            if (prev_rel.rel == topo::RelType::kP2C) {
              category = prev_rel.provider == from ? kPredDown : kPredUp;
            }
            local[key.cur][key.cur_forward][static_cast<int>(category)] +=
                count;
          }
          return local;
        },
        [&](TripletCounts& acc, TripletCounts&& partial) {
          for (std::size_t i = 0; i < link_count; ++i) {
            for (int orient = 0; orient < 2; ++orient) {
              for (int c = 0; c < 4; ++c) {
                acc[i][orient][c] += partial[i][orient][c];
              }
            }
          }
        });
    pool.run_indexed(link_count, threads, [&](std::size_t i) {
      std::array<int, 2> dominant{kPredNone, kPredNone};
      for (int orient = 0; orient < 2; ++orient) {
        std::uint32_t best = 0;
        for (int c = 1; c < 4; ++c) {
          if (counts[i][orient][c] > best) {
            best = counts[i][orient][c];
            dominant[orient] = c;
          }
        }
      }
      features[i].value[0] = dominant[0] * 4 + dominant[1];
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
    struct Verdict {
      LinkClass best;
      double confidence;
    };
    const auto verdicts = core::parallel_map_ordered<Verdict>(
        pool, link_count, threads, [&](std::size_t i) {
          std::array<double, kLinkClassCount> score = log_prior;
          for (std::size_t f = 0; f < kFeatures.size(); ++f) {
            for (int c = 0; c < kLinkClassCount; ++c) {
              score[c] += log_cond[f][features[i].value[f]][c];
            }
          }
          const auto best = static_cast<LinkClass>(
              std::max_element(score.begin(), score.end()) - score.begin());
          // Normalized posterior of the winning class (softmax over the
          // three log scores, stabilized by the max).
          const double peak = score[best];
          double exp_total = 0;
          for (int c = 0; c < kLinkClassCount; ++c) {
            exp_total += std::exp(score[c] - peak);
          }
          return Verdict{best, 1.0 / exp_total};
        });

    std::size_t changed = 0;
    for (std::size_t i = 0; i < link_count; ++i) {
      result.confidence[links[i]] = verdicts[i].confidence;
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

  for (std::size_t i = 0; i < link_count; ++i) {
    result.inference.set(links[i], current[i]);
  }
  return result;
}

}  // namespace asrel::infer
