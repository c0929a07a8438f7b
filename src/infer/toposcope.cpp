#include "infer/toposcope.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/parallel.hpp"
#include "infer/link_class.hpp"
#include "obs/trace.hpp"

namespace asrel::infer {

namespace {

using val::AsLink;

int bucket_votes(int votes) { return std::min(votes, 4); }

int bucket_visibility(std::uint32_t vp_count) {
  if (vp_count <= 1) return 0;
  if (vp_count <= 3) return 1;
  if (vp_count <= 7) return 2;
  if (vp_count <= 15) return 3;
  return 4;
}

}  // namespace

TopoScopeResult run_toposcope(const ObservedPaths& observed,
                              const AsRankResult& global,
                              std::span<const val::CleanLabel> training,
                              const TopoScopeParams& params) {
  obs::StageScope stage{"infer.toposcope"};
  TopoScopeResult result;
  result.clique = global.clique;
  core::ThreadPool& pool = core::ThreadPool::shared();
  const unsigned threads = core::ThreadPool::effective_threads(params.threads);

  // ---- Vantage-point grouping ----------------------------------------------
  // Sort VPs by feed size, deal them round-robin so groups get comparable
  // coverage (the original groups by view similarity; round-robin over the
  // size ranking is the deterministic equivalent for our purposes).
  const int group_count =
      std::max(1, std::min<int>(params.vp_groups,
                                static_cast<int>(observed.vp_count())));
  result.groups_used = group_count;

  std::vector<std::uint16_t> vp_order(observed.vp_count());
  for (std::size_t i = 0; i < vp_order.size(); ++i) {
    vp_order[i] = static_cast<std::uint16_t>(i);
  }
  std::sort(vp_order.begin(), vp_order.end(),
            [&](std::uint16_t a, std::uint16_t b) {
              if (observed.origin_count(a) != observed.origin_count(b)) {
                return observed.origin_count(a) > observed.origin_count(b);
              }
              return observed.vp_asns()[a] < observed.vp_asns()[b];
            });
  std::vector<int> group_of_vp(observed.vp_count(), 0);
  for (std::size_t i = 0; i < vp_order.size(); ++i) {
    group_of_vp[vp_order[i]] = static_cast<int>(i % group_count);
  }

  std::vector<std::vector<std::uint32_t>> group_paths(group_count);
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    group_paths[group_of_vp[observed.vp_of_path(p)]].push_back(
        static_cast<std::uint32_t>(p));
  }

  // ---- Per-group base inference ---------------------------------------------
  // The ensemble members see disjoint path subsets and share only read-only
  // inputs, so they run concurrently; collecting them in group-index order
  // keeps the result invariant under scheduling.
  const std::vector<Inference> group_inference =
      core::parallel_map_ordered<Inference>(
          pool, static_cast<std::size_t>(group_count), threads,
          [&](std::size_t g) {
            obs::TraceSpan span{"infer.toposcope.group"};
            return run_asrank_subset(observed, params.base, group_paths[g],
                                     global.clique)
                .inference;
          });

  // ---- Feature assembly -------------------------------------------------------
  const auto& links = observed.link_order();
  struct Features {
    int votes_ab, votes_ba, votes_p2p;  // bucketed group votes
    int global_class;
    int visibility;
  };
  std::vector<Features> features(links.size());
  core::parallel_for_ranges(
      pool, links.size(), threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          int ab = 0;
          int ba = 0;
          int pp = 0;
          for (const auto& inference : group_inference) {
            const auto* rel = inference.find(links[i]);
            if (rel == nullptr) continue;
            switch (link_class_of(links[i], *rel)) {
              case kLinkP2cAB:
                ++ab;
                break;
              case kLinkP2cBA:
                ++ba;
                break;
              default:
                ++pp;
            }
          }
          const auto* global_rel = global.inference.find(links[i]);
          features[i] = {bucket_votes(ab), bucket_votes(ba), bucket_votes(pp),
                         global_rel ? link_class_of(links[i], *global_rel)
                                    : kLinkP2P,
                         bucket_visibility(observed.link_vp_count(
                             static_cast<LinkId>(i)))};
        }
      });

  // ---- Ensemble: naive Bayes trained on the validation data -----------------
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

  constexpr std::array<int, 5> kCardinality{5, 5, 5, 3, 5};
  const auto value_of = [&](const Features& f, int feature) {
    switch (feature) {
      case 0:
        return f.votes_ab;
      case 1:
        return f.votes_ba;
      case 2:
        return f.votes_p2p;
      case 3:
        return f.global_class;
      default:
        return f.visibility;
    }
  };

  std::array<double, kLinkClassCount> prior{};
  std::array<std::vector<std::array<double, kLinkClassCount>>, 5> conditional;
  for (int f = 0; f < 5; ++f) conditional[f].assign(kCardinality[f], {});
  for (const auto& [index, cls] : train) {
    prior[cls] += 1.0;
    for (int f = 0; f < 5; ++f) {
      conditional[f][value_of(features[index], f)][cls] += 1.0;
    }
  }
  const double total = prior[0] + prior[1] + prior[2];
  std::array<double, kLinkClassCount> log_prior{};
  for (int c = 0; c < kLinkClassCount; ++c) {
    log_prior[c] = std::log((prior[c] + params.laplace) /
                            (total + kLinkClassCount * params.laplace));
  }
  std::array<std::vector<std::array<double, kLinkClassCount>>, 5> log_cond;
  for (int f = 0; f < 5; ++f) {
    log_cond[f].assign(kCardinality[f], {});
    for (int v = 0; v < kCardinality[f]; ++v) {
      for (int c = 0; c < kLinkClassCount; ++c) {
        log_cond[f][v][c] =
            std::log((conditional[f][v][c] + params.laplace) /
                     (prior[c] + kCardinality[f] * params.laplace));
      }
    }
  }

  // Score links concurrently; apply in index order so Inference's internal
  // bookkeeping (insertion order) matches the serial run exactly.
  std::vector<LinkClass> verdicts(links.size());
  core::parallel_for_ranges(
      pool, links.size(), threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          std::array<double, kLinkClassCount> score = log_prior;
          for (int f = 0; f < 5; ++f) {
            for (int c = 0; c < kLinkClassCount; ++c) {
              score[c] += log_cond[f][value_of(features[i], f)][c];
            }
          }
          verdicts[i] = static_cast<LinkClass>(
              std::max_element(score.begin(), score.end()) - score.begin());
        }
      });
  for (std::size_t i = 0; i < links.size(); ++i) {
    result.inference.set(links[i], rel_of_link_class(links[i], verdicts[i]));
  }

  return result;
}

std::vector<HiddenLink> predict_hidden_links(
    const ObservedPaths& observed, std::uint32_t min_common_neighbors) {
  // Collector peers have (near) complete neighbor sets; two of them sharing
  // many neighbors without an observed link between them very likely
  // interconnect privately or via an IXP the collectors miss.
  const auto vp_asns = observed.vp_asns();
  std::vector<AsIndex> vp_index(vp_asns.size(), kNoAs);
  for (std::size_t i = 0; i < vp_asns.size(); ++i) {
    vp_index[i] = observed.index_of(vp_asns[i]).value_or(kNoAs);
  }
  std::vector<HiddenLink> hidden;
  for (std::size_t i = 0; i < vp_asns.size(); ++i) {
    if (vp_index[i] == kNoAs) continue;
    const auto na = observed.neighbors(vp_index[i]);
    for (std::size_t j = i + 1; j < vp_asns.size(); ++j) {
      if (vp_index[j] == kNoAs || vp_asns[i] == vp_asns[j] ||
          observed.link_id(vp_index[i], vp_index[j]) != kNoLink) {
        continue;
      }
      // Both lists are sorted by neighbor index: count the intersection.
      const auto nb = observed.neighbors(vp_index[j]);
      std::size_t common = 0;
      for (std::size_t x = 0, y = 0; x < na.size() && y < nb.size();) {
        if (na[x].neighbor < nb[y].neighbor) {
          ++x;
        } else if (nb[y].neighbor < na[x].neighbor) {
          ++y;
        } else {
          ++common;
          ++x;
          ++y;
        }
      }
      if (common < min_common_neighbors) continue;
      const double unions = static_cast<double>(na.size() + nb.size() - common);
      hidden.push_back({AsLink{vp_asns[i], vp_asns[j]},
                        static_cast<double>(common) / unions});
    }
  }
  std::sort(hidden.begin(), hidden.end(),
            [](const HiddenLink& a, const HiddenLink& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.link < b.link;
            });
  return hidden;
}

}  // namespace asrel::infer
