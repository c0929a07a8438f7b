// Metamorphic correctness suite (the tentpole of the testing subsystem).
//
// Each test states a relation between two runs of the pipeline rather than
// a single expected value:
//  * relabeling every ASN leaves the Fig. 1/2 and Table 1-3 reports
//    byte-identical (the analysis must depend on structure, not on ASN
//    arithmetic);
//  * adding a vantage point never shrinks the observed link universe;
//  * adversarially down-sampling the validation data moves precision in a
//    provably monotone direction;
//  * the Appendix A sampling experiment is deterministic and emits sane
//    quartiles.
// Random inputs come from the src/testing property framework, so every
// failure prints a reproducible case seed and a shrunk counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/bias_audit.hpp"
#include "core/snapshot_builder.hpp"
#include "eval/report.hpp"
#include "eval/sampling.hpp"
#include "infer/observed.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "validation/extract.hpp"
#include "io/snapshot.hpp"
#include "observed_oracle.hpp"
#include "serve/query_engine.hpp"
#include "test_support.hpp"
#include "testing/canonical.hpp"
#include "testing/property.hpp"

namespace asrel {
namespace {

using testing::PropertyConfig;
using testing::Rng;

const std::vector<std::string>& report_keys() {
  static const std::vector<std::string> keys = {
      "regional", "topological", "table:asrank", "table:problink",
      "table:toposcope"};
  return keys;
}

const io::Snapshot& shared_snapshot() {
  static const io::Snapshot snapshot =
      core::build_snapshot(test::shared_scenario());
  return snapshot;
}

/// Applies a seeded ASN permutation to every ASN-valued field of the
/// snapshot, keeping all structure (order of edges, labels, tags) intact
/// except that the AS table is re-sorted to preserve its documented
/// sorted-by-ASN invariant.
io::Snapshot permute_snapshot(const io::Snapshot& base, std::uint64_t seed) {
  io::Snapshot snap = base;

  std::vector<asn::Asn> originals;
  originals.reserve(snap.ases.size());
  for (const auto& as : snap.ases) originals.push_back(as.asn);
  std::vector<asn::Asn> shuffled = originals;
  Rng rng{seed};
  rng.shuffle(shuffled);

  std::unordered_map<std::uint32_t, std::uint32_t> mapping;
  mapping.reserve(originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    mapping.emplace(originals[i].value(), shuffled[i].value());
  }
  const auto remap = [&](asn::Asn asn) {
    const auto it = mapping.find(asn.value());
    return it == mapping.end() ? asn : asn::Asn{it->second};
  };

  for (auto& as : snap.ases) as.asn = remap(as.asn);
  std::sort(snap.ases.begin(), snap.ases.end(),
            [](const auto& a, const auto& b) { return a.asn < b.asn; });
  for (auto& edge : snap.edges) {
    edge.a = remap(edge.a);
    edge.b = remap(edge.b);
  }
  for (auto& asn : snap.clique) asn = remap(asn);
  std::sort(snap.clique.begin(), snap.clique.end());
  for (auto& asn : snap.hypergiants) asn = remap(asn);
  std::sort(snap.hypergiants.begin(), snap.hypergiants.end());
  const auto remap_label = [&](val::CleanLabel& label) {
    label.link = val::AsLink{remap(label.link.a), remap(label.link.b)};
    label.provider = remap(label.provider);
  };
  for (auto& label : snap.validation) remap_label(label);
  for (auto& algorithm : snap.algorithms) {
    for (auto& label : algorithm.labels) remap_label(label);
  }
  for (auto& tag : snap.links) {
    tag.link = val::AsLink{remap(tag.link.a), remap(tag.link.b)};
  }
  return snap;
}

TEST(Metamorphic, AsnRelabelingLeavesReportsInvariant) {
  const io::Snapshot& base = shared_snapshot();
  const serve::QueryEngine baseline{base};
  std::vector<std::string> expected;
  for (const auto& key : report_keys()) {
    const auto report = baseline.report_json(key);
    ASSERT_NE(report, nullptr) << key;
    ASSERT_FALSE(report->empty()) << key;
    expected.push_back(*report);
  }

  PropertyConfig config;
  config.cases = 3;  // each case builds a full QueryEngine
  const auto result = testing::check_property<std::uint64_t>(
      config, [](Rng& rng) { return rng.next(); },
      [&](const std::uint64_t& seed) -> std::optional<std::string> {
        const serve::QueryEngine permuted{permute_snapshot(base, seed)};
        for (std::size_t i = 0; i < report_keys().size(); ++i) {
          const auto report = permuted.report_json(report_keys()[i]);
          if (report == nullptr) {
            return "report vanished under relabeling: " + report_keys()[i];
          }
          if (*report != expected[i]) {
            return "report changed under ASN relabeling: " + report_keys()[i];
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << result.message << " (case " << result.failing_case
                         << ", seed " << result.failing_seed << ")";
}

TEST(Metamorphic, AddingVantagePointNeverShrinksLinkCoverage) {
  topo::TopologyParams topo_params;
  topo_params.as_count = 700;
  topo_params.seed = 9;
  const topo::World world = topo::generate(topo_params);
  bgp::VantageParams vantage_params;
  vantage_params.target_count = 24;
  const auto pool_template =
      bgp::select_vantage_points(world, vantage_params);
  ASSERT_GT(pool_template.size(), 3u);
  bgp::PropagationParams prop_params;
  prop_params.threads = 2;
  const bgp::Propagator propagator{world, prop_params};

  const auto links_of = [&](std::vector<bgp::VantagePoint> vps) {
    const auto table = bgp::collect_paths(propagator, std::move(vps));
    const auto observed = infer::ObservedPaths::build(table);
    return std::unordered_set<val::AsLink>{observed.link_order().begin(),
                                           observed.link_order().end()};
  };

  PropertyConfig config;
  config.cases = 3;  // each case runs collect_paths twice
  const auto result = testing::check_property<std::uint64_t>(
      config, [](Rng& rng) { return rng.next(); },
      [&](const std::uint64_t& seed) -> std::optional<std::string> {
        Rng rng{seed};
        std::vector<bgp::VantagePoint> pool = pool_template;
        rng.shuffle(pool);
        const std::size_t base_count = 1 + rng.below(pool.size() - 1);
        std::vector<bgp::VantagePoint> smaller{pool.begin(),
                                               pool.begin() + base_count};
        std::vector<bgp::VantagePoint> larger = smaller;
        larger.push_back(pool[base_count]);

        const auto small_links = links_of(std::move(smaller));
        const auto large_links = links_of(std::move(larger));
        if (large_links.size() < small_links.size()) {
          return "link count dropped from " +
                 std::to_string(small_links.size()) + " to " +
                 std::to_string(large_links.size()) + " after adding a VP";
        }
        for (const auto& link : small_links) {
          if (!large_links.contains(link)) {
            return "link " + std::to_string(link.a.value()) + "-" +
                   std::to_string(link.b.value()) +
                   " vanished after adding a VP";
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << result.message << " (case " << result.failing_case
                         << ", seed " << result.failing_seed << ")";
}

/// Eval pairs of the first stored algorithm, optionally restricted to one
/// topological class via the snapshot's precomputed link tags.
std::vector<eval::EvalPair> pairs_for_class(const io::Snapshot& snap,
                                            std::string_view klass) {
  std::unordered_map<val::AsLink, std::string_view> class_of;
  class_of.reserve(snap.links.size());
  for (const auto& tag : snap.links) {
    class_of.emplace(tag.link, snap.class_names[tag.topological_class]);
  }
  std::unordered_map<val::AsLink, const val::CleanLabel*> inferred;
  inferred.reserve(snap.algorithms.front().labels.size());
  for (const auto& label : snap.algorithms.front().labels) {
    inferred.emplace(label.link, &label);
  }

  std::vector<eval::EvalPair> pairs;
  for (const auto& validated : snap.validation) {
    const auto inferred_it = inferred.find(validated.link);
    if (inferred_it == inferred.end()) continue;
    if (!klass.empty()) {
      const auto class_it = class_of.find(validated.link);
      if (class_it == class_of.end() || class_it->second != klass) continue;
    }
    eval::EvalPair pair;
    pair.link = validated.link;
    pair.validated = validated.rel;
    pair.validated_provider = validated.provider;
    pair.inferred = inferred_it->second->rel;
    pair.inferred_provider = inferred_it->second->provider;
    pairs.push_back(pair);
  }
  return pairs;
}

bool is_true_positive_p2p(const eval::EvalPair& pair) {
  return pair.validated == topo::RelType::kP2P &&
         pair.inferred == topo::RelType::kP2P;
}

bool is_false_positive_p2p(const eval::EvalPair& pair) {
  return pair.validated != topo::RelType::kP2P &&
         pair.inferred == topo::RelType::kP2P;
}

double ppv_p(std::span<const eval::EvalPair> pairs) {
  return eval::compute_class_metrics(pairs, "subset").p2p.ppv();
}

TEST(Metamorphic, AdversarialDownSamplingMovesPrecisionMonotonically) {
  // Uniform down-sampling shows no trend (that is Appendix A's point), so
  // the monotone relation needs an adversarial sampler: dropping validated
  // P2P links that were inferred correctly (true positives) can only lower
  // PPV_P; dropping misinferred ones (false positives) can only raise it.
  const io::Snapshot& snap = shared_snapshot();
  std::vector<eval::EvalPair> pairs = pairs_for_class(snap, "T1-TR");
  const auto has_both = [](std::span<const eval::EvalPair> p) {
    return std::any_of(p.begin(), p.end(), is_true_positive_p2p) &&
           std::any_of(p.begin(), p.end(), is_false_positive_p2p);
  };
  if (!has_both(pairs)) {
    // Fall back to the full pair set so the relation is still exercised.
    pairs = pairs_for_class(snap, "");
  }
  ASSERT_TRUE(has_both(pairs));

  PropertyConfig config;
  config.cases = 8;
  const auto result = testing::check_property<std::uint64_t>(
      config, [](Rng& rng) { return rng.next(); },
      [&](const std::uint64_t& seed) -> std::optional<std::string> {
        for (const bool drop_true_positives : {true, false}) {
          std::vector<eval::EvalPair> remaining = pairs;
          Rng rng{seed};
          rng.shuffle(remaining);
          double previous = ppv_p(remaining);
          for (std::size_t i = remaining.size(); i-- > 0;) {
            const bool droppable =
                drop_true_positives ? is_true_positive_p2p(remaining[i])
                                    : is_false_positive_p2p(remaining[i]);
            if (!droppable) continue;
            remaining.erase(remaining.begin() +
                            static_cast<std::ptrdiff_t>(i));
            const double current = ppv_p(remaining);
            const bool monotone = drop_true_positives ? current <= previous
                                                      : current >= previous;
            if (!monotone) {
              return std::string{"PPV_P moved the wrong way when dropping "} +
                     (drop_true_positives ? "a true positive"
                                          : "a false positive");
            }
            previous = current;
          }
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << result.message << " (case " << result.failing_case
                         << ", seed " << result.failing_seed << ")";
}

TEST(Metamorphic, SamplingExperimentIsDeterministicAndBounded) {
  const std::vector<eval::EvalPair> pairs =
      pairs_for_class(shared_snapshot(), "");
  ASSERT_FALSE(pairs.empty());

  eval::SamplingParams params;
  params.min_percent = 80;
  params.max_percent = 95;
  params.step = 5;
  params.repetitions = 10;
  const auto first = eval::run_sampling_experiment(pairs, params);
  const auto second = eval::run_sampling_experiment(pairs, params);
  EXPECT_EQ(eval::to_csv(first), eval::to_csv(second))
      << "Appendix A experiment is not deterministic in its seed";

  ASSERT_FALSE(first.points.empty());
  for (const auto& point : first.points) {
    EXPECT_GE(point.percent, params.min_percent);
    EXPECT_LE(point.percent, params.max_percent);
    for (const auto& [q1, median, q3] :
         {std::tuple{point.ppv_p_q1, point.ppv_p_median, point.ppv_p_q3},
          std::tuple{point.tpr_p_q1, point.tpr_p_median, point.tpr_p_q3}}) {
      EXPECT_GE(q1, 0.0);
      EXPECT_LE(q3, 1.0);
      EXPECT_LE(q1, median);
      EXPECT_LE(median, q3);
    }
    EXPECT_LE(point.mcc_q1, point.mcc_median);
    EXPECT_LE(point.mcc_median, point.mcc_q3);
  }
}

// ---- serial vs threaded: every parallel stage byte-compares equal --------

std::string stage_bytes_at(const core::Scenario& scenario,
                           const infer::AsRankResult& asrank,
                           unsigned threads) {
  std::string bytes;
  const auto append_rel = [&bytes](const infer::Inference& inference) {
    for (const auto& link : inference.order()) {
      const auto* rel = inference.find(link);
      bytes += std::to_string(link.a.value()) + '|' +
               std::to_string(link.b.value()) + '|' +
               std::to_string(static_cast<int>(rel->rel)) + '|' +
               std::to_string(rel->provider.value()) + '\n';
    }
  };

  // Stage 1: route propagation / path collection.
  bgp::PropagationParams prop = scenario.params().propagation;
  prop.threads = threads;
  const bgp::Propagator propagator{scenario.world(), prop};
  const auto table = bgp::collect_paths(propagator,
                                        scenario.vantage_points());
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    bytes += std::to_string(ref.vp_index) + '@' +
             std::to_string(ref.origin) + ':';
    for (const auto hop : ref.path) bytes += std::to_string(hop.value()) + ',';
    bytes += '\n';
  });

  // Stage 2: community extraction.
  val::ExtractParams extract = scenario.params().extract;
  extract.threads = threads;
  val::ExtractStats stats;
  const auto validation = val::extract_from_communities(
      propagator, table, scenario.schemes(), extract, &stats);
  for (const auto& entry : validation.entries()) {
    bytes += std::to_string(entry.link.a.value()) + '-' +
             std::to_string(entry.link.b.value()) + ':';
    for (const auto& label : entry.labels) {
      bytes += std::to_string(static_cast<int>(label.rel)) + '/' +
               std::to_string(label.provider.value()) + ';';
    }
    bytes += '\n';
  }
  bytes += std::to_string(stats.tags_attached) + '|' +
           std::to_string(stats.tags_survived) + '|' +
           std::to_string(stats.tags_decoded) + '\n';

  // Stage 3: sanitize, with hops, slots, link order, degrees and first hops.
  infer::SanitizeStats sanitize;
  const auto observed = infer::ObservedPaths::build(table, &sanitize, threads);
  bytes += test::render_observed(observed, sanitize);

  // Stages 4+5: the learning classifiers.
  infer::ProbLinkParams problink;
  problink.threads = threads;
  append_rel(infer::run_problink(scenario.observed(), asrank,
                                 scenario.validation(), problink)
                 .inference);
  infer::TopoScopeParams toposcope;
  toposcope.threads = threads;
  append_rel(infer::run_toposcope(scenario.observed(), asrank,
                                  scenario.validation(), toposcope)
                 .inference);

  // Stage 6: the audit's per-class tabulation.
  const core::BiasAudit audit{scenario, threads};
  bytes += eval::render_coverage(audit.regional_coverage());
  bytes += eval::render_coverage(audit.topological_coverage());
  bytes += eval::render_validation_table(
      audit.validation_table(asrank.inference));
  return bytes;
}

TEST(Metamorphic, ParallelStagesAreByteIdenticalToSerial) {
  const core::Scenario& scenario = test::shared_scenario();
  const auto asrank = infer::run_asrank(scenario.observed());
  const std::string serial = stage_bytes_at(scenario, asrank, 1);
  ASSERT_FALSE(serial.empty());

  const auto diverges = [&](const unsigned& threads)
      -> std::optional<std::string> {
    if (stage_bytes_at(scenario, asrank, threads) != serial) {
      return "pipeline output diverged from serial at threads=" +
             std::to_string(threads);
    }
    return std::nullopt;
  };
  // The 1/2/4/8 sweep is pinned on every run; two random counts follow.
  for (const unsigned threads : {2u, 4u, 8u}) {
    if (const auto failure = diverges(threads)) ADD_FAILURE() << *failure;
  }

  PropertyConfig config;
  config.cases = 2;  // each case reruns every pipeline stage
  const auto result = testing::check_property<unsigned>(
      config, [](Rng& rng) { return 2 + static_cast<unsigned>(rng.below(7)); },
      diverges);
  EXPECT_TRUE(result.ok) << result.message << " (case " << result.failing_case
                         << ", seed " << result.failing_seed << ")";
}

TEST(Metamorphic, GoldenReportsAreByteStableAcrossRebuilds) {
  // Two full passes through snapshot building + serving must produce
  // byte-identical artifacts — the property the golden files pin in CI.
  const auto first = testing::build_golden_reports(test::shared_scenario());
  const auto second = testing::build_golden_reports(test::shared_scenario());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].filename, second[i].filename);
    EXPECT_FALSE(first[i].json.empty()) << first[i].filename;
    EXPECT_EQ(first[i].json, second[i].json) << first[i].filename;
  }
}

}  // namespace
}  // namespace asrel
