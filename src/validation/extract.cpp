#include "validation/extract.hpp"

#include <algorithm>
#include <vector>

#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace asrel::val {

namespace {

using asn::Asn;
using topo::RelType;

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t salt) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + b + salt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Collapses prepending: consecutive duplicate hops become one.
void collapse(std::span<const Asn> path, std::vector<Asn>& out) {
  out.clear();
  for (const Asn hop : path) {
    if (out.empty() || out.back() != hop) out.push_back(hop);
  }
}

}  // namespace

ValidationSet extract_from_communities(const bgp::Propagator& propagator,
                                       const bgp::PathTable& paths,
                                       const SchemeDirectory& schemes,
                                       const ExtractParams& params,
                                       ExtractStats* stats) {
  obs::StageScope stage{"validation.extract_communities"};
  const auto& world = propagator.world();
  const auto& graph = world.graph;

  const auto scan_path = [&](const bgp::PathTable::PathRef& ref,
                             ValidationSet& set, ExtractStats& local,
                             std::vector<Asn>& hops) {
    ++local.paths_scanned;
    collapse(ref.path, hops);
    const Asn origin = graph.asn_of(ref.origin);

    bool communities_survive = true;  // no stripper between tagger and VP yet
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const Asn tagger = hops[i];
      const Asn neighbor = hops[i + 1];

      // Stripping by ASes closer to the collector was already folded into
      // `communities_survive` (the VP itself is hops[0]). Unknown hops
      // (AS_TRANS placeholders) cannot be attributed an attitude; treat
      // them as transparent.
      if (i > 0) {
        const Asn upstream = hops[i - 1];
        if (graph.node_of(upstream).has_value() &&
            world.attrs.at(upstream).strips_communities) {
          communities_survive = false;
        }
      } else {
        if (graph.node_of(tagger) &&
            world.attrs.at(tagger).strips_communities) {
          // A stripping VP removes everything before exporting to the
          // collector, including its own ingress tags.
          break;
        }
      }

      const CommunityScheme* scheme = schemes.scheme_of(tagger);
      if (scheme == nullptr) continue;

      // The tagger's configured meaning for this neighbor. Hybrid links
      // resolve per origin — the tag reflects the PoP the route crossed.
      TagMeaning meaning = TagMeaning::kFromCustomer;
      const auto edge_id = graph.find_edge(tagger, neighbor);
      if (edge_id) {
        const auto& edge = graph.edge(*edge_id);
        const auto rel = propagator.effective_rel(edge, origin);
        const auto tagger_node = *graph.node_of(tagger);
        switch (rel) {
          case RelType::kP2C:
            meaning = edge.u == tagger_node ? TagMeaning::kFromCustomer
                                            : TagMeaning::kFromProvider;
            break;
          case RelType::kP2P:
            meaning = TagMeaning::kFromPeer;
            break;
          case RelType::kS2S:
            // Siblings are usually configured like customers; the paper
            // removes such entries with as2org data (§4.2).
            meaning = TagMeaning::kFromCustomer;
            break;
        }
      }
      // else: the neighbor is an AS_TRANS placeholder or a leaked private
      // ASN — the session config behind it was a customer-ish default, and
      // the resulting (tagger, bogus-ASN) label is exactly the paper's
      // "spurious entry".

      const bgp::Community tag = scheme->tag_for(meaning);
      ++local.tags_attached;
      if (!communities_survive) continue;
      ++local.tags_survived;

      // ---- Decoding side (what the researcher sees) ----
      // Attribute the community to an on-path AS whose published scheme
      // matches the key; skip if that is ambiguous.
      const CommunityScheme* decoder = nullptr;
      bool ambiguous = false;
      for (const auto index : schemes.key_matches(tag.high())) {
        const auto* candidate = &schemes.scheme_at(index);
        if (!candidate->published) continue;
        bool on_path = false;
        for (const Asn hop : hops) {
          if (hop == candidate->owner) {
            on_path = true;
            break;
          }
        }
        if (!on_path) continue;
        if (decoder != nullptr && decoder != candidate) {
          ambiguous = true;
          break;
        }
        decoder = candidate;
      }
      if (ambiguous) {
        ++local.ambiguous_keys_skipped;
        continue;
      }
      if (decoder == nullptr) continue;  // nobody published this key

      auto decoded = decoder->meaning_of(tag);
      if (!decoded) continue;
      ++local.tags_decoded;

      // Misdocumented link: the published mapping asserts the opposite
      // relationship for this neighbor.
      if (edge_id != std::nullopt &&
          graph.edge(*edge_id).misdocumented) {
        decoded = *decoded == TagMeaning::kFromPeer
                      ? TagMeaning::kFromCustomer
                      : TagMeaning::kFromPeer;
      }

      // Stale documentation: the published mapping is outdated for this
      // neighbor, so the researcher decodes the wrong relationship.
      if (params.stale_documentation > 0.0) {
        const std::uint64_t h =
            mix(tagger.value(), neighbor.value(), params.salt);
        const double roll = static_cast<double>(h >> 11) * 0x1.0p-53;
        if (roll < params.stale_documentation) {
          decoded = *decoded == TagMeaning::kFromCustomer
                        ? TagMeaning::kFromPeer
                        : TagMeaning::kFromCustomer;
        }
      }

      // The label always describes the link between the *owner of the
      // decoded scheme* and its path neighbor toward the origin.
      const Asn owner = decoder->owner;
      Asn owner_neighbor = neighbor;
      if (owner != tagger) {
        // Key collision resolved to another on-path AS: the researcher
        // attributes the tag to that AS's ingress link instead.
        for (std::size_t j = 0; j + 1 < hops.size(); ++j) {
          if (hops[j] == owner) {
            owner_neighbor = hops[j + 1];
            break;
          }
        }
      }

      Label label;
      label.source = Source::kCommunities;
      switch (*decoded) {
        case TagMeaning::kFromCustomer:
          label.rel = RelType::kP2C;
          label.provider = owner;
          break;
        case TagMeaning::kFromProvider:
          label.rel = RelType::kP2C;
          label.provider = owner_neighbor;
          break;
        case TagMeaning::kFromPeer:
          label.rel = RelType::kP2P;
          break;
        case TagMeaning::kBlackhole:
          continue;  // action community, no relationship statement
      }
      set.add(AsLink{owner, owner_neighbor}, label);
    }
  };

  // Origins are scanned in contiguous chunks of about equal hop counts;
  // merging the chunk-local sets back in chunk (= origin) order replays the
  // exact add() sequence of the serial scan, so the result is byte-identical
  // for any thread count.
  struct Shard {
    ValidationSet set;
    ExtractStats stats;
  };
  core::ThreadPool& pool = core::ThreadPool::shared();
  const unsigned threads = core::ThreadPool::effective_threads(params.threads);
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(threads, paths.origin_count()));
  const std::vector<std::size_t> bounds =
      bgp::split_origins_by_hops(paths, chunks);
  std::vector<Shard> shards = core::parallel_map_ordered<Shard>(
      pool, chunks, threads, [&](std::size_t chunk) {
        obs::TraceSpan span{"validation.extract.chunk"};
        Shard shard;
        std::vector<Asn> hops;
        for (std::size_t origin = bounds[chunk]; origin < bounds[chunk + 1];
             ++origin) {
          paths.for_each_path_of(
              static_cast<topo::NodeId>(origin),
              [&](const bgp::PathTable::PathRef& ref) {
                scan_path(ref, shard.set, shard.stats, hops);
              });
        }
        return shard;
      });

  ValidationSet set;
  ExtractStats local;
  for (const Shard& shard : shards) {
    set.merge(shard.set);
    local.paths_scanned += shard.stats.paths_scanned;
    local.tags_attached += shard.stats.tags_attached;
    local.tags_survived += shard.stats.tags_survived;
    local.tags_decoded += shard.stats.tags_decoded;
    local.ambiguous_keys_skipped += shard.stats.ambiguous_keys_skipped;
  }

  if (stats != nullptr) *stats = local;
  return set;
}

}  // namespace asrel::val
