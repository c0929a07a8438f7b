#include "serve/service.hpp"

#include <charconv>
#include <optional>

#include "rir/region.hpp"
#include "serve/json.hpp"

namespace asrel::serve {

namespace {

std::optional<asn::Asn> parse_asn(const std::string* value) {
  if (value == nullptr || value->empty()) return std::nullopt;
  std::uint32_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc{} || ptr != value->data() + value->size()) {
    return std::nullopt;
  }
  return asn::Asn{parsed};
}

HttpResponse bad_request(std::string_view message) {
  JsonWriter json;
  json.begin_object();
  json.field("error", message);
  json.end_object();
  return HttpResponse::json(400, std::move(json).str());
}

HttpResponse not_found(std::string_view message) {
  JsonWriter json;
  json.begin_object();
  json.field("error", message);
  json.end_object();
  return HttpResponse::json(404, std::move(json).str());
}

HttpResponse handle_rel(const QueryEngine& engine,
                        const HttpRequest& request) {
  const auto a = parse_asn(request.query_param("a"));
  const auto b = parse_asn(request.query_param("b"));
  if (!a || !b) {
    return bad_request("expected numeric query parameters a and b");
  }
  if (*a == *b) return bad_request("a and b must differ");
  // The engine renders (and caches) the body: it is immutable for its
  // epoch, so point-lookup bodies are cacheable like aggregate reports.
  return HttpResponse::json(200, *engine.rel_json(*a, *b));
}

HttpResponse handle_as(const QueryEngine& engine,
                       const HttpRequest& request) {
  const auto asn = parse_asn(request.query_param("asn"));
  if (!asn) return bad_request("expected numeric query parameter asn");
  const auto summary = engine.as_summary(*asn);
  if (!summary) return not_found("unknown ASN");

  JsonWriter json;
  json.begin_object();
  json.field("asn", std::uint64_t{summary->asn.value()});
  json.field("region", rir::abbreviation(summary->region));
  json.field("country", summary->country);
  json.field("tier", to_string(summary->tier));
  json.field("hypergiant", summary->hypergiant);
  json.field("transit_degree", summary->transit_degree);
  json.field("node_degree", summary->node_degree);
  json.field("cone_size", summary->cone_size);
  json.key("neighbors").begin_object();
  json.field("providers", summary->providers);
  json.field("customers", summary->customers);
  json.field("peers", summary->peers);
  json.field("siblings", summary->siblings);
  json.end_object();
  json.field("observed_links", summary->observed_links);
  json.field("validated_links", summary->validated_links);
  json.end_object();
  return HttpResponse::json(200, std::move(json).str());
}

HttpResponse handle_links(const QueryEngine& engine,
                          const HttpRequest& request) {
  std::size_t limit = 256;
  if (const std::string* raw = request.query_param("limit")) {
    // Strict, like parse_asn: "5x" is a bad request, not five links.
    const char* end = raw->data() + raw->size();
    const auto [ptr, ec] = std::from_chars(raw->data(), end, limit);
    if (ec != std::errc{} || ptr != end || limit == 0 || limit > 100000) {
      return bad_request("limit must be in [1, 100000]");
    }
  }
  const auto links = engine.sample_links(limit);
  JsonWriter json;
  json.begin_object();
  json.field("count", links.size());
  json.key("links").begin_array();
  for (const auto& link : links) {
    json.begin_array();
    json.value(std::uint64_t{link.a.value()});
    json.value(std::uint64_t{link.b.value()});
    json.end_array();
  }
  json.end_array();
  json.end_object();
  return HttpResponse::json(200, std::move(json).str());
}

/// POST /reloadz: synchronous snapshot swap. 200 with the new epoch on
/// success; 503 with the diagnosis (and the old epoch still serving) on
/// failure — an operator retry loop can key off the status alone.
HttpResponse handle_reload(EngineHub& hub) {
  const EngineHub::ReloadResult result = hub.reload();
  JsonWriter json;
  json.begin_object();
  json.field("ok", result.ok);
  json.field("epoch", result.epoch);
  if (!result.ok) json.field("error", result.error);
  json.end_object();
  return HttpResponse::json(result.ok ? 200 : 503, std::move(json).str());
}

HttpResponse handle_snapshot_info(const QueryEngine& engine) {
  // Header counts and meta only: a cheap route that never touches the
  // record sections.
  const io::SnapshotMeta& meta = engine.meta();
  JsonWriter json;
  json.begin_object();
  json.field("as_count_param", std::int64_t{meta.as_count});
  json.field("seed", std::uint64_t{meta.seed});
  json.field("scheme_seed", std::uint64_t{meta.scheme_seed});
  json.field("ases", engine.num_ases());
  json.field("edges", engine.num_edges());
  json.field("observed_links", engine.num_links());
  json.field("validation_labels", engine.num_validation());
  json.key("algorithms").begin_array();
  for (const auto name : engine.algorithm_names()) {
    json.value(name);
  }
  json.end_array();
  json.end_object();
  return HttpResponse::json(200, std::move(json).str());
}

}  // namespace

HttpResponse AsrelService::handle(const HttpRequest& request) const {
  const std::string& path = request.path;

  if (request.method == "POST") {
    if (path == "/reloadz") return handle_reload(*hub_);
    return HttpResponse::json(405, R"({"error":"only GET is supported"})");
  }
  if (request.method != "GET") {
    return HttpResponse::json(405, R"({"error":"only GET is supported"})");
  }

  // Pin one epoch for the whole request: a concurrent reload publishes a
  // new engine, but this request finishes on the snapshot it started on.
  const std::shared_ptr<const QueryEngine> engine = hub_->current();

  if (path == "/rel") return handle_rel(*engine, request);
  if (path == "/as") return handle_as(*engine, request);
  if (path == "/links") return handle_links(*engine, request);
  if (path == "/snapshot") return handle_snapshot_info(*engine);
  if (path == "/report/regional" || path == "/report/topological") {
    const std::string key = path.substr(sizeof("/report/") - 1);
    if (auto report = engine->report_json(key)) {
      return HttpResponse::json(200, *report);
    }
    return not_found("unknown report");
  }
  if (path == "/report/table") {
    const std::string* algo = request.query_param("algo");
    if (algo == nullptr || algo->empty()) {
      return bad_request("expected query parameter algo");
    }
    if (auto report = engine->report_json("table:" + *algo)) {
      return HttpResponse::json(200, *report);
    }
    return not_found("unknown algorithm");
  }
  return not_found("unknown path");
}

std::string AsrelService::stats_json() const {
  const std::shared_ptr<const QueryEngine> engine = hub_->current();
  const CacheStats cache = engine->cache_stats();
  const EngineHub::Stats reload = hub_->stats();
  JsonWriter json;
  json.begin_object();
  json.key("report_cache").begin_object();
  json.field("hits", cache.hits);
  json.field("misses", cache.misses);
  json.field("evictions", cache.evictions);
  json.field("entries", cache.entries);
  json.field("hit_rate", cache.hit_rate());
  json.end_object();
  const CacheStats rel_cache = engine->rel_cache_stats();
  json.key("rel_cache").begin_object();
  json.field("hits", rel_cache.hits);
  json.field("misses", rel_cache.misses);
  json.field("evictions", rel_cache.evictions);
  json.field("entries", rel_cache.entries);
  json.field("hit_rate", rel_cache.hit_rate());
  json.end_object();
  json.key("reload").begin_object();
  json.field("epoch", reload.epoch);
  json.field("ok", reload.reloads_ok);
  json.field("failed", reload.reloads_failed);
  json.field("publishes", reload.publishes);
  if (!reload.last_error.empty()) {
    json.field("last_error", reload.last_error);
  }
  json.end_object();
  // The epoch stamped inside the served snapshot itself (0 for batch
  // builds; monotonic per streaming publication) — loadgen --epoch-watch
  // polls this to catch swaps.
  json.key("snapshot").begin_object();
  json.field("epoch", engine->meta().epoch);
  json.field("built_unix_ms", engine->meta().built_unix_ms);
  json.end_object();
  json.field("observed_links", engine->num_links());
  json.field("validation_labels", engine->num_validation());
  if (stream_stats_) {
    const std::string stream = stream_stats_();
    if (!stream.empty()) json.key("stream").raw(stream);
  }
  json.end_object();
  return std::move(json).str();
}

void AsrelService::collect_metrics(
    std::vector<obs::MetricSnapshot>& out) const {
  const auto counter = [&out](std::string name, double value,
                              std::string_view help = {}) {
    obs::MetricSnapshot snap;
    snap.name = std::move(name);
    snap.help = std::string{help};
    snap.type = obs::MetricType::kCounter;
    snap.value = value;
    out.push_back(std::move(snap));
  };
  const auto gauge = [&out](std::string name, double value,
                            std::string_view help = {}) {
    obs::MetricSnapshot snap;
    snap.name = std::move(name);
    snap.help = std::string{help};
    snap.type = obs::MetricType::kGauge;
    snap.value = value;
    out.push_back(std::move(snap));
  };

  const std::shared_ptr<const QueryEngine> engine = hub_->current();
  const CacheStats cache = engine->cache_stats();
  for (std::size_t i = 0; i < cache.shards.size(); ++i) {
    const ShardStats& shard = cache.shards[i];
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    counter("asrel_cache_hits_total" + label,
            static_cast<double>(shard.hits),
            "Report-cache hits per shard (current snapshot epoch)");
    counter("asrel_cache_misses_total" + label,
            static_cast<double>(shard.misses));
    counter("asrel_cache_evictions_total" + label,
            static_cast<double>(shard.evictions));
    gauge("asrel_cache_entries" + label,
          static_cast<double>(shard.entries));
  }
  const CacheStats rel_cache = engine->rel_cache_stats();
  counter("asrel_rel_cache_hits_total",
          static_cast<double>(rel_cache.hits),
          "Rendered /rel body cache hits (current snapshot epoch)");
  counter("asrel_rel_cache_misses_total",
          static_cast<double>(rel_cache.misses));
  gauge("asrel_rel_cache_entries", static_cast<double>(rel_cache.entries));
  const EngineHub::Stats reload = hub_->stats();
  gauge("asrel_engine_epoch", static_cast<double>(reload.epoch),
        "Snapshot epoch currently serving");
  gauge("asrel_snapshot_epoch", static_cast<double>(engine->meta().epoch),
        "Epoch stamped in the served snapshot header (0 = batch build)");
  gauge("asrel_snapshot_built_unix_ms",
        static_cast<double>(engine->meta().built_unix_ms),
        "Build timestamp stamped in the served snapshot header");
  gauge("asrel_engine_observed_links",
        static_cast<double>(engine->num_links()));
  gauge("asrel_engine_validation_labels",
        static_cast<double>(engine->num_validation()));
}

std::vector<std::string> AsrelService::metric_routes() {
  return {"/rel",
          "/as",
          "/links",
          "/snapshot",
          "/report/regional",
          "/report/topological",
          "/report/table",
          "/reloadz"};
}

}  // namespace asrel::serve
