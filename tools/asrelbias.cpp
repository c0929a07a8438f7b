// asrelbias — command-line driver for the library.
//
//   asrelbias generate --out DIR [--as-count N] [--seed S]
//       Generate a world and export every data set (ground-truth as-rel,
//       TABLE_DUMP2 RIB dump, raw validation, delegated-extended files,
//       as2org, IRR) in its native on-disk format.
//
//   asrelbias infer --rib FILE [--algo gao|asrank|problink|toposcope]
//                   [--validation FILE] [--out FILE]
//       Run a classifier on a bgpdump-style RIB dump (ours or a real one)
//       and write the result in CAIDA as-rel format. ProbLink and
//       TopoScope train on validation data, so they additionally require
//       --validation (the §6 setup: the training subset is exactly the
//       biased validation data).
//
//   asrelbias eval --inferred FILE --validation FILE
//       Score an as-rel file against a validation file: the §6 metrics
//       (PPV/TPR for both positive classes, MCC) over the intersection.
//
//   asrelbias audit [--as-count N] [--seed S]
//       Full in-memory pipeline: Fig. 1/2 coverage, Tables 1-3, and the
//       §6.1 case study (same content as examples/quickstart).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "core/bias_audit.hpp"
#include "obs/trace.hpp"
#include "core/case_study.hpp"
#include "core/scenario.hpp"
#include "infer/asrank.hpp"
#include "infer/gao.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "io/as_rel.hpp"
#include "io/rib_dump.hpp"
#include "io/validation_io.hpp"
#include "org/as2org.hpp"
#include "rpsl/synthesize.hpp"

namespace {

using namespace asrel;

struct Args {
  std::string command;
  int as_count = 12000;
  std::uint64_t seed = 42;
  unsigned threads = 0;  ///< 0 = auto; results identical for every value
  std::string out;
  std::string rib;
  std::string algo = "asrank";
  std::string inferred;
  std::string validation;
  std::string trace_out;  ///< Chrome-tracing JSON path; empty = tracing off
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--as-count") {
      args.as_count = std::atoi(value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--threads") {
      args.threads = static_cast<unsigned>(std::atoi(value));
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--rib") {
      args.rib = value;
    } else if (flag == "--algo") {
      args.algo = value;
    } else if (flag == "--inferred") {
      args.inferred = value;
    } else if (flag == "--validation") {
      args.validation = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return std::nullopt;
    }
  }
  return args;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  asrelbias generate --out DIR [--as-count N] [--seed S]\n"
      "  asrelbias infer --rib FILE [--algo gao|asrank|problink|toposcope]\n"
      "                  [--validation FILE] [--out FILE]\n"
      "  asrelbias eval --inferred FILE --validation FILE\n"
      "  asrelbias audit [--as-count N] [--seed S]\n"
      "common: --threads N  worker count (0 = auto); output is identical\n"
      "        for every setting\n"
      "        --trace-out FILE  write a chrome://tracing JSON timeline of\n"
      "        the run's pipeline stages (results are unaffected)\n");
  return 2;
}

std::unique_ptr<core::Scenario> build_scenario(const Args& args) {
  core::ScenarioParams params;
  params.topology.as_count = args.as_count;
  params.topology.seed = args.seed;
  params.threads = args.threads;
  std::fprintf(stderr, "building scenario (%d ASes, seed %llu)...\n",
               args.as_count, static_cast<unsigned long long>(args.seed));
  return core::Scenario::build(params);
}

int cmd_generate(const Args& args) {
  if (args.out.empty()) return usage();
  const auto scenario = build_scenario(args);
  const std::filesystem::path dir = args.out;
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& name, const auto& writer) {
    std::ofstream out{dir / name};
    writer(out);
    std::fprintf(stderr, "wrote %s\n", (dir / name).c_str());
  };
  write("ground-truth.as-rel.txt", [&](std::ostream& out) {
    io::write_as_rel(scenario->world().graph, out);
  });
  write("rib.table_dump2.txt", [&](std::ostream& out) {
    io::write_rib_dump(scenario->propagator(), scenario->paths(),
                       scenario->schemes(), {}, out);
  });
  write("validation.txt", [&](std::ostream& out) {
    io::write_validation(scenario->raw_validation(), out);
  });
  for (const auto& file : scenario->world().delegations) {
    write("delegated-" + std::string{rir::registry_name(file.registry)} +
              "-extended-" + file.serial,
          [&](std::ostream& out) { rir::write_delegation_file(file, out); });
  }
  write("as2org.txt", [&](std::ostream& out) {
    org::write_as2org(scenario->world().as2org, out);
  });
  write("irr.db", [&](std::ostream& out) {
    for (const auto& object :
         rpsl::synthesize_irr(scenario->world(), {})) {
      rpsl::write_autnum(object, out);
    }
  });
  return 0;
}

int cmd_infer(const Args& args) {
  if (args.rib.empty()) return usage();
  std::ifstream in{args.rib};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.rib.c_str());
    return 1;
  }
  io::RibParseStats stats;
  const auto table = io::parse_rib_dump(in, &stats);
  std::fprintf(stderr, "parsed %zu routes (%zu malformed), %zu peers\n",
               stats.routes, stats.malformed,
               table.vantage_points().size());
  const auto observed =
      infer::ObservedPaths::build(table, nullptr, args.threads);
  std::fprintf(stderr, "sanitized: %zu paths, %zu ASes, %zu links\n",
               observed.path_count(), observed.as_count(),
               observed.link_count());

  // ProbLink and TopoScope train on validation labels (§6: the original
  // systems do exactly this, inheriting the data's bias).
  std::vector<val::CleanLabel> training;
  if (args.algo == "problink" || args.algo == "toposcope") {
    if (args.validation.empty()) {
      std::fprintf(stderr, "--algo %s requires --validation FILE\n",
                   args.algo.c_str());
      return 2;
    }
    std::ifstream validation_in{args.validation};
    if (!validation_in) {
      std::fprintf(stderr, "cannot open %s\n", args.validation.c_str());
      return 1;
    }
    const auto raw = io::parse_validation(validation_in);
    training = val::clean(raw, org::OrgMap{}, {});
    std::fprintf(stderr, "training on %zu cleaned validation labels\n",
                 training.size());
  }

  infer::Inference inference;
  if (args.algo == "gao") {
    inference = infer::run_gao(observed);
  } else if (args.algo == "asrank") {
    auto result = infer::run_asrank(observed);
    std::fprintf(stderr, "inferred clique of %zu ASes\n",
                 result.clique.size());
    inference = std::move(result.inference);
  } else if (args.algo == "problink") {
    const auto base = infer::run_asrank(observed);
    infer::ProbLinkParams params;
    params.threads = args.threads;
    auto result = infer::run_problink(observed, base, training, params);
    std::fprintf(stderr, "problink converged after %d iterations\n",
                 result.iterations_used);
    inference = std::move(result.inference);
  } else if (args.algo == "toposcope") {
    const auto base = infer::run_asrank(observed);
    infer::TopoScopeParams params;
    params.threads = args.threads;
    auto result = infer::run_toposcope(observed, base, training, params);
    std::fprintf(stderr,
                 "toposcope used %d VP groups, predicted %zu hidden links\n",
                 result.groups_used,
                 infer::predict_hidden_links(observed).size());
    inference = std::move(result.inference);
  } else {
    std::fprintf(stderr, "unknown --algo %s\n", args.algo.c_str());
    return 2;
  }

  if (args.out.empty()) {
    io::write_as_rel(inference, std::cout);
  } else {
    std::ofstream out{args.out};
    io::write_as_rel(inference, out);
    std::fprintf(stderr, "wrote %s (%zu links)\n", args.out.c_str(),
                 inference.size());
  }
  return 0;
}

int cmd_eval(const Args& args) {
  if (args.inferred.empty() || args.validation.empty()) return usage();
  std::ifstream inferred_in{args.inferred};
  std::ifstream validation_in{args.validation};
  if (!inferred_in || !validation_in) {
    std::fprintf(stderr, "cannot open input files\n");
    return 1;
  }
  const auto inference = io::parse_as_rel(inferred_in);
  const auto raw = io::parse_validation(validation_in);
  const auto labels = val::clean(raw, org::OrgMap{}, {});
  const auto pairs = eval::make_eval_pairs(labels, inference);
  const auto metrics = eval::compute_class_metrics(pairs, "Total°");
  std::printf("links: %zu inferred, %zu validated, %zu in both\n",
              inference.size(), labels.size(), pairs.size());
  std::printf("P2P as positive: PPV %.3f TPR %.3f (%zu links)\n",
              metrics.p2p.ppv(), metrics.p2p.tpr(), metrics.p2p_links);
  std::printf("P2C as positive: PPV %.3f TPR %.3f (%zu links)\n",
              metrics.p2c.ppv(), metrics.p2c.tpr(), metrics.p2c_links);
  std::printf("MCC %.3f | P2C orientation accuracy %.3f\n", metrics.mcc,
              metrics.orientation_accuracy);
  return 0;
}

int cmd_audit(const Args& args) {
  const auto scenario = build_scenario(args);
  const core::BiasAudit audit{*scenario};
  const auto& asrank = scenario->asrank();
  const auto problink = infer::run_problink(scenario->observed(), asrank,
                                            scenario->validation());
  const auto toposcope = infer::run_toposcope(scenario->observed(), asrank,
                                              scenario->validation());

  std::printf("=== Fig. 1 — regional imbalance ===\n%s\n",
              eval::render_coverage(audit.regional_coverage()).c_str());
  std::printf("=== Fig. 2 — topological imbalance ===\n%s\n",
              eval::render_coverage(audit.topological_coverage()).c_str());
  std::printf("=== Table 1 — ASRank ===\n%s\n",
              eval::render_validation_table(
                  audit.validation_table(asrank.inference))
                  .c_str());
  std::printf("=== Table 2 — ProbLink ===\n%s\n",
              eval::render_validation_table(
                  audit.validation_table(problink.inference))
                  .c_str());
  std::printf("=== Table 3 — TopoScope ===\n%s\n",
              eval::render_validation_table(
                  audit.validation_table(toposcope.inference))
                  .c_str());
  std::printf("=== §6.1 case study ===\n%s",
              core::render(core::run_case_study(*scenario, audit,
                                                asrank.inference))
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) return usage();
  if (!args->trace_out.empty()) {
    asrel::obs::Tracer::instance().set_enabled(true);
  }

  int status = 2;
  if (args->command == "generate") {
    status = cmd_generate(*args);
  } else if (args->command == "infer") {
    status = cmd_infer(*args);
  } else if (args->command == "eval") {
    status = cmd_eval(*args);
  } else if (args->command == "audit") {
    status = cmd_audit(*args);
  } else {
    return usage();
  }

  if (!args->trace_out.empty()) {
    std::string error;
    if (asrel::obs::Tracer::instance().write_chrome_trace(args->trace_out,
                                                          &error)) {
      std::fprintf(stderr, "wrote trace %s\n", args->trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s: %s\n",
                   args->trace_out.c_str(), error.c_str());
      if (status == 0) status = 1;
    }
  }
  return status;
}
