// Exports every companion data set of a generated world in its native
// on-disk format — CAIDA as-rel, the validation set, the five RIR
// delegated-extended files, the as2org file, and the synthesized IRR dump —
// so downstream tooling (or a real-data pipeline) can consume them.
//
//   ./examples/export_datasets [output_dir] [as_count] [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/scenario.hpp"
#include "infer/asrank.hpp"
#include "io/as_rel.hpp"
#include "io/validation_io.hpp"
#include "org/as2org.hpp"
#include "rir/delegation.hpp"
#include "rpsl/synthesize.hpp"

int main(int argc, char** argv) {
  using namespace asrel;

  const std::filesystem::path out_dir =
      argc > 1 ? argv[1] : "asrel_datasets";
  core::ScenarioParams params;
  params.topology.as_count = argc > 2 ? std::atoi(argv[2]) : 4000;
  params.topology.seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  const auto scenario = core::Scenario::build(params);
  std::filesystem::create_directories(out_dir);
  const auto write = [&](const std::string& name, const auto& writer) {
    std::ofstream out{out_dir / name};
    writer(out);
    std::printf("  wrote %s\n", (out_dir / name).c_str());
  };

  std::printf("Exporting data sets to %s ...\n", out_dir.c_str());

  // Ground truth and inferred relationships (CAIDA as-rel serial-1).
  write("ground-truth.as-rel.txt", [&](std::ostream& out) {
    io::write_as_rel(scenario->world().graph, out);
  });
  const auto& asrank = scenario->asrank();
  write("asrank.as-rel.txt", [&](std::ostream& out) {
    io::write_as_rel(asrank.inference, out);
  });

  // Raw validation data (multi-label, with sources).
  write("validation.txt", [&](std::ostream& out) {
    io::write_validation(scenario->raw_validation(), out);
  });

  // RIR delegated-extended files.
  for (const auto& file : scenario->world().delegations) {
    write("delegated-" + std::string{rir::registry_name(file.registry)} +
              "-extended-" + file.serial,
          [&](std::ostream& out) { rir::write_delegation_file(file, out); });
  }

  // CAIDA-style as2org.
  write("as2org.txt", [&](std::ostream& out) {
    org::write_as2org(scenario->world().as2org, out);
  });

  // Synthesized IRR (RPSL autnum objects).
  const auto irr = rpsl::synthesize_irr(scenario->world(), {});
  write("irr.db", [&](std::ostream& out) {
    for (const auto& object : irr) rpsl::write_autnum(object, out);
  });

  std::printf("Done: %zu ASes, %zu ground-truth links, %zu validation "
              "entries, %zu IRR objects.\n",
              scenario->world().graph.node_count(),
              scenario->world().graph.edge_count(),
              scenario->raw_validation().size(), irr.size());
  return 0;
}
