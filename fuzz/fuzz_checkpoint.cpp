// Fuzz target: the stream checkpoint reader (src/stream/checkpoint).
//
// Oracle: parsing never crashes, every rejection carries a reason, and
// any accepted input is in canonical form — re-serializing the parsed
// checkpoint must reproduce the input byte-for-byte. The decoder rejects
// everything non-canonical (unordered prefix owners, host bits under the
// mask, hybrid filler bytes, implausible counts, trailing bytes), so
// accept + re-encode-differs means the recovery ladder could restore
// state that never round-trips — exactly the corruption class the ladder
// exists to keep out.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "stream/checkpoint.hpp"
#include "stream/churn.hpp"
#include "stream/session.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes{reinterpret_cast<const char*>(data), size};
  std::string error;
  const auto checkpoint = asrel::stream::parse_checkpoint_bytes(bytes, &error);
  if (!checkpoint.has_value()) {
    if (error.empty()) {
      std::fprintf(stderr, "fuzz_checkpoint: rejection without a reason\n");
      std::abort();
    }
    return 0;
  }
  const std::string round = asrel::stream::to_checkpoint_bytes(*checkpoint);
  if (round != bytes) {
    std::fprintf(stderr,
                 "fuzz_checkpoint: accepted input is not canonical "
                 "(in=%zu bytes, out=%zu bytes)\n",
                 bytes.size(), round.size());
    std::abort();
  }
  return 0;
}

std::vector<std::string> asrel_fuzz_seeds() {
  using namespace asrel;

  // A real (tiny) session provides structurally valid seeds: edges inside
  // the node universe, canonical prefixes, ascending transit bits.
  core::ScenarioParams params;
  params.topology.as_count = 60;
  params.topology.seed = 5;
  params.vantage.target_count = 8;
  params.threads = 1;
  stream::StreamSession session{params};

  std::vector<std::string> seeds;
  // The pristine epoch-1 state (no churn).
  seeds.push_back(stream::to_checkpoint_bytes(session.checkpoint(0)));

  // A churned state: tombstoned edges, flipped relationships, live
  // prefix entries; once mid-epoch (events not yet published), once
  // after the publish.
  const auto events = stream::generate_churn(session.world(), 3, 25);
  for (const auto& event : events) session.apply(event);
  seeds.push_back(stream::to_checkpoint_bytes(session.checkpoint(25)));
  session.publish(2);
  seeds.push_back(stream::to_checkpoint_bytes(session.checkpoint(25)));

  // A header-only truncation and a bad-magic prefix keep the cheap reject
  // paths in the schedule.
  seeds.push_back(seeds.front().substr(0, 20));
  seeds.push_back("NOTACKPT" + seeds.front().substr(8));
  return seeds;
}
