// Fuzz target: the flat (v3) snapshot reader (src/io/flat_snapshot).
//
// Oracle (testing::check_flat_reader): every input is opened both
// structural-only and with the deep checksum pass. Every rejection must
// give a reason, and every accepted image is walked through every
// FlatView accessor — each record, find_* for each stored key,
// neighbors(), string_at / class_name / algorithm_name, algo_labels.
// ASan/UBSan judge the walk: the structural open promises memory safety
// on arbitrary bytes, so any out-of-bounds read is a reader bug.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "testing/flat_oracle.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes{reinterpret_cast<const char*>(data), size};
  if (const auto failure = asrel::testing::check_flat_reader(bytes)) {
    std::fprintf(stderr, "fuzz_snapshot: %s (%zu-byte input)\n",
                 failure->c_str(), size);
    std::abort();
  }
  return 0;
}

std::vector<std::string> asrel_fuzz_seeds() {
  using namespace asrel;
  std::vector<std::string> seeds;
  seeds.push_back(io::to_snapshot_bytes(testing::tiny_snapshot()));

  // An empty-but-valid snapshot: header plus empty sections.
  seeds.push_back(io::to_snapshot_bytes(io::Snapshot{}));

  // A header-only truncation and a bad-magic prefix keep the cheap reject
  // paths in the schedule.
  seeds.push_back(seeds.front().substr(0, 12));
  seeds.push_back("NOTASNAP" + seeds.front().substr(8));
  return seeds;
}
