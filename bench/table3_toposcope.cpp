// Reproduces Table 3: per-group validation metrics for TopoScope.
//
// Paper reference (excerpt): Total° PPV_P .976 TPR_P .988, T1-TR PPV_P .798
// TPR_P .947, S-T1 PPV_P .042 TPR_P .043. Expected shape: between ASRank
// and ProbLink overall, S-T1 nearly as collapsed as ASRank, T1-TR precision
// clearly below the total.
#include "table_common.hpp"

int main() {
  using namespace asrel;
  bench::print_validation_table(
      "Table 3 — per group validation for TopoScope",
      bench::toposcope().inference);
  const auto hidden =
      infer::predict_hidden_links(bench::scenario().observed());
  std::printf("\nTopoScope: %d vantage-point groups, %zu hidden links "
              "predicted (top confidence %.2f)\n",
              bench::toposcope().groups_used, hidden.size(),
              hidden.empty() ? 0.0 : hidden.front().confidence);
  return 0;
}
