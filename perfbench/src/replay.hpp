// The in-process replay of tape lines, each pass on a cleared
// PrecomputeCache:
//   engine     service::Engine::handle, the production entry point, giving
//              the reference reply bytes and per-line latency;
//   untraced   a reconstruction calling each layer's public functions in
//              the order Engine takes them (protocol parse,
//              core::read_instance / apply_delta, SolverRegistry::prepare,
//              ExperimentRunner, lower_bound_auto, response formatting);
//   traced     the same reconstruction with a span around every call and a
//              timing sim::Policy wrapper around the prepared policies.
// Both reconstructions must reproduce the Engine::handle reply byte for
// byte, which shows the spans cover the path production takes; the
// traced-minus-untraced wall time is the tracing overhead. The replay is
// sequential and single-threaded, so every process-global counter delta
// (suu_lp_*_total, cache hits/misses) belongs to exactly one span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tape.hpp"

namespace perfbench {

struct ReplayLine {
  const TapeLine* line = nullptr;
  bool timed = false;  ///< from the timed tape (not setup or warm-up)
};

/// Engine::handle over `lines` on a fresh engine and a cleared cache.
/// Returns per-line latency in microseconds; replies land in *replies.
std::vector<double> engine_pass(const std::vector<ReplayLine>& lines,
                                std::vector<std::string>* replies);

struct TracedResult {
  std::size_t checked = 0;        ///< replies byte-checked, every pass
  std::size_t mismatches = 0;     ///< of those, replies that differed
  std::vector<double> layers_us;  ///< per line: the request's child spans
  /// Per-layer metrics named as in BENCHMARK.json's per_layer list (the
  /// service.transport_us / engine_glue_us and daemon-side ones are added
  /// by the caller, which has the other passes).
  std::map<std::string, double> metrics;
  std::string summary_json;  ///< per-layer self-time summary
  std::string chrome_json;   ///< Chrome trace-event JSON of every span
};

/// The untraced then the traced reconstruction of `lines`; `reference`
/// holds engine_pass's replies for the byte check.
TracedResult traced_pass(const std::vector<ReplayLine>& lines,
                         const std::vector<std::string>& reference,
                         const std::string& workload);

}  // namespace perfbench
