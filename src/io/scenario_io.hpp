// Text-format reader/writer for scenario scripts (scenario/spec.hpp).
//
// The format is line-oriented, whitespace-separated, with '#' comments —
// the same conventions as the measurement-trace formats in trace_io.hpp.
// The shipped scripts live in scenarios/; examples/lia_cli mode=scenario
// consumes them.  See scenario/spec.hpp for the grammar.
#pragma once

#include <iosfwd>
#include <string>

#include "scenario/spec.hpp"

namespace losstomo::io {

/// Parses a scenario script.  Throws std::runtime_error with the offending
/// line number on malformed input; the returned spec has been validate()d.
scenario::ScenarioSpec read_scenario(std::istream& is);

/// Writes `spec` in the text format (round-trips through read_scenario).
void write_scenario(std::ostream& os, const scenario::ScenarioSpec& spec);

/// File-path convenience; throws std::runtime_error on I/O failure.
scenario::ScenarioSpec load_scenario(const std::string& file);

}  // namespace losstomo::io
