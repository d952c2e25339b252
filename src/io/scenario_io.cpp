#include "io/scenario_io.hpp"

// lint: hot-path-parsing-ok-file(scenario scripts are parsed once at
// startup, tens of lines, before the monitor ever ticks; readable stream
// extraction wins over from_chars here)

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace losstomo::io {

namespace {

using scenario::Event;
using scenario::EventType;
using scenario::ScenarioSpec;
using scenario::TopologySpec;

[[noreturn]] void fail(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("scenario line " + std::to_string(lineno) + ": " +
                           what);
}

// key=value attributes of one line's tail, e.g. "path=3 loss=0.4".
std::map<std::string, std::string> parse_attrs(std::istringstream& ss,
                                               std::size_t lineno) {
  std::map<std::string, std::string> attrs;
  std::string token;
  while (ss >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      fail(lineno, "expected key=value, got '" + token + "'");
    }
    attrs[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return attrs;
}

// Strict non-negative integer parse: digits only.  std::stoull (and
// istream >> unsigned) silently wrap "-1" to 2^64-1, which would turn a
// typo into a near-infinite allocation instead of a line-numbered error.
std::size_t parse_count(const std::string& text, const std::string& what,
                        std::size_t lineno) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    fail(lineno, what + " is not a count: " + text);
  }
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    fail(lineno, what + " is not a count: " + text);
  }
}

std::size_t attr_size(const std::map<std::string, std::string>& attrs,
                      const std::string& key, std::size_t lineno) {
  const auto it = attrs.find(key);
  if (it == attrs.end()) fail(lineno, "missing attribute '" + key + "'");
  return parse_count(it->second, "attribute '" + key + "'", lineno);
}

double attr_double(const std::map<std::string, std::string>& attrs,
                   const std::string& key, std::size_t lineno,
                   bool required = true, double fallback = 0.0) {
  const auto it = attrs.find(key);
  if (it == attrs.end()) {
    if (required) fail(lineno, "missing attribute '" + key + "'");
    return fallback;
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    fail(lineno, "attribute '" + key + "' is not a number: " + it->second);
  }
}

std::string attr_string(const std::map<std::string, std::string>& attrs,
                        const std::string& key, std::size_t lineno) {
  const auto it = attrs.find(key);
  if (it == attrs.end()) fail(lineno, "missing attribute '" + key + "'");
  return it->second;
}

TopologySpec parse_topology(std::istringstream& ss, std::size_t lineno) {
  TopologySpec topology;
  std::string kind;
  if (!(ss >> kind)) {
    fail(lineno, "topology needs a kind (tree|mesh|overlay|branching_tree)");
  }
  if (kind == "tree") {
    topology.kind = TopologySpec::Kind::kTree;
  } else if (kind == "mesh") {
    topology.kind = TopologySpec::Kind::kMesh;
  } else if (kind == "overlay") {
    topology.kind = TopologySpec::Kind::kOverlay;
  } else if (kind == "branching_tree") {
    topology.kind = TopologySpec::Kind::kBranchingTree;
  } else {
    fail(lineno, "unknown topology kind: " + kind);
  }
  const auto attrs = parse_attrs(ss, lineno);
  for (const auto& [key, value] : attrs) {
    const std::size_t parsed =
        parse_count(value, "topology attribute '" + key + "'", lineno);
    if (key == "nodes") {
      topology.nodes = parsed;
    } else if (key == "branching") {
      topology.branching = parsed;
    } else if (key == "hosts") {
      topology.hosts = parsed;
    } else if (key == "as_count") {
      topology.as_count = parsed;
    } else if (key == "routers_per_as") {
      topology.routers_per_as = parsed;
    } else if (key == "depth") {
      topology.depth = parsed;
    } else if (key == "extra_leaves") {
      topology.extra_leaves = parsed;
    } else if (key == "seed") {
      topology.seed = parsed;
    } else {
      fail(lineno, "unknown topology attribute: " + key);
    }
  }
  return topology;
}

Event parse_event(std::istringstream& ss, std::size_t lineno) {
  Event event;
  std::string tick_text;
  std::string kind;
  if (!(ss >> tick_text >> kind)) {
    fail(lineno, "expected 'at <tick> <event> ...'");
  }
  event.tick = parse_count(tick_text, "event tick", lineno);
  const auto attrs = parse_attrs(ss, lineno);
  if (kind == "join") {
    event.type = EventType::kPathJoin;
    event.path = attr_size(attrs, "path", lineno);
  } else if (kind == "leave") {
    event.type = EventType::kPathLeave;
    event.path = attr_size(attrs, "path", lineno);
  } else if (kind == "reroute") {
    event.type = EventType::kRouteChange;
    event.path = attr_size(attrs, "path", lineno);
  } else if (kind == "link_down") {
    event.type = EventType::kLinkDown;
    event.link = attr_size(attrs, "link", lineno);
    event.value = attr_double(attrs, "loss", lineno, /*required=*/false, 0.0);
  } else if (kind == "link_up") {
    event.type = EventType::kLinkUp;
    event.link = attr_size(attrs, "link", lineno);
  } else if (kind == "regime") {
    event.type = EventType::kRegimeShift;
    event.value = attr_double(attrs, "p", lineno);
  } else if (kind == "grow") {
    event.type = EventType::kGrow;
    event.count = attr_size(attrs, "count", lineno);
  } else if (kind == "grow_links") {
    event.type = EventType::kGrowLinks;
    event.count = attr_size(attrs, "count", lineno);
  } else if (kind == "checkpoint") {
    event.type = EventType::kCheckpoint;
    event.file = attr_string(attrs, "file", lineno);
  } else if (kind == "restore") {
    event.type = EventType::kRestore;
    event.file = attr_string(attrs, "file", lineno);
  } else if (kind == "handoff") {
    event.type = EventType::kHandoff;
  } else {
    fail(lineno, "unknown event: " + kind);
  }
  return event;
}

}  // namespace

scenario::ScenarioSpec read_scenario(std::istream& is) {
  ScenarioSpec spec;
  bool named = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    std::string keyword;
    if (!(ss >> keyword)) continue;  // blank / comment-only
    if (!named) {
      if (keyword != "scenario") {
        fail(lineno, "scenario scripts start with 'scenario <name>'");
      }
      if (!(ss >> spec.name)) fail(lineno, "scenario needs a name");
      named = true;
      continue;
    }
    if (keyword == "topology") {
      spec.topology = parse_topology(ss, lineno);
    } else if (keyword == "at") {
      spec.events.push_back(parse_event(ss, lineno));
    } else if (keyword == "lazy") {
      std::string value_text;
      if (!(ss >> value_text)) fail(lineno, "lazy needs 0 or 1");
      if (value_text != "0" && value_text != "1") {
        fail(lineno, "lazy must be 0 or 1, got " + value_text);
      }
      spec.lazy_simulation = value_text == "1";
    } else if (keyword == "window" || keyword == "ticks" ||
               keyword == "seed" || keyword == "probes" ||
               keyword == "initial_paths" || keyword == "reserve_paths") {
      std::string value_text;
      if (!(ss >> value_text)) fail(lineno, keyword + " needs a count");
      const std::size_t value = parse_count(value_text, keyword, lineno);
      if (keyword == "window") {
        spec.window = value;
      } else if (keyword == "ticks") {
        spec.ticks = value;
      } else if (keyword == "seed") {
        spec.seed = value;
      } else if (keyword == "probes") {
        spec.probes = value;
      } else if (keyword == "initial_paths") {
        spec.initial_paths = value;
      } else {
        spec.reserve_paths = value;
      }
    } else if (keyword == "p" || keyword == "down_loss" ||
               keyword == "min_good_loss") {
      double value = 0.0;
      if (!(ss >> value)) fail(lineno, keyword + " needs a number");
      if (keyword == "p") {
        spec.p = value;
      } else if (keyword == "down_loss") {
        spec.down_loss = value;
      } else {
        spec.min_good_loss = value;
      }
    } else {
      fail(lineno, "unknown keyword: " + keyword);
    }
    std::string trailing;
    if (ss >> trailing) fail(lineno, "trailing tokens: " + trailing);
  }
  // getline returning false means EOF *or* a stream-level I/O failure;
  // treating a failed read as "end of script" would silently truncate the
  // scenario.  failbit alone is the normal EOF-on-empty-line signal.
  if (is.bad()) {
    throw std::runtime_error("scenario read: stream I/O failure after line " +
                             std::to_string(lineno));
  }
  if (!named) throw std::runtime_error("empty scenario script");
  try {
    spec.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("invalid scenario: ") + e.what());
  }
  return spec;
}

void write_scenario(std::ostream& os, const scenario::ScenarioSpec& spec) {
  // Full round-trip precision for the double-valued fields (p, losses):
  // a truncated p drives a different simulation on reload.
  os.precision(17);
  os << "# losstomo scenario\n";
  os << "scenario " << spec.name << '\n';
  const auto& t = spec.topology;
  os << "topology " << scenario::topology_kind_name(t.kind);
  switch (t.kind) {
    case TopologySpec::Kind::kTree:
      os << " nodes=" << t.nodes << " branching=" << t.branching;
      break;
    case TopologySpec::Kind::kMesh:
      os << " nodes=" << t.nodes << " hosts=" << t.hosts;
      break;
    case TopologySpec::Kind::kOverlay:
      os << " hosts=" << t.hosts << " as_count=" << t.as_count
         << " routers_per_as=" << t.routers_per_as;
      break;
    case TopologySpec::Kind::kBranchingTree:
      os << " depth=" << t.depth << " branching=" << t.branching
         << " extra_leaves=" << t.extra_leaves;
      break;
  }
  os << " seed=" << t.seed << '\n';
  os << "window " << spec.window << '\n';
  os << "ticks " << spec.ticks << '\n';
  os << "seed " << spec.seed << '\n';
  os << "probes " << spec.probes << '\n';
  os << "p " << spec.p << '\n';
  os << "down_loss " << spec.down_loss << '\n';
  if (spec.min_good_loss > 0.0) {
    os << "min_good_loss " << spec.min_good_loss << '\n';
  }
  if (spec.initial_paths > 0) os << "initial_paths " << spec.initial_paths << '\n';
  if (spec.reserve_paths > 0) os << "reserve_paths " << spec.reserve_paths << '\n';
  if (!spec.lazy_simulation) os << "lazy 0\n";
  for (const auto& e : spec.events) {
    os << "at " << e.tick << ' ' << scenario::event_type_name(e.type);
    switch (e.type) {
      case EventType::kPathJoin:
      case EventType::kPathLeave:
      case EventType::kRouteChange:
        os << " path=" << e.path;
        break;
      case EventType::kLinkDown:
        os << " link=" << e.link;
        if (e.value > 0.0) os << " loss=" << e.value;
        break;
      case EventType::kLinkUp:
        os << " link=" << e.link;
        break;
      case EventType::kRegimeShift:
        os << " p=" << e.value;
        break;
      case EventType::kGrow:
      case EventType::kGrowLinks:
        os << " count=" << e.count;
        break;
      case EventType::kCheckpoint:
      case EventType::kRestore:
        os << " file=" << e.file;
        break;
      case EventType::kHandoff:
        break;
    }
    os << '\n';
  }
}

scenario::ScenarioSpec load_scenario(const std::string& file) {
  std::ifstream is(file);
  if (!is) throw std::runtime_error("cannot open for reading: " + file);
  return read_scenario(is);
}

}  // namespace losstomo::io
