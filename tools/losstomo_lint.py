#!/usr/bin/env python3
"""losstomo_lint: static checks for the invariants the parity harness assumes.

Usage:

    python3 tools/losstomo_lint.py              # lint src/ + tests/
    python3 tools/losstomo_lint.py src/core     # lint a subtree
    python3 tools/losstomo_lint.py --fixtures   # run the fixture corpus
    python3 tools/losstomo_lint.py --list-rules

The whole reproduction rests on one contract: streaming, parallel, and
restored execution must be bit-identical to the batch reference.  The parity tests enforce that dynamically; this linter makes
the invariants they assume *statically* checkable, so an order-dependent
hash-map walk or a stray RNG call fails CI instead of surfacing as a
flaky 1-ulp parity diff weeks later.  Exits non-zero with a per-finding
report.  No third-party dependencies.

Rules (see docs/STATIC_ANALYSIS.md for the full catalogue):

  nondet-order        no iteration over std::unordered_map/unordered_set
                      (iteration order feeds accumulation order)
  rng-discipline      rand()/srand()/std::random_device/std::mt19937/
                      time(nullptr) only inside stats/rng (the one seeded,
                      checkpointable randomness source)
  hot-path-parsing    istringstream / stod / stoul family banned in
                      src/io/ + src/core/ (hot loops parse via from_chars)
  layering            the include graph must respect the module order
                      util -> linalg -> stats -> core -> {scenario, obs,
                      io-sinks}; io container code cannot include core
  checkpoint-symmetry every save_state has a restore_state in the same
                      class; LTCP section tags come from the
                      io/checkpoint_tags.hpp registry, never raw literals
  unsafe-bytes        reinterpret_cast outside src/io/; hand-rolled JSON
                      quoting outside util/json
  metric-naming       registered metric names match check_metrics.py's
                      ^[a-z0-9_.]+$; kDeterministic never tags
                      wall-clock-derived metrics

Escape hatch: a finding is waived by an annotation comment

    // lint: <rule>-ok(<reason>)

on the offending line, on an earlier line of the same statement, or in
the comment block directly above that statement, or

    // lint: <rule>-ok-file(<reason>)

anywhere in the file to waive the rule for the whole file.  The reason
is mandatory — an empty one is itself a violation.

Fixture corpus: tests/lint/fixtures/<rule>_bad_*.cpp must each raise at
least one finding of <rule>; <rule>_ok_*.cpp must lint clean.  A fixture
may carry `// lint-fixture-path: src/...` to be linted as if it lived at
that path (exercising path-scoped rules).  `ctest -R lint` runs both the
tree scan and the corpus.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NAME_RE = re.compile(r"^[a-z0-9_.]*$")  # matches check_metrics.py (segments)

# --------------------------------------------------------------------------
# Layering model.  A file maps to the first module whose prefix matches its
# repo-relative path; a module may include itself and its `allowed` set.
# File-granular entries split src/io/: the *container* layer (checkpoint,
# binary trace — pure byte formats) sits below stats so every component can
# serialize, and must never grow an engine dependency; the *sinks*
# (pipeline) sit above core.  A new src/io/ file defaults to the container
# module — the strictest set — so growing io requires a conscious edit here.
# --------------------------------------------------------------------------
MODULES = [
    # (module, path prefixes, allowed modules)
    ("io.sink", ("src/io/pipeline",),
     {"io.container", "io.trace", "core", "sim", "obs", "net", "stats",
      "linalg", "util"}),
    ("io.script", ("src/io/scenario_io",),
     {"io.container", "scenario.spec", "util"}),
    ("io.trace", ("src/io/trace_io",),
     {"io.container", "net", "stats", "linalg", "util"}),
    ("io.container", ("src/io/",), {"util"}),
    ("scenario.spec", ("src/scenario/spec.",), {"util"}),
    ("scenario", ("src/scenario/",),
     {"core", "io.container", "io.script", "io.trace", "sim", "stats",
      "topology", "obs", "net", "linalg", "util", "scenario.spec"}),
    ("delay", ("src/delay/",), {"core", "stats", "linalg", "net", "util"}),
    ("baselines", ("src/baselines/",), {"linalg", "net", "util"}),
    ("core", ("src/core/",),
     {"linalg", "stats", "net", "obs", "io.container", "util"}),
    ("topology", ("src/topology/",), {"net", "stats", "linalg", "util"}),
    ("sim", ("src/sim/",),
     {"net", "stats", "linalg", "io.container", "util"}),
    ("stats", ("src/stats/",), {"linalg", "io.container", "util"}),
    ("net", ("src/net/",), {"linalg", "util"}),
    ("obs", ("src/obs/",), {"util"}),
    ("linalg", ("src/linalg/",), {"util"}),
    ("util", ("src/util/",), set()),
]

TAG_REGISTRY = "src/io/checkpoint_tags.hpp"
RNG_HOME = ("src/stats/rng.hpp", "src/stats/rng.cpp")
JSON_HOME = ("src/util/json.hpp", "src/util/json.cpp")

RULES = (
    "nondet-order", "rng-discipline", "hot-path-parsing", "layering",
    "checkpoint-symmetry", "unsafe-bytes", "metric-naming",
)

ANNOT_RE = re.compile(
    r"lint:\s*([a-z-]+?)-ok(-file)?\(", re.MULTILINE)
FIXTURE_PATH_RE = re.compile(r"lint-fixture-path:\s*(\S+)")


class Finding:
    def __init__(self, path, lineno, rule, message):
        self.path, self.lineno, self.rule, self.message = (
            path, lineno, rule, message)

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexing: split each line into code and comment text without being fooled
# by string/char literals (or by '//' inside a string).  Annotations are
# read from comment text; rules match against code text — except the rules
# that inspect string literals (tags, metric names), which use raw code
# lines with comments removed but literals kept.
# --------------------------------------------------------------------------
def split_code_comments(text):
    """Returns (code_lines, comment_lines), same line count as text."""
    code, comments = [], []
    cur_code, cur_comment = [], []
    state = "code"  # code | line_comment | block_comment | string | char
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            cur_code.append(c)
        elif state in ("string", "char"):
            cur_code.append(c)
            if c == "\\":
                if nxt and nxt != "\n":
                    cur_code.append(nxt)
                    i += 2
                    continue
            elif (c == '"' and state == "string") or (
                    c == "'" and state == "char"):
                state = "code"
        elif state == "line_comment":
            cur_comment.append(c)
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            cur_comment.append(c)
        i += 1
    code.append("".join(cur_code))
    comments.append("".join(cur_comment))
    return code, comments


class SourceFile:
    """A parsed file: code/comment split plus the annotation index."""

    def __init__(self, path, text, lint_path=None):
        self.path = path            # path on disk (for reporting)
        self.lint_path = lint_path or path  # path the rules see
        self.text = text
        self.code, self.comments = split_code_comments(text)
        self.file_waivers = {}      # rule -> (lineno, reason)
        self.line_waivers = {}      # lineno -> {rule: reason}
        self.bad_annotations = []   # Finding
        self._index_annotations()

    def _index_annotations(self):
        for lineno, comment in enumerate(self.comments, 1):
            for m in ANNOT_RE.finditer(comment):
                rule, is_file = m.group(1), bool(m.group(2))
                reason = self._reason_after(lineno, comment, m.end())
                if rule not in RULES:
                    self.bad_annotations.append(Finding(
                        self.path, lineno, "annotation",
                        f"unknown rule {rule!r} in lint annotation"))
                    continue
                if not reason.strip():
                    self.bad_annotations.append(Finding(
                        self.path, lineno, "annotation",
                        f"lint annotation for {rule!r} carries no reason"))
                    continue
                if is_file:
                    self.file_waivers[rule] = (lineno, reason.strip())
                else:
                    self.line_waivers.setdefault(lineno, {})[rule] = (
                        reason.strip())

    def _reason_after(self, lineno, comment, start):
        """Reason text between the annotation's parens; may continue over
        the following contiguous comment lines."""
        buf, depth = [], 1
        text = comment[start:]
        line = lineno
        while True:
            for ch in text:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        return "".join(buf)
                buf.append(ch)
            line += 1
            if line > len(self.comments) or not self.comments[line - 1]:
                return "".join(buf)  # unterminated: treated as the reason
            buf.append(" ")
            text = self.comments[line - 1]

    def waived(self, rule, lineno):
        if rule in self.file_waivers:
            return True
        if rule in self.line_waivers.get(lineno, {}):
            return True
        # Climb through earlier lines of the same statement (a finding may
        # anchor to a continuation line) and then through the contiguous
        # comment block directly above it.
        probe = lineno - 1
        while probe >= 1:
            if rule in self.line_waivers.get(probe, {}):
                return True
            code = self.code[probe - 1].strip()
            if not code and self.comments[probe - 1]:
                probe -= 1  # comment-only line
            elif code and not code.endswith((";", "{", "}")):
                probe -= 1  # continuation of the enclosing statement
            else:
                break
        return False


def emit(findings, src, rule, lineno, message):
    if not src.waived(rule, lineno):
        findings.append(Finding(src.path, lineno, rule, message))


# --------------------------------------------------------------------------
# Rule: nondet-order
# --------------------------------------------------------------------------
# A declaration like `std::unordered_map<K, std::vector<V>> name` — template
# argument lists up to two levels of nesting.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*"
    r"<(?:[^<>]|<(?:[^<>]|<[^<>]*>)*>)*>\s*&?\s*(\w+)\s*(?:[;={(,)]|$)")
UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:map|set)\b")


def check_nondet_order(src, findings):
    names = set()
    for line in src.code:
        for m in UNORDERED_DECL_RE.finditer(line):
            names.add(m.group(1))
    if not names:
        return
    alt = "|".join(re.escape(n) for n in sorted(names))
    iter_re = re.compile(
        r"(?::\s*(?P<range>" + alt + r")\s*\)"        # for (x : name)
        r"|\b(?P<begin>" + alt + r")\s*\.\s*c?begin\s*\()")
    for lineno, line in enumerate(src.code, 1):
        for m in iter_re.finditer(line):
            name = m.group("range") or m.group("begin")
            emit(findings, src, "nondet-order", lineno,
                 f"iteration over unordered container {name!r}: hash order "
                 f"feeds evaluation order; iterate a sorted copy or "
                 f"annotate why order cannot leak into results")


# --------------------------------------------------------------------------
# Rule: rng-discipline
# --------------------------------------------------------------------------
RNG_PATTERNS = (
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(nullptr)"),
)


def check_rng_discipline(src, findings):
    if src.lint_path in RNG_HOME:
        return
    for lineno, line in enumerate(src.code, 1):
        for pat, what in RNG_PATTERNS:
            if pat.search(line):
                emit(findings, src, "rng-discipline", lineno,
                     f"{what} outside stats::Rng: unseeded or ambient "
                     f"randomness breaks replay/checkpoint determinism — "
                     f"take a stats::Rng (fork() for substreams)")


# --------------------------------------------------------------------------
# Rule: hot-path-parsing (src/io/ + src/core/ only)
# --------------------------------------------------------------------------
PARSE_RE = re.compile(r"\bistringstream\b|\bsto(?:d|f|i|l|ul|ll|ull)\s*\(")


def check_hot_path_parsing(src, findings):
    if not src.lint_path.startswith(("src/io/", "src/core/")):
        return
    for lineno, line in enumerate(src.code, 1):
        if PARSE_RE.search(line):
            emit(findings, src, "hot-path-parsing", lineno,
                 "istringstream/sto* in an ingestion layer: locale-touching "
                 "per-line parsing regressed 31x vs from_chars (PR 7) — "
                 "use std::from_chars, or annotate a genuinely cold path")


# --------------------------------------------------------------------------
# Rule: layering
# --------------------------------------------------------------------------
INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


def module_of(path):
    for name, prefixes, _ in MODULES:
        if any(path.startswith(p) for p in prefixes):
            return name
    return None


def module_allowed(name):
    for mod, _, allowed in MODULES:
        if mod == name:
            return allowed
    return set()


def check_module_table():
    """The allowlist itself must be acyclic, or it proves nothing."""
    order, state = [], {}

    def visit(mod):
        if state.get(mod) == "done":
            return None
        if state.get(mod) == "visiting":
            return mod
        state[mod] = "visiting"
        for dep in sorted(module_allowed(mod)):
            cyc = visit(dep)
            if cyc:
                return cyc
        state[mod] = "done"
        order.append(mod)
        return None

    for mod, _, _ in MODULES:
        cyc = visit(mod)
        if cyc:
            return [Finding("tools/losstomo_lint.py", 1, "layering",
                            f"module table has a cycle through {cyc!r}")]
    return []


def check_layering(src, findings):
    if not src.lint_path.startswith("src/"):
        return
    mod = module_of(src.lint_path)
    if mod is None:
        emit(findings, src, "layering", 1,
             f"{src.lint_path} matches no module in the layering table "
             f"(tools/losstomo_lint.py MODULES) — add it")
        return
    allowed = module_allowed(mod)
    for lineno, line in enumerate(src.code, 1):
        m = INCLUDE_RE.search(line)
        if not m:
            continue
        target = module_of("src/" + m.group(1))
        if target is None:
            emit(findings, src, "layering", lineno,
                 f'include "{m.group(1)}" maps to no module in the '
                 f"layering table")
        elif target != mod and target not in allowed:
            emit(findings, src, "layering", lineno,
                 f"{mod} may not include {target} "
                 f'("{m.group(1)}"): the sanctioned order is util -> '
                 f"linalg -> stats -> core -> {{scenario, obs, io-sinks}}, "
                 f"io container code independent of the engine")


# --------------------------------------------------------------------------
# Rule: checkpoint-symmetry
# --------------------------------------------------------------------------
SECTION_LITERAL_RE = re.compile(
    r"\b(?:begin_section|expect_section)\s*\(\s*\"")
CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+(\w+)[^;]*$")
SAVE_RE = re.compile(r"\bsave_state\s*\(")
RESTORE_RE = re.compile(r"\brestore_state\s*\(")
TAG_DECL_RE = re.compile(r"\bconstexpr\s+char\s+(\w+)\[\]\s*=\s*\"([^\"]*)\"")


def check_checkpoint_symmetry(src, findings):
    if not src.lint_path.startswith("src/"):
        return
    if src.lint_path == TAG_REGISTRY:
        seen = {}
        for lineno, line in enumerate(src.code, 1):
            for m in TAG_DECL_RE.finditer(line):
                name, tag = m.group(1), m.group(2)
                if len(tag) != 4:
                    emit(findings, src, "checkpoint-symmetry", lineno,
                         f"section tag {name} = {tag!r} is not exactly "
                         f"four characters")
                if tag in seen:
                    emit(findings, src, "checkpoint-symmetry", lineno,
                         f"section tag {tag!r} declared twice ({seen[tag]} "
                         f"and {name}): tags must be unique or a reordered "
                         f"image parses as the wrong section")
                seen[tag] = name
        return
    # Raw tag literals at call sites.
    for lineno, line in enumerate(src.code, 1):
        if SECTION_LITERAL_RE.search(line):
            emit(findings, src, "checkpoint-symmetry", lineno,
                 "raw string tag passed to begin/expect_section: declare "
                 "the tag once in io/checkpoint_tags.hpp and reference the "
                 "constant")
    # save_state/restore_state pairing, per class (headers declare the API).
    if not src.lint_path.endswith((".hpp", ".h")):
        return
    current, decls = "<file scope>", {}
    first_line = {}
    for lineno, line in enumerate(src.code, 1):
        cm = CLASS_RE.match(line)
        if cm:
            current = cm.group(1)
        has_save = bool(SAVE_RE.search(line))
        has_restore = bool(RESTORE_RE.search(line))
        if has_save or has_restore:
            entry = decls.setdefault(current, set())
            if has_save:
                entry.add("save")
            if has_restore:
                entry.add("restore")
            first_line.setdefault(current, lineno)
    for cls, kinds in decls.items():
        if kinds == {"save"}:
            emit(findings, src, "checkpoint-symmetry", first_line[cls],
                 f"{cls} declares save_state without restore_state: "
                 f"asymmetric checkpoint surface (the PR 8 store-order bug "
                 f"was exactly this shape)")
        elif kinds == {"restore"}:
            emit(findings, src, "checkpoint-symmetry", first_line[cls],
                 f"{cls} declares restore_state without save_state")


# --------------------------------------------------------------------------
# Rule: unsafe-bytes
# --------------------------------------------------------------------------
ESCAPED_QUOTE_RE = re.compile(r'"(?:[^"\\]|\\.)*\\"(?:[^"\\]|\\.)*"')


def check_unsafe_bytes(src, findings):
    if not src.lint_path.startswith("src/"):
        return
    in_io = src.lint_path.startswith("src/io/")
    in_json_home = src.lint_path in JSON_HOME
    for lineno, line in enumerate(src.code, 1):
        if not in_io and "reinterpret_cast" in line:
            emit(findings, src, "unsafe-bytes", lineno,
                 "reinterpret_cast outside src/io/: byte-level aliasing "
                 "belongs in the container layer where alignment and "
                 "endianness are audited")
        if not in_json_home and ESCAPED_QUOTE_RE.search(line):
            emit(findings, src, "unsafe-bytes", lineno,
                 "hand-rolled JSON quoting (escaped-quote literal): emit "
                 "through util::json so escaping and non-finite handling "
                 "stay correct in one place")


# --------------------------------------------------------------------------
# Rule: metric-naming
# --------------------------------------------------------------------------
REGISTER_RE = re.compile(r"\b(counter|gauge|histogram)\s*\(\s*\"")
WALLCLOCK_NAME_RE = re.compile(r"seconds|_time\b|stall|load|elapsed")


def registration_span(src, lineno):
    """The registration call text: from the call line to the line closing
    its parens (registrations are short; cap at 4 lines)."""
    buf = []
    depth = None
    for off in range(4):
        idx = lineno - 1 + off
        if idx >= len(src.code):
            break
        line = src.code[idx]
        buf.append(line)
        if depth is None:
            m = REGISTER_RE.search(line)
            depth = 0
            line = line[m.start():]
            buf[-1] = line
        depth += line.count("(") - line.count(")")
        if depth <= 0:
            break
    return "\n".join(buf)


def check_metric_naming(src, findings):
    if not src.lint_path.startswith("src/"):
        return
    if src.lint_path.startswith("src/obs/"):
        return  # the registry implementation itself
    for lineno, line in enumerate(src.code, 1):
        m = REGISTER_RE.search(line)
        if not m:
            continue
        span = registration_span(src, lineno)
        kind = m.group(1)
        literals = re.findall(r'"([^"]*)"', span)
        for lit in literals:
            if not NAME_RE.match(lit):
                emit(findings, src, "metric-naming", lineno,
                     f"metric name segment {lit!r} does not match "
                     f"{NAME_RE.pattern} (check_metrics.py rejects the "
                     f"export)")
        name = "".join(literals)
        if "kDeterministic" in span:
            if kind == "histogram":
                emit(findings, src, "metric-naming", lineno,
                     "histogram registered kDeterministic: histograms "
                     "record wall-clock observations and can never be "
                     "bit-identical across thread counts")
            elif WALLCLOCK_NAME_RE.search(name):
                emit(findings, src, "metric-naming", lineno,
                     f"metric {name!r} looks timer-derived but is tagged "
                     f"kDeterministic: deterministic metrics must publish "
                     f"from serialized engine state (Counter::set), never "
                     f"from timers")


CHECKS = (
    check_nondet_order,
    check_rng_discipline,
    check_hot_path_parsing,
    check_layering,
    check_checkpoint_symmetry,
    check_unsafe_bytes,
    check_metric_naming,
)


def lint_file(path_on_disk, rel, findings, lint_path=None):
    with open(path_on_disk, encoding="utf-8") as f:
        text = f.read()
    src = SourceFile(rel, text, lint_path=lint_path)
    findings.extend(src.bad_annotations)
    for check in CHECKS:
        check(src, findings)
    return src


def cpp_files(roots):
    out = []
    for root in roots:
        top = os.path.join(REPO, root)
        if os.path.isfile(top):
            out.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "fixtures")
            for fn in sorted(filenames):
                if fn.endswith((".cpp", ".hpp", ".h", ".cc")):
                    out.append(os.path.relpath(
                        os.path.join(dirpath, fn), REPO))
    return sorted(out)


def run_tree(roots):
    findings = list(check_module_table())
    count, annotations = 0, 0
    for rel in cpp_files(roots):
        src = lint_file(os.path.join(REPO, rel), rel, findings)
        count += 1
        annotations += len(src.file_waivers) + sum(
            len(v) for v in src.line_waivers.values())
    if findings:
        for f in findings:
            print(f)
        print(f"\nlosstomo_lint: {len(findings)} problem(s) in {count} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"losstomo_lint: {count} files, {annotations} annotation(s) — OK")
    return 0


def run_fixtures(fixture_dir):
    full = os.path.join(REPO, fixture_dir)
    names = sorted(fn for fn in os.listdir(full) if fn.endswith(".cpp"))
    if not names:
        print(f"losstomo_lint: no fixtures under {fixture_dir}",
              file=sys.stderr)
        return 1
    errors, covered = [], set()
    for fn in names:
        m = re.match(r"([a-z_]+)_(bad|ok)_", fn)
        if not m:
            errors.append(f"{fn}: fixture name must be "
                          f"<rule>_bad_*.cpp or <rule>_ok_*.cpp")
            continue
        rule, kind = m.group(1).replace("_", "-"), m.group(2)
        if rule not in RULES:
            errors.append(f"{fn}: unknown rule {rule!r}")
            continue
        path = os.path.join(full, fn)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        pm = FIXTURE_PATH_RE.search(text)
        lint_path = pm.group(1) if pm else os.path.join(fixture_dir, fn)
        findings = []
        lint_file(path, os.path.join(fixture_dir, fn), findings,
                  lint_path=lint_path)
        hits = [f for f in findings if f.rule == rule]
        others = [f for f in findings if f.rule != rule]
        if others:
            errors.extend(f"{fn}: unexpected [{f.rule}] finding: "
                          f"{f.message}" for f in others)
        if kind == "bad" and not hits:
            errors.append(f"{fn}: expected a [{rule}] finding, got none — "
                          f"the rule no longer catches its fixture")
        if kind == "ok" and hits:
            errors.extend(f"{fn}: annotated fixture still flagged: "
                          f"{f.message}" for f in hits)
        covered.add((rule, kind))
    for rule in RULES:
        for kind in ("bad", "ok"):
            if (rule, kind) not in covered:
                errors.append(f"fixture corpus is missing a {kind} fixture "
                              f"for rule {rule!r}")
    if errors:
        print("\n".join(errors))
        print(f"\nlosstomo_lint --fixtures: {len(errors)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"losstomo_lint --fixtures: {len(names)} fixtures, "
          f"{len(RULES)} rules pinned — OK")
    return 0


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        print("\n".join(RULES))
        return 0
    if "--fixtures" in args:
        args.remove("--fixtures")
        return run_fixtures(args[0] if args else "tests/lint/fixtures")
    return run_tree(args or ["src", "tests"])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
