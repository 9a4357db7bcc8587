#!/usr/bin/env python3
"""tshmem_lint: OpenSHMEM-specific lint rules for the TSHMEM tree.

A small static front-end that complements the dynamic tshmem-check race
detector (src/analysis/, docs/ANALYSIS.md). It enforces repo invariants
that generic tooling (clang-tidy, TSan) cannot express:

  R001 raw-blocking-wait    A blocking wait outside sim/guarded_wait.hpp:
                            a std::condition_variable wait, any
                            std::barrier (or arrive_and_wait), a std::latch
                            wait, or a std::atomic wait. Every blocking
                            wait must go through guarded_wait() so the
                            Watchdog can bound it.
  R002 unbounded-spin       std::this_thread::yield / sleep_for spin loop
                            outside sim/guarded_wait.hpp. Same invariant:
                            guarded_spin() is the only sanctioned spin.
  R003 nbi-without-quiet    A function body issues shmem_*_nbi but never
                            reaches a quiet/barrier before returning, so
                            the source buffer may be reused while the DMA
                            engine still reads it. Functions whose own name
                            contains "nbi" are exempt (they deliberately
                            export the non-blocking contract to callers).
  R004 non-symmetric-arg    An address-of-a-local expression (&local) is
                            passed as a remote/symmetric argument of a
                            shmem_* call. Remote addresses must point into
                            the symmetric heap (shmalloc) or static arena.
  R005 raw-obs-mutation     Direct MetricsRegistry mutation (.counter() /
                            .gauge() / .histogram()) or direct ProfileSink
                            callback invocation (->on_span_begin() etc.)
                            outside src/obs/ and sim/profile_hook.hpp.
                            Instrumentation must go through the obs helpers
                            (obs::add_count, obs::counter_handle, ...,
                            tilesim::ProfSpan, tilesim::prof_wait_edge) so
                            every mutation site stays auditable and the
                            profiler's never-advances-a-clock contract has
                            a single enforcement surface.

  R006 raw-flight-mutation  Direct flight-recorder / time-series mutation
                            (.record_event() / .series_add() /
                            .series_sample() / .fold_epoch() / .on_event())
                            outside src/obs/ and sim/flight_hook.hpp.
                            Instrumentation must go through obs::fr_record,
                            obs::ts_add, obs::ts_sample, or
                            tilesim::flight_event so the recorder's
                            zero-virtual-cost contract (docs/OBSERVABILITY.md)
                            has a single enforcement surface.

Suppress a finding with a trailing comment on the offending line:
    do_thing();  // tshmem-lint: allow(R003)

Usage:  tools/tshmem_lint.py [PATHS...]       (default: src bench tests)
        tools/tshmem_lint.py --self-test      (rule regression check)
Exit status: 0 = clean, 1 = findings, 2 = usage error.

Only the Python standard library is used.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass

CXX_EXTS = {".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h"}

# The one file allowed to contain raw blocking primitives: it implements
# the watchdog-bounded wrappers everything else must use.
GUARDED_WAIT_FILE = os.path.join("sim", "guarded_wait.hpp")

ALLOW_RE = re.compile(r"//\s*tshmem-lint:\s*allow\(([A-Z0-9, ]+)\)")


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_strings_and_comments(line: str) -> str:
    """Crude but adequate: blank out string/char literals and // comments so
    rule regexes do not fire on text inside them. Block comments spanning
    lines are handled by the caller."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in ('"', "'"):
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def allowed_rules(raw_line: str) -> set[str]:
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",") if r.strip()}


class FileScanner:
    """Per-file scanner. Loads the file once, pre-strips comments, and runs
    every rule over the cleaned lines."""

    def __init__(self, path: str, display_path: str):
        self.path = path
        self.display = display_path
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw_lines = f.read().splitlines()
        self.lines = self._clean(self.raw_lines)
        self.findings: list[Finding] = []

    @staticmethod
    def _clean(raw: list[str]) -> list[str]:
        cleaned = []
        in_block = False
        for line in raw:
            buf = []
            i, n = 0, len(line)
            while i < n:
                if in_block:
                    end = line.find("*/", i)
                    if end < 0:
                        i = n
                    else:
                        in_block = False
                        i = end + 2
                    continue
                if line.startswith("/*", i):
                    in_block = True
                    i += 2
                    continue
                if line.startswith("//", i):
                    break
                buf.append(line[i])
                i += 1
            cleaned.append(strip_strings_and_comments("".join(buf)))
        return cleaned

    def report(self, rule: str, lineno: int, message: str) -> None:
        if rule in allowed_rules(self.raw_lines[lineno - 1]):
            return
        self.findings.append(Finding(rule, self.display, lineno, message))

    # --- R001 / R002: blocking primitives outside guarded_wait.hpp ---------

    R001_RE = re.compile(r"\.\s*wait(_for|_until)?\s*\(")
    R001_DECL_RE = re.compile(r"condition_variable")
    # std::barrier has no wait that a watchdog could bound, so any use of
    # the type is a blocking site; so is arrive_and_wait on anything.
    R001_BARRIER_RE = re.compile(r"\bstd::barrier\b|\barrive_and_wait\s*\(")
    # Variables declared as a std::latch or std::atomic: their .wait() is
    # a blocking wait. The free-function atomic waits block the same way.
    R001_WAITABLE_DECL_RE = re.compile(
        r"\bstd::(?:latch|atomic_flag|atomic\s*<[^;(){}]*>)[\s&*]*"
        r"([A-Za-z_]\w*)"
    )
    R001_ATOMIC_FREE_WAIT_RE = re.compile(
        r"\batomic(?:_flag)?_wait(?:_explicit)?\s*\("
    )
    R002_RE = re.compile(r"this_thread::(yield|sleep_for|sleep_until)\s*\(")

    def rule_guarded_wait(self) -> None:
        if self.display.replace(os.sep, "/").endswith(
            GUARDED_WAIT_FILE.replace(os.sep, "/")
        ):
            return
        uses_condvar = any(self.R001_DECL_RE.search(l) for l in self.lines)
        waitables = {
            m.group(1)
            for l in self.lines
            for m in self.R001_WAITABLE_DECL_RE.finditer(l)
        }
        waitable_re = (
            re.compile(
                r"\b(?:" + "|".join(sorted(map(re.escape, waitables))) +
                r")\s*(?:\.|->)\s*wait\s*\("
            )
            if waitables else None
        )
        for i, line in enumerate(self.lines, 1):
            if uses_condvar and self.R001_RE.search(line) and (
                "cv" in line or "cond" in line or "condition_variable" in line
            ):
                self.report(
                    "R001", i,
                    "raw condition-variable wait; use tilesim::guarded_wait() "
                    "(sim/guarded_wait.hpp) so the Watchdog bounds it",
                )
            elif self.R001_BARRIER_RE.search(line) or (
                waitable_re is not None and waitable_re.search(line)
            ) or self.R001_ATOMIC_FREE_WAIT_RE.search(line):
                self.report(
                    "R001", i,
                    "raw barrier/latch/atomic wait; use "
                    "tilesim::guarded_wait() (sim/guarded_wait.hpp) so the "
                    "Watchdog bounds it",
                )
            if self.R002_RE.search(line):
                self.report(
                    "R002", i,
                    "raw yield/sleep spin; use tilesim::guarded_spin() "
                    "(sim/guarded_wait.hpp) so the Watchdog bounds it",
                )

    # --- R003: put_nbi with no reachable quiet in the same function --------

    FUNC_RE = re.compile(
        r"^[^\s#][^=;]*?\b([A-Za-z_][A-Za-z0-9_]*)\s*\([^;]*\)\s*"
        r"(const\s*)?(noexcept\s*)?(->\s*[\w:<>&*\s]+)?\s*\{?\s*$"
    )
    NBI_RE = re.compile(r"\bshmem_[a-z0-9_]*_nbi\s*\(")
    QUIET_RE = re.compile(
        r"\b(shmem_quiet|shmem_fence|quiet|fence|shmem_barrier_all|"
        r"shmem_barrier|barrier_all)\s*\("
    )

    def rule_nbi_quiet(self) -> None:
        """Tracks brace depth to segment the file into top-level function
        bodies; within each body, an _nbi call not followed by a reachable
        quiet/fence/barrier before the body closes is flagged."""
        depth = 0
        func_name = None
        func_start_depth = 0
        pending_nbi: list[int] = []  # line numbers of unquieted _nbi calls

        for i, line in enumerate(self.lines, 1):
            if depth == 0 and func_name is None:
                m = self.FUNC_RE.match(line)
                if m and ("{" in line or (i < len(self.lines)
                                          and self.lines[i].lstrip()
                                          .startswith("{"))):
                    name = m.group(1)
                    if name not in ("if", "for", "while", "switch", "return",
                                    "catch", "sizeof", "static_assert"):
                        func_name = name
                        func_start_depth = depth
                        pending_nbi = []

            if func_name is not None:
                if self.NBI_RE.search(line):
                    pending_nbi.append(i)
                if self.QUIET_RE.search(line):
                    pending_nbi = []

            depth += line.count("{") - line.count("}")

            if func_name is not None and depth <= func_start_depth and (
                "}" in line
            ):
                if "nbi" not in func_name.lower():
                    for ln in pending_nbi:
                        self.report(
                            "R003", ln,
                            f"non-blocking put/get in '{func_name}' with no "
                            "reachable shmem_quiet()/fence/barrier before the "
                            "function returns; the buffer may be reused while "
                            "the transfer is in flight",
                        )
                func_name = None
                pending_nbi = []

    # --- R004: &local passed to a shmem_* remote argument ------------------

    SHMEM_CALL_RE = re.compile(r"\bshmem_[a-z0-9_]+\s*\(")
    ADDR_LOCAL_RE = re.compile(r"[(,]\s*&\s*([a-z_][A-Za-z0-9_]*)\b")
    # Remote-address-taking calls where the FIRST pointer argument must be
    # symmetric. (shmem_*_nbi, put/get, atomics, wait, locks.)
    SYMMETRIC_FIRST_ARG = re.compile(
        r"\bshmem_(put|get|p\b|g\b|putmem|getmem|[a-z0-9_]*_(put|get)"
        r"|swap|cswap|fadd|finc|add|inc|wait_until|set_lock|clear_lock"
        r"|test_lock)[a-z0-9_]*\s*\(\s*&\s*([a-z_][A-Za-z0-9_]*)\b"
    )

    def rule_non_symmetric(self) -> None:
        # Collect local (stack) variable declarations per brace scope, very
        # approximately: `type name` / `type name = ...;` lines inside
        # function bodies, excluding pointers initialized from shmalloc.
        local_decl = re.compile(
            r"^\s*(?:const\s+)?(?:unsigned\s+|signed\s+)?"
            r"(?:int|long|short|char|float|double|bool|std::uint\d+_t|"
            r"std::int\d+_t|std::size_t|size_t|uint\d+_t|int\d+_t)\s+"
            r"([a-z_][A-Za-z0-9_]*)\s*(=[^;]*)?;"
        )
        locals_seen: set[str] = set()
        for line in self.lines:
            m = local_decl.match(line)
            if m and "shmalloc" not in (m.group(2) or ""):
                locals_seen.add(m.group(1))
        for i, line in enumerate(self.lines, 1):
            m = self.SYMMETRIC_FIRST_ARG.search(line)
            if not m:
                continue
            var = m.group(m.lastindex)
            if var in locals_seen:
                self.report(
                    "R004", i,
                    f"'&{var}' (address of a local) passed as the symmetric "
                    "address of a shmem_* call; remote addresses must come "
                    "from shmalloc() or the static arena",
                )

    # --- R005: raw metrics/profiler mutation outside the obs helpers ------

    # Registry mutators. Matched only on lines that look like registry use
    # (`reg.counter(...)`, `registry_->gauge(...)`); the obs:: helper names
    # (counter_handle, add_count, ...) deliberately do not match.
    R005_METRICS_RE = re.compile(
        r"(\.|->)\s*(counter|gauge|histogram)\s*\("
    )
    # Direct ProfileSink callback invocation; only the profiler plumbing
    # (src/obs/, sim/profile_hook.hpp, sim/device.cpp's reset fan-out) may
    # call these — everything else uses ProfSpan / prof_wait_edge.
    R005_PROFILER_RE = re.compile(
        r"(\.|->)\s*on_(span_begin|span_end|wait_edge|clock_reset)\s*\("
    )
    R005_EXEMPT = ("src/obs/", "sim/profile_hook.hpp", "tests/")

    def rule_raw_obs_mutation(self) -> None:
        path = self.display.replace(os.sep, "/")
        if any(e in path for e in self.R005_EXEMPT):
            return
        for i, line in enumerate(self.lines, 1):
            if self.R005_METRICS_RE.search(line):
                self.report(
                    "R005", i,
                    "direct MetricsRegistry mutation; use the obs:: helpers "
                    "(obs::add_count / obs::set_level / obs::record_sample / "
                    "obs::counter_handle, src/obs/metrics.hpp) so "
                    "instrumentation sites stay auditable",
                )
            if self.R005_PROFILER_RE.search(line):
                self.report(
                    "R005", i,
                    "direct ProfileSink callback call; use tilesim::ProfSpan "
                    "/ tilesim::prof_wait_edge (sim/profile_hook.hpp) so the "
                    "profiler's no-clock-advance contract has one "
                    "enforcement surface",
                )

    # --- R006: raw flight-recorder / time-series mutation ------------------

    # Ring/window mutators and the FlightSink callback. The sanctioned
    # spellings (obs::fr_record, obs::ts_add, obs::ts_sample,
    # tilesim::flight_event) are free functions and do not match.
    R006_RE = re.compile(
        r"(\.|->)\s*(record_event|series_add_window|series_add"
        r"|series_sample|fold_epoch|set_flush_hook"
        r"|on_event)\s*\("
    )
    R006_EXEMPT = ("src/obs/", "sim/flight_hook.hpp", "tests/")

    def rule_raw_flight_mutation(self) -> None:
        path = self.display.replace(os.sep, "/")
        if any(e in path for e in self.R006_EXEMPT):
            return
        for i, line in enumerate(self.lines, 1):
            if self.R006_RE.search(line):
                self.report(
                    "R006", i,
                    "direct flight-recorder/time-series mutation; use "
                    "obs::fr_record / obs::ts_add / obs::ts_sample "
                    "(src/obs/flightrec.hpp, src/obs/timeseries.hpp) or "
                    "tilesim::flight_event (sim/flight_hook.hpp) so the "
                    "recorder's zero-virtual-cost contract has one "
                    "enforcement surface",
                )

    def scan(self) -> list[Finding]:
        self.rule_guarded_wait()
        self.rule_nbi_quiet()
        self.rule_non_symmetric()
        self.rule_raw_obs_mutation()
        self.rule_raw_flight_mutation()
        return self.findings


def iter_sources(paths: list[str]) -> list[tuple[str, str]]:
    out = []
    for root in paths:
        if os.path.isfile(root):
            if os.path.splitext(root)[1] in CXX_EXTS:
                out.append((root, root))
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in CXX_EXTS:
                    full = os.path.join(dirpath, fn)
                    out.append((full, os.path.relpath(full)))
    return sorted(out, key=lambda t: t[1])


def self_test() -> int:
    """Rule regression check: scans synthetic sources from a temp tree and
    asserts each rule fires where expected and honors its suppression."""
    import tempfile

    cases = {
        # (filename, source, expected rule hits as {rule: count})
        "src/tshmem/r001_barrier.cpp": (
            "std::barrier<> gate(2);\n"                      # R001
            "void f() { gate.arrive_and_wait(); }\n"         # R001
            "void g(Other& o) { o.arrive_and_wait(); }\n"    # R001
            "#include <barrier>\n",                          # no type use
            {"R001": 3},
        ),
        "src/tshmem/r001_latch.cpp": (
            "void f(int n) {\n"
            "  std::latch done(n);\n"
            "  done.count_down();\n"
            "  done.wait();\n"                               # R001
            "  done.wait();  // tshmem-lint: allow(R001)\n"  # allowed
            "  ctx.wait(flag, 0L);\n"                        # not a latch
            "}\n",
            {"R001": 1},
        ),
        "src/tshmem/r001_atomic.cpp": (
            "std::atomic<std::uint64_t> epoch{0};\n"
            "std::atomic_flag ready;\n"
            "void f(Slot* s) {\n"
            "  epoch.wait(0, std::memory_order_acquire);\n"  # R001
            "  ready.wait(false);\n"                         # R001
            "  std::atomic_wait(&epoch, 0);\n"               # R001
            "  epoch.notify_one();\n"
            "  barrier.wait(tile);\n"                        # not atomic
            "}\n",
            {"R001": 3},
        ),
        # The guarded wrappers themselves are exempt.
        "src/sim/guarded_wait.hpp": (
            "std::latch gate(1);\n"
            "void f() { gate.wait(); }\n",
            {},
        ),
        "src/tshmem/r006_case.cpp": (
            "void f(obs::FlightRecorder* fr, obs::TimeSeries* ts) {\n"
            "  fr->record_event(0, k, \"s\", 1);\n"           # R006
            "  ts->series_add(\"n\", 1, 1);\n"                # R006
            "  ts->series_sample(\"n\", 1, 2);\n"             # R006
            "  ts->fold_epoch(5);  // tshmem-lint: allow(R006)\n"  # allowed
            "  obs::fr_record(fr, 0, k, \"s\", 1);\n"         # sanctioned
            "  obs::ts_add(ts, \"n\", 1);\n"                  # sanctioned
            "}\n",
            {"R006": 3},
        ),
        # The obs implementation itself is exempt.
        "src/obs/r006_exempt.cpp": (
            "void g(obs::TimeSeries* ts) { ts->series_add(\"n\", 1, 1); }\n",
            {},
        ),
        "src/tshmem/r005_case.cpp": (
            "void h(obs::MetricsRegistry& reg) {\n"
            "  reg.counter(\"x\", 0);\n"                      # R005
            "}\n",
            {"R005": 1},
        ),
    }
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for rel, (source, expected) in cases.items():
            full = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(source)
            findings = FileScanner(full, rel).scan()
            got: dict[str, int] = {}
            for finding in findings:
                got[finding.rule] = got.get(finding.rule, 0) + 1
            if got != expected:
                failures.append(f"{rel}: expected {expected}, got {got}")
    for msg in failures:
        print(f"tshmem_lint self-test FAIL: {msg}", file=sys.stderr)
    if not failures:
        print(f"tshmem_lint self-test: {len(cases)} case(s) OK",
              file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if argv[1:] == ["--self-test"]:
        return self_test()
    paths = argv[1:] or ["src", "bench", "tests"]
    for p in paths:
        if not os.path.exists(p):
            print(f"tshmem_lint: no such path: {p}", file=sys.stderr)
            return 2
    findings: list[Finding] = []
    nfiles = 0
    for full, display in iter_sources(paths):
        nfiles += 1
        findings.extend(FileScanner(full, display).scan())
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f.render())
    print(
        f"tshmem_lint: {nfiles} file(s), {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
