#!/usr/bin/env python3
"""Repo-local concurrency lint — the cheap, compiler-independent half of
the static-analysis gate (the expensive half is clang's -Wthread-safety,
which needs clang and runs in CI).

Rules 1-5 are enforced over src/, rule 6 over the README:

  1. Every method whose name ends in `_locked` must carry an
     HGDB_REQUIRES annotation on its declaration. The suffix is the
     human-facing convention; the annotation is what the analysis
     actually checks — this rule keeps the two from drifting apart.

  2. No raw `std::mutex` / `std::lock_guard` / `std::unique_lock` /
     `std::scoped_lock` (or a bare `#include <mutex>`) outside
     src/common/checked_mutex.h. Raw mutexes are invisible to both the
     thread-safety analysis and the rank checker.

  3. No HGDB_NO_THREAD_SAFETY_ANALYSIS under src/runtime or src/session.
     Those trees are the zero-suppression core; escapes belong in the
     leaf layers, with a comment, or nowhere.

  4. No `hgdb-analyze: suppress(...)` waivers under src/session or
     src/rpc — the analyzer suppression budget there is zero. A finding
     in those trees gets fixed or becomes a reviewed model.json
     contract, never a per-line waiver.

  5. Every metric-name literal registered via `.counter("...")` /
     `.histogram("...")` / `.gauge("...")` must appear in the README
     metric catalogue (delegated to the hgdb-analyze exhaustiveness
     checker, so the lint and the analyzer can never disagree).

  6. Every bold `**~Nx**` speedup in the README's Fig. 5 table (rows
     whose scenario is `hot` or `quiet`) must lie within 30% of that
     scenario's `condition_eval.<scenario>.speedup` in
     bench/baselines/BENCH_fig5.json, and both scenarios must carry one.
     Likewise for bench/baselines/BENCH_waveform.json: every "~Nx
     smaller than `delta`" RLE claim must lie within 30% of
     `gates.rle_clock_compression` (and one must exist), and the gated
     ratios the waveform "Benchmark" paragraph lists after "gated
     ratio:" must be exactly the keys of the baseline's `gates`. A
     performance claim in the README traces to a committed baseline,
     not to a machine nobody can rerun, and a retracted gate is not
     advertised.

Exit status 0 when clean; 1 with one `file:line: message` per violation
otherwise. Run from the repo root: `python3 tools/lint.py`.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# The only file allowed to spell std::mutex: it wraps it.
RAW_MUTEX_ALLOWED = {SRC / "common" / "checked_mutex.h"}

# Trees where suppression escapes are banned outright.
NO_SUPPRESSION_TREES = (SRC / "runtime", SRC / "session")

# Trees where the hgdb-analyze suppression budget is zero: findings get
# fixed or promoted to model.json contracts, never waived per-line.
ANALYZE_ZERO_BUDGET_TREES = (SRC / "session", SRC / "rpc")

# Rule 6: README Fig. 5 speedups against the committed baseline.
README = REPO_ROOT / "README.md"
FIG5_BASELINE = REPO_ROOT / "bench" / "baselines" / "BENCH_fig5.json"
FIG5_SCENARIOS = ("hot", "quiet")
FIG5_MAX_DRIFT = 0.30
FIG5_ROW_RE = re.compile(
    r"^\|\s*(hot|quiet)\b[^|]*\|.*\*\*~([0-9]+(?:\.[0-9]+)?)x\*\*"
)

# Rule 6, waveform half: README claims against BENCH_waveform.json.
WAVEFORM_BASELINE = REPO_ROOT / "bench" / "baselines" / "BENCH_waveform.json"
RLE_CLAIM_RE = re.compile(r"~([0-9]+(?:\.[0-9]+)?)x smaller than `delta`")
# The waveform "Benchmark" paragraph opens with the bench binary and lists
# its gates as backticked names after "gated ratio:", up to the full stop.
WAVEFORM_BENCH_PARAGRAPH = "`build/bench/waveform_index`"
GATED_LIST_RE = re.compile(r"gated ratio:\s*((?:`\w+`[\s,]*)+)\.")

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_INCLUDE_RE = re.compile(r'#\s*include\s*<(?:mutex|shared_mutex)>')
# A `_locked(` occurrence that looks like a declaration or definition
# (not a call site): return type or qualifier before the name.
LOCKED_DECL_RE = re.compile(
    r"^\s*(?:[\w:<>,&*\s]+?[&*\s])([a-zA-Z_]\w*_locked)\s*\("
)
SUPPRESS_RE = re.compile(r"\bHGDB_NO_THREAD_SAFETY_ANALYSIS\b")
ANALYZE_SUPPRESS_RE = re.compile(r"hgdb-analyze:\s*suppress\s*\(")


def strip_comments(line: str) -> str:
    """Drops // comments; good enough for the patterns we scan for."""
    return line.split("//", 1)[0]


def statement_after(lines: list[str], index: int) -> str:
    """Joins from `lines[index]` to the end of the statement (`;` or `{`)."""
    collected: list[str] = []
    for line in lines[index:index + 8]:
        code = strip_comments(line)
        collected.append(code)
        if ";" in code or "{" in code:
            break
    return " ".join(collected)


def check_file(path: Path) -> list[str]:
    violations: list[str] = []
    rel = path.relative_to(REPO_ROOT)
    lines = path.read_text(encoding="utf-8").splitlines()
    in_no_suppression_tree = any(
        path.is_relative_to(tree) for tree in NO_SUPPRESSION_TREES
    )
    in_zero_budget_tree = any(
        path.is_relative_to(tree) for tree in ANALYZE_ZERO_BUDGET_TREES
    )
    for i, raw_line in enumerate(lines):
        line_no = i + 1
        code = strip_comments(raw_line)

        if path not in RAW_MUTEX_ALLOWED:
            if RAW_MUTEX_RE.search(code):
                violations.append(
                    f"{rel}:{line_no}: raw {RAW_MUTEX_RE.search(code).group(0)}"
                    " — use the annotated types from common/checked_mutex.h"
                )
            if RAW_INCLUDE_RE.search(code):
                violations.append(
                    f"{rel}:{line_no}: bare #include <mutex> — include"
                    ' "common/checked_mutex.h" instead'
                )

        if in_no_suppression_tree and SUPPRESS_RE.search(code):
            violations.append(
                f"{rel}:{line_no}: HGDB_NO_THREAD_SAFETY_ANALYSIS is banned"
                " under src/runtime and src/session (zero-suppression core)"
            )

        # Scan the raw line: the waiver is itself a comment.
        if in_zero_budget_tree and ANALYZE_SUPPRESS_RE.search(raw_line):
            violations.append(
                f"{rel}:{line_no}: hgdb-analyze suppression — the budget"
                " under src/session and src/rpc is zero; fix the finding"
                " or promote it to a model.json contract"
            )

        match = LOCKED_DECL_RE.match(code)
        if match and path.suffix == ".h":
            statement = statement_after(lines, i)
            if "HGDB_REQUIRES" not in statement:
                violations.append(
                    f"{rel}:{line_no}: {match.group(1)}() follows the _locked"
                    " convention but has no HGDB_REQUIRES annotation"
                )
    return violations


def check_metric_literals(files: list[Path]) -> list[str]:
    """Rule 5: delegate metric-name validation to the hgdb-analyze
    exhaustiveness checker — same regex, same README-catalogue parser, so
    the two tools cannot drift apart."""
    sys.path.insert(0, str(REPO_ROOT / "tools" / "analyze"))
    import checkers  # noqa: E402  (repo-local, dependency-free)

    class _StubModel:
        """check_metrics() only reads .files off the model."""
        def __init__(self, paths: list[str]):
            self.files = paths

    checker = checkers.ExhaustivenessChecker(
        _StubModel([str(p) for p in files]), {}, str(REPO_ROOT))
    return [
        f"{finding.file}:{finding.line}: {finding.message}"
        f" (README § Metric catalogue)"
        for finding in checker.check_metrics()
    ]


def check_fig5_speedups() -> list[str]:
    """Rule 6: the README's bold Fig. 5 speedups quote the committed
    baseline (within FIG5_MAX_DRIFT)."""
    baseline = json.loads(FIG5_BASELINE.read_text(encoding="utf-8"))
    violations: list[str] = []
    seen: set[str] = set()
    lines = README.read_text(encoding="utf-8").splitlines()
    for line_no, line in enumerate(lines, start=1):
        match = FIG5_ROW_RE.match(line)
        if not match:
            continue
        scenario, claimed = match.group(1), float(match.group(2))
        seen.add(scenario)
        measured = baseline["condition_eval"][scenario]["speedup"]
        if abs(claimed - measured) > FIG5_MAX_DRIFT * measured:
            violations.append(
                f"README.md:{line_no}: Fig. 5 {scenario} speedup ~{claimed:g}x"
                f" is more than {FIG5_MAX_DRIFT:.0%} away from {measured:.1f}x"
                " in bench/baselines/BENCH_fig5.json"
            )
    for scenario in FIG5_SCENARIOS:
        if scenario not in seen:
            violations.append(
                f"README.md: Fig. 5 table has no bold **~Nx** speedup for"
                f" the {scenario} scenario"
            )
    return violations


def check_waveform_claims() -> list[str]:
    """Rule 6, waveform half: the README's RLE compression claim and its
    list of gated ratios trace to bench/baselines/BENCH_waveform.json."""
    gates = json.loads(WAVEFORM_BASELINE.read_text(encoding="utf-8"))["gates"]
    measured = gates["rle_clock_compression"]
    violations: list[str] = []
    lines = README.read_text(encoding="utf-8").splitlines()
    claims = 0
    for line_no, line in enumerate(lines, start=1):
        for match in RLE_CLAIM_RE.finditer(line):
            claims += 1
            claimed = float(match.group(1))
            if abs(claimed - measured) > FIG5_MAX_DRIFT * measured:
                violations.append(
                    f"README.md:{line_no}: RLE claim ~{claimed:g}x smaller"
                    f" than delta is more than {FIG5_MAX_DRIFT:.0%} away"
                    f" from gates.rle_clock_compression {measured:g}x in"
                    " bench/baselines/BENCH_waveform.json"
                )
    if claims == 0:
        violations.append(
            "README.md: no \"~Nx smaller than `delta`\" RLE claim to check"
            " against gates.rle_clock_compression"
        )

    start = next((i for i, line in enumerate(lines)
                  if line.startswith(WAVEFORM_BENCH_PARAGRAPH)), None)
    if start is None:
        violations.append(
            f"README.md: no paragraph starting with"
            f" {WAVEFORM_BENCH_PARAGRAPH} (waveform Benchmark section)"
        )
        return violations
    end = start
    while end < len(lines) and lines[end].strip():
        end += 1
    paragraph = " ".join(lines[start:end])
    match = GATED_LIST_RE.search(paragraph)
    listed = set(re.findall(r"`(\w+)`", match.group(1))) if match else set()
    if listed != set(gates):
        violations.append(
            f"README.md:{start + 1}: waveform Benchmark paragraph lists"
            f" gated ratios {sorted(listed)}, but"
            f" bench/baselines/BENCH_waveform.json gates {sorted(gates)}"
        )
    return violations


def main() -> int:
    files = sorted(
        p for p in SRC.rglob("*")
        if p.suffix in {".h", ".cc", ".cpp", ".hpp"} and p.is_file()
    )
    all_violations: list[str] = []
    for path in files:
        all_violations.extend(check_file(path))
    all_violations.extend(check_metric_literals(files))
    all_violations.extend(check_fig5_speedups())
    all_violations.extend(check_waveform_claims())
    for violation in all_violations:
        print(violation)
    if all_violations:
        print(f"\nlint: {len(all_violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
