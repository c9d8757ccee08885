"""Checker families for hgdb-analyze.

Three families, all driven by the CodeModel from cpp_model.py and the
project contract file model.json:

  blocking-under-lock   a path from a call site that holds a CheckedMutex
                        to a blocking primitive (socket send/recv, file
                        read/write, sleep, condition-variable wait that
                        does not release every held lock).
  callback-under-lock   invocation of a user-supplied callable (EventSink
                        sinks, std::function members/locals/params) while
                        any lock is held, unless the lock bracket or the
                        callable's contract is allowlisted in model.json.
  exhaustiveness        wire enums and metric-name literals cross-checked
                        against the README tables and the equivalence
                        tests that document them.

Findings carry a witness chain (who called whom down to the primitive) so
a report reads as an explanation, not a coordinate.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Optional

from cpp_model import CallSite, CodeModel, FunctionInfo, HeldLock

CV_WAIT_LEAVES = {"wait", "wait_for", "wait_until"}


@dataclass
class Finding:
    checker: str
    file: str
    line: int
    message: str
    witness: list[str] = field(default_factory=list)
    suppressed: bool = False
    justification: str = ""

    def render(self) -> str:
        text = f"{self.file}:{self.line}: [{self.checker}] {self.message}"
        for step in self.witness:
            text += f"\n    via {step}"
        return text


# ---------------------------------------------------------------------------
# resolution helpers
# ---------------------------------------------------------------------------


def strip_type(type_text: str) -> str:
    """`std::unique_ptr<rpc::Channel>*&` -> `Channel`."""
    t = type_text.replace("const", " ").replace("*", " ").replace("&", " ")
    t = t.strip()
    m = re.match(r"(?:std\s*::\s*)?(?:unique_ptr|shared_ptr|optional)\s*<(.*)>\s*$", t)
    if m:
        t = m.group(1).strip()
    # drop namespace qualifiers, keep the final type name
    t = t.split("<")[0]
    parts = [p.strip() for p in re.split(r"::", t) if p.strip()]
    return parts[-1] if parts else ""


class Resolver:
    def __init__(self, model: CodeModel, contracts: dict):
        self.model = model
        self.contracts = contracts
        # derived-class map for virtual dispatch
        self.derived: dict[str, list[str]] = {}
        for cls in model.classes.values():
            for base in cls.bases:
                self.derived.setdefault(base, []).append(cls.name)

    def type_of(self, fn: FunctionInfo, name: str) -> str:
        if name in fn.locals:
            return fn.locals[name]
        if name in fn.params:
            return fn.params[name]
        cls = self.model.classes.get(fn.cls)
        if cls and name in cls.members:
            return cls.members[name]
        return ""

    def receiver_class(self, fn: FunctionInfo, site: CallSite) -> str:
        if site.receiver_kind == "member-or-local":
            # `a.b.c` chains: resolve the first hop, then members
            hops = re.split(r"\.|->", site.receiver)
            hops = [h for h in hops if h]
            current = self.type_of(fn, hops[0]) if hops else ""
            cname = strip_type(current)
            for hop in hops[1:]:
                cls = self.model.classes.get(cname)
                if cls is None or hop not in cls.members:
                    cname = ""
                    break
                cname = strip_type(cls.members[hop])
            if cname:
                return cname
            # range-for / structured-binding receivers have no tracked
            # declaration; fall back to a unique member name across all
            # classes (e.g. `target.sink` -> DeliveryTarget::sink)
            if hops:
                types = {strip_type(cls.members[hops[-1]])
                         for cls in self.model.classes.values()
                         if hops[-1] in cls.members}
                if len(types) == 1:
                    return types.pop()
            return ""
        if site.receiver_kind == "qualified":
            return site.qualifier.split("::")[-1]
        return ""

    def callees(self, fn: FunctionInfo, site: CallSite) -> list[FunctionInfo]:
        """Function definitions a call site may reach (virtual-aware)."""
        model = self.model
        if site.receiver_kind in ("member-or-local", "qualified", "expr"):
            cname = self.receiver_class(fn, site)
            if cname:
                out = []
                seen = {cname}
                queue = [cname]
                while queue:  # the class and everything derived from it
                    c = queue.pop()
                    out.extend(model.functions_named(f"{c}::{site.leaf}"))
                    for d in self.derived.get(c, []):
                        if d not in seen:
                            seen.add(d)
                            queue.append(d)
                if out:
                    return out
            # unresolvable receiver: unique-name fallback
            named = model.methods_named(site.leaf)
            keys = {f.key for f in named}
            if len(keys) == 1:
                return named
            return []
        if site.receiver_kind == "global":
            return []  # raw libc call, handled as a primitive
        # unqualified call: same class first, then free function
        if fn.cls:
            own = model.functions_named(f"{fn.cls}::{site.leaf}")
            if own:
                return own
        free = [f for f in model.methods_named(site.leaf) if not f.cls]
        return free

    def mutex_label(self, fn: FunctionInfo, expr: str) -> str:
        """Resolve a guard/REQUIRES mutex expression to its label string."""
        name = re.split(r"\.|->", expr)[-1].strip()
        name = name.split("(")[0]
        # owning class first
        cls = self.model.classes.get(fn.cls)
        if cls and name in cls.mutexes:
            return cls.mutexes[name].label or name
        for decl in self.model.mutex_decls:
            if decl.name == name:
                return decl.label or name
        return f"<unresolved:{name}>"


# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------


class BlockingChecker:
    name = "blocking-under-lock"

    def __init__(self, model: CodeModel, contracts: dict):
        self.model = model
        self.resolver = Resolver(model, contracts)
        self.primitives = set(contracts["blocking_primitives"]["libc"])
        self.sleep_names = set(contracts["blocking_primitives"]["sleep"])
        self.nonblocking_arg_tokens = set(
            contracts["blocking_primitives"]["nonblocking_arg_tokens"])
        self.io_lock_allowlist = {
            entry["label"] for entry in contracts["io_lock_allowlist"]}
        self.nonblocking_functions = {
            entry["function"]
            for entry in contracts.get("nonblocking_functions", [])}
        self.may_block: dict[str, bool] = {}
        self.block_reason: dict[str, str] = {}

    # -- primitive classification -------------------------------------------

    def direct_block_reason(self, fn: FunctionInfo,
                            site: CallSite) -> Optional[str]:
        """Non-None when the call site itself is a blocking primitive."""
        if any(tok in site.args for tok in self.nonblocking_arg_tokens):
            return None
        # `send`/`read` also appear as project method names — only the
        # global (::-qualified) spelling is the raw syscall.
        if site.leaf in self.primitives and site.receiver_kind == "global":
            return f"::{site.leaf}()"
        if site.leaf in self.sleep_names:
            if site.qualifier.endswith("this_thread") or not site.receiver:
                return f"std::this_thread::{site.leaf}()"
        if site.leaf in CV_WAIT_LEAVES and self.is_cv_wait(fn, site):
            return f"condition_variable {site.leaf}()"
        return None

    def is_cv_wait(self, fn: FunctionInfo, site: CallSite) -> bool:
        if site.receiver_kind not in ("member-or-local", ""):
            return False
        rtype = self.resolver.type_of(fn, re.split(r"\.|->",
                                                   site.receiver)[0]) \
            if site.receiver else ""
        if "condition_variable" in rtype:
            return True
        # fallback: `cv.wait(lock)` where the first argument is a guard
        first_arg = site.args.split(",")[0].strip() if site.args else ""
        return bool(site.receiver) and first_arg in fn.locals and \
            fn.locals[first_arg] in ("UniqueLock", "LockGuard")

    # -- may-block fixpoint --------------------------------------------------

    def compute_fixpoint(self) -> None:
        for key, fn in self.model.functions.items():
            self.may_block[key] = False
            if f"{fn.key}" in self.nonblocking_functions:
                continue
            for site in fn.calls:
                if site.in_lambda:
                    continue  # runs later, in its caller's context
                reason = self.direct_block_reason(fn, site)
                if reason is not None and not self.cv_wait_fully_releases(
                        fn, site):
                    self.may_block[key] = True
                    self.block_reason[key] = \
                        f"{fn.key} ({os.path.basename(fn.file)}:" \
                        f"{site.line}) -> {reason}"
                    break
                if reason is not None:
                    # a cv wait that releases everything still blocks the
                    # *caller* if the caller holds other locks
                    self.may_block[key] = True
                    self.block_reason[key] = \
                        f"{fn.key} ({os.path.basename(fn.file)}:" \
                        f"{site.line}) -> {reason}"
                    break
        changed = True
        keys = {k: fn for k, fn in self.model.functions.items()}
        while changed:
            changed = False
            for key, fn in keys.items():
                if self.may_block[key] or fn.key in self.nonblocking_functions:
                    continue
                for site in fn.calls:
                    if site.in_lambda:
                        continue
                    if any(tok in site.args
                           for tok in self.nonblocking_arg_tokens):
                        continue
                    for callee in self.resolver.callees(fn, site):
                        ckey = f"{callee.file}:{callee.line}:{callee.key}"
                        if self.may_block.get(ckey):
                            self.may_block[key] = True
                            self.block_reason[key] = (
                                f"{fn.key} ({os.path.basename(fn.file)}:"
                                f"{site.line}) -> "
                                + self.block_reason.get(ckey, callee.key))
                            changed = True
                            break
                    if self.may_block[key]:
                        break
        # std::function invocation is the callback checker's domain; here
        # an unresolvable callable contributes nothing.

    def cv_wait_fully_releases(self, fn: FunctionInfo,
                               site: CallSite) -> bool:
        """`cv.wait(lock)` releases `lock`'s mutex for the wait's duration;
        the wait is only a blocking-under-lock hazard for *other* locks."""
        if site.leaf not in CV_WAIT_LEAVES:
            return False
        first_arg = site.args.split(",")[0].strip() if site.args else ""
        if not first_arg:
            return False  # argless wait: nothing released
        remaining = [h for h in site.held if h.guard_var != first_arg]
        return len(remaining) == 0

    # -- the check -----------------------------------------------------------

    def held_labels(self, fn: FunctionInfo,
                    site: CallSite) -> list[tuple[str, str]]:
        """(label, origin) for every lock held at the site, with the io
        allowlist applied and cv-released guards removed."""
        out = []
        held: list[HeldLock] = list(site.held)
        if not site.in_lambda:
            for expr in fn.requires:
                held.append(HeldLock(expr=expr, guard_var="", via="requires",
                                     line=fn.line))
            cls = self.model.classes.get(fn.cls)
            if cls:
                for expr in cls.prototype_requires.get(fn.name, []):
                    held.append(HeldLock(expr=expr, guard_var="",
                                         via="requires", line=fn.line))
        released = ""
        if site.leaf in CV_WAIT_LEAVES and site.args:
            released = site.args.split(",")[0].strip()
        for h in held:
            if released and h.guard_var == released:
                continue
            label = self.resolver.mutex_label(fn, h.expr)
            if label in self.io_lock_allowlist:
                continue
            out.append((label, h.via))
        return out

    def run(self) -> list[Finding]:
        self.compute_fixpoint()
        findings: list[Finding] = []
        for key, fn in self.model.functions.items():
            if fn.key in self.nonblocking_functions:
                continue
            for site in fn.calls:
                if site.in_lambda:
                    continue
                labels = self.held_labels(fn, site)
                if not labels:
                    continue
                reason = self.direct_block_reason(fn, site)
                witness: list[str] = []
                if reason is None:
                    for callee in self.resolver.callees(fn, site):
                        ckey = f"{callee.file}:{callee.line}:{callee.key}"
                        if self.may_block.get(ckey):
                            reason = f"call to {callee.key}, which may block"
                            witness = [self.block_reason.get(ckey, "")]
                            break
                if reason is None:
                    continue
                label_text = ", ".join(f'"{lbl}" (via {via})'
                                       for lbl, via in labels)
                findings.append(Finding(
                    checker=self.name, file=fn.file, line=site.line,
                    message=(f"{fn.key} reaches blocking {reason} while "
                             f"holding {label_text}"),
                    witness=[w for w in witness if w]))
        return findings


# ---------------------------------------------------------------------------
# callback-under-lock
# ---------------------------------------------------------------------------


class CallbackChecker:
    name = "callback-under-lock"

    def __init__(self, model: CodeModel, contracts: dict):
        self.model = model
        self.resolver = Resolver(model, contracts)
        self.sink_methods = set(contracts["callback_checker"]["sink_methods"])
        self.sink_classes = set(contracts["callback_checker"]["sink_classes"])
        self.bracket_allowlist = {
            entry["label"]
            for entry in contracts["callback_checker"]["lock_allowlist"]}
        self.contract_exempt = {
            (entry["callable"], entry["under_label"])
            for entry in contracts["callback_checker"]["callable_contracts"]}

    def is_user_callable(self, fn: FunctionInfo,
                         site: CallSite) -> Optional[str]:
        """Returns a description when the call invokes user-supplied code."""
        # sink->deliver(...) on an EventSink (or derived)
        if site.leaf in self.sink_methods and site.receiver:
            cname = self.resolver.receiver_class(fn, site)
            if cname in self.sink_classes or self.derives_from_sink(cname):
                return f"{cname or 'sink'}::{site.leaf} (EventSink)"
        # std::function member / local / param invoked directly or as the
        # last hop of a member chain
        callable_name = site.leaf if not site.receiver else site.leaf
        holder: str = ""
        hops = [h for h in re.split(r"\.|->", site.receiver) if h]
        if site.receiver_kind == "member-or-local" and hops:
            cname = self.resolver.type_of(fn, hops[0])
            cname = strip_type(cname)
            for hop in hops[1:]:
                cls = self.model.classes.get(cname)
                if cls is None or hop not in cls.members:
                    cname = ""
                    break
                cname = strip_type(cls.members[hop])
            cls = self.model.classes.get(cname)
            if cls and site.leaf in cls.members and \
                    "function" in cls.members[site.leaf]:
                holder = f"{cname}::{site.leaf}"
        elif site.receiver_kind == "" and not site.qualifier:
            ftype = self.resolver.type_of(fn, site.leaf)
            if "function" in ftype and "<" in ftype:
                holder = callable_name
        if holder:
            return f"std::function {holder}"
        return None

    def derives_from_sink(self, cname: str) -> bool:
        seen = set()
        queue = [cname]
        while queue:
            c = queue.pop()
            if c in self.sink_classes:
                return True
            if c in seen:
                continue
            seen.add(c)
            cls = self.model.classes.get(c)
            if cls:
                queue.extend(cls.bases)
        return False

    def run(self) -> list[Finding]:
        findings: list[Finding] = []
        for fn in self.model.functions.values():
            for site in fn.calls:
                if site.in_lambda:
                    continue
                desc = self.is_user_callable(fn, site)
                if desc is None:
                    continue
                held = list(site.held)
                if not site.in_lambda:
                    for expr in fn.requires:
                        held.append(HeldLock(expr=expr, guard_var="",
                                             via="requires", line=fn.line))
                    cls = self.model.classes.get(fn.cls)
                    if cls:
                        for expr in cls.prototype_requires.get(fn.name, []):
                            held.append(HeldLock(
                                expr=expr, guard_var="", via="requires",
                                line=fn.line))
                labels = []
                for h in held:
                    label = self.resolver.mutex_label(fn, h.expr)
                    if label in self.bracket_allowlist:
                        continue
                    callable_key = desc.split()[-1] if "std::function" in desc \
                        else site.leaf
                    if (callable_key, label) in self.contract_exempt or \
                            (site.leaf, label) in self.contract_exempt:
                        continue
                    labels.append((label, h.via))
                if not labels:
                    continue
                label_text = ", ".join(f'"{lbl}" (via {via})'
                                       for lbl, via in labels)
                findings.append(Finding(
                    checker=self.name, file=fn.file, line=site.line,
                    message=(f"{fn.key} invokes user-supplied callable "
                             f"{desc} while holding {label_text}")))
        return findings


# ---------------------------------------------------------------------------
# exhaustiveness
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


class ExhaustivenessChecker:
    """Wire enums and metric names cross-checked against their documented
    tables. Operates on raw file text (plus model enums), because the
    artifacts compared are docs and string literals, not code structure."""

    name = "exhaustiveness"

    def __init__(self, model: CodeModel, contracts: dict, repo_root: str):
        self.model = model
        self.contracts = contracts
        self.root = repo_root

    def run(self) -> list[Finding]:
        out: list[Finding] = []
        out.extend(self.check_error_codes())
        out.extend(self.check_frame_kinds())
        out.extend(self.check_metrics())
        return out

    # -- rpc::ErrorCode vs error_code_name() vs README ----------------------

    def check_error_codes(self) -> list[Finding]:
        findings = []
        cfg = self.contracts["exhaustiveness"]
        enum_values = self.model.enums.get("ErrorCode", [])
        impl_path = os.path.join(self.root, cfg["error_code_impl"])
        impl = _read(impl_path)
        switch_cases = re.findall(
            r"case\s+ErrorCode::(\w+)\s*:\s*return\s+\"([\w\-]+)\"", impl)
        readme = _read(os.path.join(self.root, "README.md"))
        table = self.parse_readme_table(readme, "### Error codes")
        readme_codes = {row[0].strip("`") for row in table}

        case_names = {c[0] for c in switch_cases}
        wire_names = {c[1] for c in switch_cases}
        for value in enum_values:
            if value not in case_names:
                findings.append(Finding(
                    checker=self.name, file=cfg["error_code_impl"], line=1,
                    message=(f"ErrorCode::{value} has no case in "
                             f"error_code_name() — wire name undefined")))
        for name, _ in switch_cases:
            if name not in enum_values:
                findings.append(Finding(
                    checker=self.name, file=cfg["error_code_impl"], line=1,
                    message=(f"error_code_name() names ErrorCode::{name}, "
                             f"absent from the enum")))
        documented_exempt = set(cfg.get("error_codes_undocumented", []))
        for wire in sorted(wire_names - readme_codes - documented_exempt):
            findings.append(Finding(
                checker=self.name, file="README.md", line=1,
                message=(f"error code \"{wire}\" is on the wire but missing "
                         f"from the README error-code table")))
        for wire in sorted(readme_codes - wire_names):
            findings.append(Finding(
                checker=self.name, file="README.md", line=1,
                message=(f"README documents error code \"{wire}\" that no "
                         f"ErrorCode maps to")))
        return findings

    # -- rpc::FrameKind vs decode switch vs equivalence tests ----------------

    def check_frame_kinds(self) -> list[Finding]:
        findings = []
        cfg = self.contracts["exhaustiveness"]
        enum_values = set(self.model.enums.get("FrameKind", []))
        impl = _read(os.path.join(self.root, cfg["frame_kind_impl"]))
        decode_cases = set(re.findall(
            r"case\s+static_cast<uint8_t>\(FrameKind::(\w+)\)", impl))
        test_path = cfg["frame_kind_tests"]
        tests = _read(os.path.join(self.root, test_path))
        tested = set(re.findall(r"FrameKind::(\w+)", tests))
        for value in sorted(enum_values - decode_cases):
            findings.append(Finding(
                checker=self.name, file=cfg["frame_kind_impl"], line=1,
                message=(f"FrameKind::{value} is not handled by the binary "
                         f"decode switch")))
        for value in sorted(enum_values - tested):
            findings.append(Finding(
                checker=self.name, file=test_path, line=1,
                message=(f"FrameKind::{value} has no binary<->JSON "
                         f"equivalence coverage in {test_path}")))
        for value in sorted(decode_cases - enum_values):
            findings.append(Finding(
                checker=self.name, file=cfg["frame_kind_impl"], line=1,
                message=(f"decode switch handles FrameKind::{value}, absent "
                         f"from the enum")))
        return findings

    # -- metric-name literals vs README catalogue ----------------------------

    METRIC_CALL_RE = re.compile(
        r"\.(?:counter|histogram|gauge)\(\s*\"([^\"]+)\"")

    def documented_metrics(self) -> tuple[set[str], set[str]]:
        """(exact names, prefixes) from the README metric catalogue."""
        readme = _read(os.path.join(self.root, "README.md"))
        rows = self.parse_readme_table(readme, "### Metric catalogue")
        exact: set[str] = set()
        prefixes: set[str] = set()
        for row in rows:
            cell = row[0]
            last_full = ""
            for part in cell.split("/"):
                name = part.strip().strip("`").strip()
                if not name:
                    continue
                if name.startswith("."):
                    # `waveform.block_cache.hits` / `.misses` shorthand
                    if last_full:
                        base = last_full.rsplit(".", name.count("."))[0]
                        name = base + name
                else:
                    last_full = name
                if "<" in name:
                    prefixes.add(name.split("<")[0])
                else:
                    exact.add(name)
        return exact, prefixes

    def check_metrics(self) -> list[Finding]:
        findings = []
        exact, prefixes = self.documented_metrics()
        for path in self.model.files:
            rel = os.path.relpath(path, self.root)
            if not rel.startswith("src"):
                continue
            text = _read(path)
            for lineno, line in enumerate(text.splitlines(), 1):
                for m in self.METRIC_CALL_RE.finditer(line):
                    name = m.group(1)
                    if name in exact:
                        continue
                    if name.endswith(".") and any(
                            name == p or name.startswith(p) or
                            p.startswith(name) for p in prefixes):
                        continue  # concatenation prefix of a templated row
                    if any(name.startswith(p) for p in prefixes):
                        continue
                    findings.append(Finding(
                        checker=self.name, file=rel, line=lineno,
                        message=(f"metric \"{name}\" is registered here but "
                                 f"missing from the README metric "
                                 f"catalogue")))
        return findings

    # -- README helpers ------------------------------------------------------

    @staticmethod
    def parse_readme_table(readme: str, heading: str) -> list[list[str]]:
        idx = readme.find(heading)
        if idx < 0:
            return []
        rows = []
        in_table = False
        for line in readme[idx:].splitlines():
            stripped = line.strip()
            if stripped.startswith("|"):
                cells = [c.strip() for c in stripped.strip("|").split("|")]
                if all(set(c) <= {"-", " ", ":"} for c in cells):
                    continue  # separator row
                if not in_table:
                    in_table = True
                    continue  # header row
                rows.append(cells)
            elif in_table:
                break
        return rows


# ---------------------------------------------------------------------------
# suppression application
# ---------------------------------------------------------------------------


def apply_suppressions(findings: list[Finding],
                       model: CodeModel,
                       repo_root: str) -> list[Finding]:
    """Marks findings covered by a `// hgdb-analyze: suppress(...)` comment
    on the same line or the line above. A suppression without a
    justification does not count and is itself reported."""
    extra: list[Finding] = []
    for s in model.suppressions:
        if not s.justification:
            extra.append(Finding(
                checker="suppression-syntax",
                file=os.path.relpath(s.file, repo_root), line=s.line,
                message=("suppression without a justification — use "
                         "`// hgdb-analyze: suppress(<checker>) -- <why>`")))
    for f in findings:
        for s in model.suppressions:
            if not s.justification:
                continue
            if f.checker not in s.checkers:
                continue
            s_file = os.path.relpath(s.file, repo_root) \
                if os.path.isabs(s.file) else s.file
            f_file = os.path.relpath(f.file, repo_root) \
                if os.path.isabs(f.file) else f.file
            if s_file != f_file:
                continue
            if s.line in (f.line, f.line - 1):
                f.suppressed = True
                f.justification = s.justification
                s.used = True
    return findings + extra


def run_all(model: CodeModel, contracts: dict, repo_root: str,
            checkers: Optional[list[str]] = None) -> list[Finding]:
    findings: list[Finding] = []
    enabled = set(checkers) if checkers else {
        "blocking-under-lock", "callback-under-lock", "exhaustiveness"}
    if "blocking-under-lock" in enabled:
        findings.extend(BlockingChecker(model, contracts).run())
    if "callback-under-lock" in enabled:
        findings.extend(CallbackChecker(model, contracts).run())
    if "exhaustiveness" in enabled:
        findings.extend(
            ExhaustivenessChecker(model, contracts, repo_root).run())
    for f in findings:
        if os.path.isabs(f.file):
            f.file = os.path.relpath(f.file, repo_root)
    return apply_suppressions(findings, model, repo_root)
