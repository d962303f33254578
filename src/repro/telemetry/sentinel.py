"""Regression sentinel: diff BENCH_*.json documents across commits.

The repo's benchmark harnesses each publish a ``BENCH_<name>.json``
scorecard.  The sentinel flattens two such documents (baseline vs
current) into dotted numeric paths, matches paths against a small rule
table (fnmatch patterns with a direction and a tolerance), and reports
regressions — "events_per_s dropped 12%" — without anyone eyeballing
JSON diffs.  Baselines come from a file or straight out of git history
(``--baseline-ref HEAD~1``), so CI can gate a PR against its parent
commit.

Non-numeric leaves (digests, booleans, strings) are compared for
equality only when a rule asks (``mode="equal"``) — useful for the
determinism digests, which must never change silently.
"""

from __future__ import annotations

import fnmatch
import json
import subprocess
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]


def flatten(document: object, prefix: str = "") -> Dict[str, object]:
    """Flatten nested dicts/lists into ``a.b.0.c`` → leaf paths."""
    out: Dict[str, object] = {}
    if isinstance(document, dict):
        for key in sorted(document):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten(document[key], path))
    elif isinstance(document, list):
        for index, item in enumerate(document):
            path = f"{prefix}.{index}" if prefix else str(index)
            out.update(flatten(item, path))
    else:
        out[prefix] = document
    return out


@dataclass(frozen=True)
class SentinelRule:
    """How leaves matching *pattern* are judged.

    ``direction`` is which way is *better*: ``higher`` (throughput),
    ``lower`` (wall time, energy), or ``equal`` (digests, gate booleans
    — any change is a regression).  ``tolerance`` is the allowed
    fractional change in the *worse* direction before flagging.
    """

    pattern: str
    direction: str = "lower"
    tolerance: float = 0.05

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower", "equal"):
            raise ValueError(f"unknown direction: {self.direction!r}")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")

    def matches(self, path: str) -> bool:
        return fnmatch.fnmatch(path, self.pattern)


#: Defaults tuned to the repo's scorecards: throughput up is good,
#: wall time down is good, determinism digests and gates must not move.
DEFAULT_SENTINEL_RULES: Tuple[SentinelRule, ...] = (
    SentinelRule("*events_per_s", direction="higher", tolerance=0.15),
    SentinelRule("*wall_s", direction="lower", tolerance=0.25),
    SentinelRule("*digest", direction="equal"),
    SentinelRule("*gate_passed", direction="equal"),
    SentinelRule("*read_completion", direction="higher", tolerance=0.02),
    SentinelRule("*overhead*ratio", direction="lower", tolerance=0.05),
    SentinelRule("*bytes_per_node", direction="lower", tolerance=0.25),
    SentinelRule("*resume_speedup", direction="higher", tolerance=0.25),
    SentinelRule("*parity", direction="equal"),
    SentinelRule("*deterministic", direction="equal"),
    SentinelRule("*idle_fraction", direction="higher", tolerance=0.25),
    SentinelRule("*skippable_fraction", direction="higher", tolerance=0.25),
    # Fast-forward tier: more analytically skipped work is better;
    # events_per_s_ff is the FF-on throughput headline.
    SentinelRule("*events_per_s_ff", direction="higher", tolerance=0.15),
    SentinelRule("*ff_windows_skipped", direction="higher", tolerance=0.25),
    SentinelRule("*ff_events_skipped", direction="higher", tolerance=0.25),
    # Gateway service tier: user-facing request throughput up is good,
    # tail latency and error rate down are good.
    SentinelRule("*requests_per_s", direction="higher", tolerance=0.20),
    SentinelRule("*p99_latency_ms", direction="lower", tolerance=0.50),
    SentinelRule("*p95_latency_ms", direction="lower", tolerance=0.50),
    SentinelRule("*error_rate", direction="lower", tolerance=0.50),
    # Request-obs decomposition: per-kind queue wait and sim execution
    # p95s out of the gateway latency decomposition (DESIGN.md §12).
    SentinelRule("*queue_wait_p95_ms", direction="lower", tolerance=0.50),
    SentinelRule("*sim_exec_p95_ms", direction="lower", tolerance=0.50),
)


@dataclass(frozen=True)
class Finding:
    """One judged leaf."""

    path: str
    baseline: object
    current: object
    change: Optional[float]  # fractional, None for equality checks
    regression: bool
    rule: str

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "baseline": self.baseline,
            "current": self.current,
            "change": (None if self.change is None
                       else round(self.change, 6)),
            "regression": self.regression,
            "rule": self.rule,
        }


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(
    baseline: dict,
    current: dict,
    rules: Sequence[SentinelRule] = DEFAULT_SENTINEL_RULES,
) -> List[Finding]:
    """Judge every ruled leaf present in both documents.

    First matching rule wins (callers put specific patterns first).
    Leaves present on only one side are skipped — scorecards grow
    fields across PRs and that is not a regression.
    """
    base_flat = flatten(baseline)
    cur_flat = flatten(current)
    findings: List[Finding] = []
    for path in sorted(set(base_flat) & set(cur_flat)):
        rule = next((r for r in rules if r.matches(path)), None)
        if rule is None:
            continue
        before, after = base_flat[path], cur_flat[path]
        if rule.direction == "equal":
            findings.append(Finding(
                path, before, after, None, before != after,
                rule.pattern,
            ))
            continue
        if not (_is_number(before) and _is_number(after)):
            continue
        if before == 0:
            change = 0.0 if after == 0 else float("inf")
        else:
            change = (after - before) / abs(before)
        worse = change < -rule.tolerance if rule.direction == "higher" \
            else change > rule.tolerance
        findings.append(Finding(path, before, after, change, worse,
                                rule.pattern))
    return findings


def load_baseline(path: str, ref: Optional[str] = None,
                  repo_root: Optional[str] = None) -> dict:
    """Load a scorecard from disk, or from ``git show ref:path``."""
    if ref is None:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    out = subprocess.run(
        ["git", "show", f"{ref}:{path}"],
        capture_output=True, text=True, cwd=repo_root,
    )
    if out.returncode != 0:
        raise FileNotFoundError(
            f"git show {ref}:{path} failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


def load_baseline_status(
    path: str, ref: Optional[str] = None,
    repo_root: Optional[str] = None,
) -> Tuple[str, Optional[dict]]:
    """Like :func:`load_baseline`, but first-run friendly.

    Returns ``(status, document)`` where status is ``"ok"`` (document
    loaded), ``"missing"`` (no baseline at that path/ref — the normal
    state of a fresh branch) or ``"malformed"`` (the file exists but is
    not valid JSON, or is JSON that is not an object).  Never raises
    for those cases, so callers can report "no baseline" instead of a
    stack trace.
    """
    try:
        document = load_baseline(path, ref, repo_root)
    except (FileNotFoundError, OSError):
        return "missing", None
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
        return "malformed", None
    if not isinstance(document, dict):
        return "malformed", None
    return "ok", document


def report_lines(findings: Sequence[Finding]) -> List[str]:
    """Human-readable one-liners, regressions first."""
    lines: List[str] = []
    for finding in sorted(findings,
                          key=lambda f: (not f.regression, f.path)):
        if finding.change is None:
            verdict = "CHANGED" if finding.regression else "ok"
            lines.append(
                f"[{verdict:>7}] {finding.path}: "
                f"{finding.baseline!r} -> {finding.current!r}")
        else:
            verdict = "REGRESS" if finding.regression else "ok"
            lines.append(
                f"[{verdict:>7}] {finding.path}: "
                f"{finding.baseline} -> {finding.current} "
                f"({finding.change:+.1%})")
    return lines


__all__ = ["SentinelRule", "Finding", "compare", "flatten",
           "load_baseline", "load_baseline_status", "report_lines",
           "DEFAULT_SENTINEL_RULES"]
