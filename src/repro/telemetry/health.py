"""Declarative health/SLO evaluation over telemetry windows.

A :class:`SloRule` states an invariant over a metric's trajectory —
``duty_cycle p95 < 1%``, ``reads_ok/reads_sent >= 99%`` per window,
``energy per node per day <= budget`` — and is evaluated over tumbling
windows of the merged series document.  The output distinguishes what a
snapshot-only report cannot: a fleet that *degraded and recovered*
(some failing windows, final window passing) from one that is *broken*
(still failing at the end) or was *healthy throughout*.

:class:`RuleWindows` judges the same windows as samples arrive, for a
service that cannot re-read its whole history at every check.

Everything is deterministic: window boundaries are a pure function of
the horizon and ``window_s``, aggregate math runs over the merged
document (itself a pure function of ``(scenario, seed)``), and verdict
floats are rounded before JSON encoding so verdicts are byte-stable.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.stats import percentile
from repro.telemetry.series import iter_series

#: Legal window aggregates.  ``delta`` (last minus first, summed over
#: label sets) is the right aggregate for cumulative counters; the
#: value aggregates suit level gauges.
AGGREGATES = ("last", "mean", "min", "max", "p50", "p95", "p99", "delta")

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class SloRule:
    """One health rule: an aggregate over windows compared to a bound.

    With ``ratio_to`` set, the rule evaluates
    ``delta(series) / delta(ratio_to)`` per window (both cumulative
    counters); windows where the denominator did not advance are
    skipped — no traffic is neither healthy nor unhealthy.  ``scale``
    multiplies the aggregate before comparison (e.g. normalising a
    windowed energy delta to joules per node per day).
    """

    name: str
    series: str
    aggregate: str = "last"
    op: str = "<"
    threshold: float = 0.0
    window_s: float = 10.0
    ratio_to: Optional[str] = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.aggregate not in AGGREGATES:
            raise ValueError(f"unknown aggregate: {self.aggregate!r}")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison: {self.op!r}")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")

    # ---------------------------------------------------------------- parsing
    _GRAMMAR = re.compile(
        r"^\s*(?P<name>[\w.-]+)\s*:\s*"
        r"(?P<series>[\w]+)"
        r"(?:\s*/\s*(?P<denom>[\w]+))?"
        r"(?:\s*\.\s*(?P<agg>last|mean|min|max|p50|p95|p99|delta))?"
        r"\s*(?P<op><=|>=|<|>)\s*"
        r"(?P<threshold>-?[\d.eE+-]+)(?P<pct>%)?"
        r"(?:\s+window\s*=\s*(?P<window>[\d.]+)s?)?\s*$"
    )

    @classmethod
    def parse(cls, text: str) -> "SloRule":
        """Parse the compact rule syntax used by CLIs.

        ``name: series[.agg] OP threshold[%] [window=SECONDS]`` or
        ``name: num/den OP threshold[%] [window=SECONDS]`` (ratio of
        window deltas).  Examples::

            duty: radio_duty_cycle.p95 < 1% window=10
            completion: reads_ok_total/reads_sent_total >= 99% window=10
            queue: kernel_queue_depth.max < 5000
        """
        match = cls._GRAMMAR.match(text)
        if match is None:
            raise ValueError(f"cannot parse health rule: {text!r}")
        threshold = float(match.group("threshold"))
        if match.group("pct"):
            threshold /= 100.0
        denom = match.group("denom")
        agg = match.group("agg") or ("delta" if denom else "last")
        kwargs = dict(
            name=match.group("name"),
            series=match.group("series"),
            aggregate=agg,
            op=match.group("op"),
            threshold=threshold,
            ratio_to=denom,
        )
        if match.group("window"):
            kwargs["window_s"] = float(match.group("window"))
        return cls(**kwargs)


@dataclass(frozen=True)
class WindowVerdict:
    """One rule evaluated over one tumbling window."""

    t0_s: float
    t1_s: float
    value: float
    ok: bool

    def as_dict(self) -> dict:
        return {"t0_s": round(self.t0_s, 9), "t1_s": round(self.t1_s, 9),
                "value": round(self.value, 9), "ok": self.ok}


@dataclass
class RuleResult:
    """Everything one rule produced over the whole horizon."""

    rule: SloRule
    windows: List[WindowVerdict]

    @property
    def ok(self) -> bool:
        return all(w.ok for w in self.windows)

    @property
    def degraded_windows(self) -> List[WindowVerdict]:
        return [w for w in self.windows if not w.ok]

    @property
    def status(self) -> str:
        """``ok`` | ``degraded`` | ``recovered`` | ``no-data``.

        ``recovered`` means at least one window failed but the final
        evaluated window passed — degradation that healed, which an
        end-of-run snapshot cannot express.
        """
        if not self.windows:
            return "no-data"
        if self.ok:
            return "ok"
        return "recovered" if self.windows[-1].ok else "degraded"

    def as_dict(self) -> dict:
        return {
            "series": self.rule.series,
            "aggregate": self.rule.aggregate,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "window_s": self.rule.window_s,
            "ratio_to": self.rule.ratio_to,
            "status": self.status,
            "ok": self.ok,
            "degraded": len(self.degraded_windows),
            "windows": [w.as_dict() for w in self.windows],
        }


@dataclass
class HealthReport:
    """All rule results for one run."""

    results: List[RuleResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def status(self) -> str:
        """Worst rule status: degraded > recovered > ok > no-data."""
        statuses = {r.status for r in self.results}
        for status in ("degraded", "recovered", "ok"):
            if status in statuses:
                return status
        return "no-data"

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "status": self.status,
            "rules": {r.rule.name: r.as_dict() for r in self.results},
        }


def _windowed_samples(
    data: dict, t0_ns: int, t1_ns: int
) -> List[Tuple[int, float]]:
    return [(t, v) for t, v in data["samples"] if t0_ns <= t < t1_ns]


def _window_delta(data: dict, t0_ns: int, t1_ns: int) -> float:
    """last-in-window minus last-before-window of a cumulative series."""
    baseline = 0.0
    last = None
    for t, v in data["samples"]:
        if t < t0_ns:
            baseline = v
        elif t < t1_ns:
            last = v
        else:
            break
    return 0.0 if last is None else last - baseline


def _aggregate(rule: SloRule, document: dict,
               t0_ns: int, t1_ns: int) -> Optional[float]:
    """The rule's aggregate over one window; None = nothing to judge."""
    matching = list(iter_series(document, rule.series))
    if not matching:
        return None
    if rule.ratio_to is not None:
        num = sum(_window_delta(d, t0_ns, t1_ns) for d in matching)
        den = sum(_window_delta(d, t0_ns, t1_ns)
                  for d in iter_series(document, rule.ratio_to))
        return None if den == 0 else num / den
    if rule.aggregate == "delta":
        return sum(_window_delta(d, t0_ns, t1_ns) for d in matching)
    values = [v for d in matching
              for _, v in _windowed_samples(d, t0_ns, t1_ns)]
    if not values:
        return None
    if rule.aggregate == "last":
        # Per label set, the freshest sample; judge the worst of them.
        lasts = []
        for d in matching:
            window = _windowed_samples(d, t0_ns, t1_ns)
            if window:
                lasts.append(window[-1][1])
        return max(lasts) if rule.op in ("<", "<=") else min(lasts)
    if rule.aggregate == "mean":
        return sum(values) / len(values)
    if rule.aggregate == "min":
        return min(values)
    if rule.aggregate == "max":
        return max(values)
    return percentile(values, float(rule.aggregate[1:]))


def horizon_ns(document: dict) -> int:
    """Latest sample timestamp across every series (0 when empty)."""
    horizon = 0
    for data in iter_series(document):
        if data["samples"]:
            horizon = max(horizon, data["samples"][-1][0])
    return horizon


def judge_window(rule: SloRule, document: dict, t0_ns: int,
                 end_ns: int) -> Optional[WindowVerdict]:
    """*rule*'s verdict on the window that starts at ``t0_ns`` in a
    document whose horizon is ``end_ns``; None = nothing to judge."""
    t1 = min(t0_ns + int(rule.window_s * 1e9), end_ns + 1)
    value = _aggregate(rule, document, t0_ns, t1)
    if value is None:
        return None
    value *= rule.scale
    return WindowVerdict(t0_ns / 1e9, min(t1, end_ns) / 1e9, value,
                         _OPS[rule.op](value, rule.threshold))


def evaluate_rule(rule: SloRule, document: dict) -> RuleResult:
    """Evaluate *rule* over tumbling windows spanning the document."""
    end_ns = horizon_ns(document)
    verdicts = (judge_window(rule, document, t0, end_ns)
                for t0 in range(0, end_ns, int(rule.window_s * 1e9)))
    return RuleResult(rule, [v for v in verdicts if v is not None])


class RuleWindows:
    """:func:`evaluate_rule` over a document that grows one sample at
    a time: a sample costs constant time, judging a window time in its
    own samples.

    Each series' samples must arrive in time order.  The open window
    holds its samples of every series the rule names (only the
    freshest one unless the aggregate needs them all), each after the
    series' last earlier sample as the delta baseline, so
    :func:`judge_window` judges it as in the whole document.  A closed
    window keeps only its verdict (the last *history* of them); a
    sample older than the open window is dropped.
    """

    def __init__(self, rule: SloRule, history: int) -> None:
        self.rule = rule
        self.names = (rule.series, rule.ratio_to)
        self.width = int(rule.window_s * 1e9)
        self.keep_all = (rule.ratio_to is None
                         and rule.aggregate not in ("last", "delta"))
        #: Windows without samples are judged too (delta 0).
        self.zero_fill = rule.ratio_to is None and rule.aggregate == "delta"
        self.verdicts = deque(maxlen=history)
        self.index = 0
        self.open: Dict[tuple, list] = {}
        self.latest: Dict[tuple, tuple] = {}

    def feed(self, key: tuple, t: int, value: float) -> None:
        """Add one sample of the series ``key = (side, labels)``; side
        0 is ``rule.series`` and side 1 ``rule.ratio_to``."""
        index = t // self.width
        if index != self.index:
            if index < self.index:
                return
            self.verdicts.extend(self._judge(
                range(max(self.index, index - self.verdicts.maxlen), index),
                index * self.width))
            self.index = index
            self.open = {}
        samples = self.open.get(key)
        if samples is None:
            base = self.latest.get(key)
            samples = self.open[key] = [] if base is None else [base]
        sample = self.latest[key] = (t, value)
        if (self.keep_all or not samples
                or samples[-1][0] < index * self.width):
            samples.append(sample)
        else:
            samples[-1] = sample

    def _judge(self, windows: range, end_ns: int) -> list:
        """Verdicts of *windows* (indexes) in a document that ends at
        *end_ns*; past the open window only delta rules judge."""
        document = {"series": [{"name": self.rule.series, "samples": []}]
                    + [{"name": self.names[key[0]], "samples": samples}
                       for key, samples in self.open.items()]}
        out = []
        for k in windows:
            if k > self.index and not self.zero_fill:
                break
            verdict = judge_window(self.rule, document, k * self.width,
                                   min(end_ns, (k + 1) * self.width))
            if verdict is not None:
                out.append(verdict)
        return out

    def result(self, horizon_ns: int) -> RuleResult:
        """Every window that starts before *horizon_ns*, the last one
        ending there — the windows ``evaluate_rule`` judges."""
        ahead = range(self.index, -(-horizon_ns // self.width))
        return RuleResult(self.rule, list(self.verdicts)
                          + self._judge(ahead, horizon_ns))


def evaluate(rules: Sequence[SloRule], document: dict) -> HealthReport:
    """Evaluate every rule; results keep the caller's rule order."""
    return HealthReport([evaluate_rule(rule, document) for rule in rules])


#: Default rules for fleet/chaos runs: windowed read completion and a
#: radio duty-cycle ceiling.  The duty series measures whole-channel
#: airtime per shard (every node's frames), so the ceiling is a
#: channel-saturation guard — healthy scenarios sit around 2–4%;
#: retransmission storms push past 8%.
DEFAULT_RULES: Tuple[SloRule, ...] = (
    SloRule("read_completion", "reads_ok_total", aggregate="delta",
            ratio_to="reads_sent_total", op=">=", threshold=0.99,
            window_s=10.0),
    SloRule("duty_cycle_p95", "radio_duty_cycle", aggregate="p95",
            op="<", threshold=0.08, window_s=10.0),
)


__all__ = ["SloRule", "WindowVerdict", "RuleResult", "HealthReport",
           "evaluate", "evaluate_rule", "judge_window", "RuleWindows",
           "horizon_ns", "DEFAULT_RULES", "AGGREGATES"]
