"""Structural diff of two checkpoints — the bisection tool.

Works on the plain-data ``summary.json`` documents (never unpickles
state), so it can compare checkpoints across python versions and even
checkpoints whose layer schemas no longer load.  Documents are
flattened to dotted paths, then compared key-by-key into ``added`` /
``removed`` / ``changed`` buckets.

The intended workflow (see EXPERIMENTS.md) is chaos bisection: run a
failing campaign with periodic checkpoints, then diff the checkpoint
just before the fault window against the same instant of a clean run —
the changed paths name the layer where the divergence started.
"""

from __future__ import annotations

from typing import Any, Dict, List


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


def diff_documents(old: dict, new: dict) -> Dict[str, Dict[str, Any]]:
    """Compare two summary documents; ``{}`` when identical."""
    flat_old = flatten(old)
    flat_new = flatten(new)
    out: Dict[str, Dict[str, Any]] = {"added": {}, "removed": {}, "changed": {}}
    for key in sorted(set(flat_old) | set(flat_new)):
        if key not in flat_old:
            out["added"][key] = flat_new[key]
        elif key not in flat_new:
            out["removed"][key] = flat_old[key]
        elif flat_old[key] != flat_new[key]:
            out["changed"][key] = {"old": flat_old[key], "new": flat_new[key]}
    return out if any(out.values()) else {}


def diff_lines(old: dict, new: dict, *, limit: int = 200) -> List[str]:
    """Human-readable diff report, one line per divergent path."""
    delta = diff_documents(old, new)
    if not delta:
        return ["checkpoints are structurally identical"]
    lines: List[str] = []
    for key, value in delta["removed"].items():
        lines.append(f"- {key} = {value!r}")
    for key, value in delta["added"].items():
        lines.append(f"+ {key} = {value!r}")
    for key, change in delta["changed"].items():
        lines.append(f"~ {key}: {change['old']!r} -> {change['new']!r}")
    total = len(lines)
    if total > limit:
        lines = lines[:limit]
        lines.append(f"... {total - limit} more divergent paths")
    return lines


__all__ = ["diff_documents", "diff_lines"]
