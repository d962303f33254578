"""Named, independently-seeded random streams.

Every stochastic model in the reproduction (component tolerances, CSMA
backoff, sensor noise, packet loss) draws from its own named stream so
that changing one model never perturbs the randomness seen by another —
a prerequisite for meaningful A/B experiments on a simulator.

The registry is also the checkpoint boundary for entropy: every stream
and every forked child registry is tracked by name, so
:meth:`RngRegistry.snapshot_state` / :meth:`RngRegistry.restore_state`
round-trip the *entire* randomness tree via ``getstate``/``setstate``.
No model may draw from an ad-hoc ``random.Random`` — randomness that
is not in the registry silently escapes checkpoints.

Note the registry deliberately does **not** route
``__getstate__``/``__setstate__`` to these methods, unlike the layers
built on :class:`repro.snapshot.state.DeclaredState`: inside a full
shard checkpoint the registry pickles plainly (its attributes, whose
stream dicts hold the Random instances themselves), so streams
captured in closures stay *the same objects* as the registry's entries
after restore.  The explicit methods are for targeted state transfer —
tests, forked variants, partial restores — and rewind streams in
place.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(text: str) -> int:
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory for deterministic per-purpose :class:`random.Random` streams.

    >>> reg = RngRegistry(seed=42)
    >>> a1 = reg.stream("csma").random()
    >>> b1 = reg.stream("noise").random()
    >>> reg2 = RngRegistry(seed=42)
    >>> reg2.stream("csma").random() == a1
    True
    >>> reg2.stream("noise").random() == b1
    True
    """

    SNAPSHOT_SCHEMA = {
        "layer": "sim",
        "version": 1,
        "fields": ("_seed", "_streams", "_children"),
    }

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}
        self._children: Dict[str, "RngRegistry"] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(f"{self._seed}:{name}"))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """The child registry for *name* (e.g. one per simulated node).

        Forks are cached: ``fork("client")`` called twice returns the
        same registry, so separately-constructed components can share
        one entropy subtree — and the whole tree stays reachable for
        checkpointing.
        """
        child = self._children.get(name)
        if child is None:
            child = RngRegistry(_derive_seed(f"{self._seed}/fork:{name}"))
            self._children[name] = child
        return child

    # -------------------------------------------------------------- traversal
    def streams(self) -> Dict[str, random.Random]:
        """Materialized streams by name (live references, not copies)."""
        return dict(self._streams)

    def stream_names(self):
        return sorted(self._streams)

    def children(self) -> Dict[str, "RngRegistry"]:
        """Forked child registries by fork name."""
        return dict(self._children)

    # ------------------------------------------------------------- checkpoint
    def snapshot_state(self) -> dict:
        """Full entropy-tree state: seeds plus Mersenne internals."""
        return {
            "_schema": self.SNAPSHOT_SCHEMA["version"],
            "seed": self._seed,
            "streams": {
                name: rng.getstate()
                for name, rng in sorted(self._streams.items())
            },
            "children": {
                name: child.snapshot_state()
                for name, child in sorted(self._children.items())
            },
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild streams/children in place from :meth:`snapshot_state`.

        Existing stream objects are reused (``setstate`` in place) so
        references held elsewhere keep pointing at live streams.
        """
        from repro.snapshot.migrate import upgrade_state

        state = upgrade_state(type(self), state)
        self._seed = int(state["seed"])
        for name, rng_state in state["streams"].items():
            self.stream(name).setstate(rng_state)
        for name in list(self._streams):
            if name not in state["streams"]:
                del self._streams[name]
        for name, child_state in state["children"].items():
            child = self._children.get(name)
            if child is None:
                child = RngRegistry(0)
                self._children[name] = child
            child.restore_state(child_state)
        for name in list(self._children):
            if name not in state["children"]:
                del self._children[name]

    def perturb(self, salt: str) -> None:
        """Reseed every stream (recursively) from *salt* — in place.

        The warm-start fork primitive: restore a checkpoint, perturb
        with a variant salt, and every stream — including those already
        captured inside scheduled closures — diverges deterministically
        while all non-random state stays warm.
        """
        for name, rng in sorted(self._streams.items()):
            rng.seed(_derive_seed(f"{self._seed}:{name}:perturb:{salt}"))
        for name, child in sorted(self._children.items()):
            child.perturb(f"{salt}/{name}")


__all__ = ["RngRegistry"]
