"""Tracing kept outside the program: spans, a layer profile, a GC watch.

Nothing here imports the program under test.  The runner places spans
around the public calls it makes; the profile hook maps every Python frame
to a layer by the path of its source file and charges everything else (C
builtins such as ``sha256`` or ``sorted``, stdlib and numpy frames) to the
layer that called it, which yields per-layer *self* time: a layer boundary
is a call that crosses packages.  The simulator is single-threaded, so no
work ever waits for a layer in host time and there is no "waited" column.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Where time is charged when no layer owns the frame (the runner's own
#: files, the program's top-level modules, profiler roots).
OTHER = "other"


class Spans:
    """In-memory span log: ``(name, start, end, parent, trial)`` records.

    Spans of one trial share its index as identifier; ``parent`` is the
    index of the enclosing span in the log (-1 for a root).  Disabled, the
    context manager does nothing, so the untraced path shares the code.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[List] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, trial: int) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append([name, time.perf_counter(), None, parent, trial])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index][2] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(r[2] - r[1] for r in self.records if r[0] == name)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "trial")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, r)) for r in self.records], fh)


class GcWatch:
    """Collector pauses and counts via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


Owner = Tuple[str, str]  # (layer, module)


class LayerProfile:
    """``cProfile`` plus the attribution of its rows to layers.

    ``package_dir`` is the program's package directory and ``layers`` the
    sub-packages that count as layers; a frame from
    ``<package_dir>/<layer>/<module>.py`` is owned by ``(layer, module)``.
    """

    def __init__(self, package_dir: str, layers: Tuple[str, ...]) -> None:
        self._prefix = os.path.join(package_dir, "")
        self._layers = frozenset(layers)
        self._bench_dir = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), ""
        )
        self._profile = cProfile.Profile()

    @contextmanager
    def recording(self) -> Iterator[None]:
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()

    def _owner(self, filename: str) -> Optional[Owner]:
        """The layer owning a source file, or None for foreign frames."""
        if filename.startswith(self._prefix):
            parts = filename[len(self._prefix):].split(os.sep)
            if len(parts) > 1 and parts[0] in self._layers:
                return parts[0], os.path.splitext(parts[-1])[0]
            return OTHER, os.path.splitext(parts[-1])[0]
        if filename.startswith(self._bench_dir):
            return OTHER, "runner"
        return None

    def attribute(self):
        """``(self_s, calls)``: self seconds per owner, calls per function.

        A foreign function's self time is split across its callers by the
        per-edge self time ``cProfile`` records; a foreign *caller* passes
        its share on to its own callers in proportion to their cumulative
        edge time.  ``calls`` maps ``(layer, module, function)`` to the
        primitive call count of program functions.
        """
        stats = pstats.Stats(self._profile).stats
        self_s: Dict[Owner, float] = defaultdict(float)
        calls: Dict[Tuple[str, str, str], int] = {}
        shares: Dict[Tuple, Dict[Owner, float]] = {}

        def owners_of(func) -> Dict[Owner, float]:
            owner = self._owner(func[0])
            if owner is not None:
                return {owner: 1.0}
            known = shares.get(func)
            if known is not None:
                return known
            shares[func] = {}  # a foreign call cycle contributes nothing
            callers = stats[func][4]
            weight = sum(edge[3] for edge in callers.values())
            out: Dict[Owner, float] = defaultdict(float)
            if not callers or weight <= 0.0:
                out[(OTHER, "root")] = 1.0
            else:
                for caller, edge in callers.items():
                    for who, share in owners_of(caller).items():
                        out[who] += share * edge[3] / weight
            if not out:
                out[(OTHER, "root")] = 1.0
            shares[func] = dict(out)
            return shares[func]

        for func, (prim, _total, tottime, _cum, callers) in stats.items():
            owner = self._owner(func[0])
            if owner is not None:
                self_s[owner] += tottime
                if owner[0] != OTHER:
                    key = (owner[0], owner[1], func[2])
                    calls[key] = calls.get(key, 0) + prim
                continue
            if not callers:
                self_s[(OTHER, "root")] += tottime
                continue
            for caller, edge in callers.items():
                for who, share in owners_of(caller).items():
                    self_s[who] += edge[2] * share
        return dict(self_s), calls


def layer_seconds(self_s: Dict[Owner, float], layer: str, module: str = "") -> float:
    return sum(
        seconds
        for (lay, mod), seconds in self_s.items()
        if lay == layer and (not module or mod == module)
    )


def calls_of(
    calls: Dict[Tuple[str, str, str], int], layer: str, module: str, function: str
) -> int:
    return calls.get((layer, module, function), 0)
