"""Spans around the library's layers, recorded from outside the library.

Tracer.install wraps each layer function named in LAYERS and rebinds the
wrapper wherever the library holds the original: in every degenpart
module namespace that imported the name, or on the class for a method.
Tracer.uninstall puts the originals back.  A name the library no longer
has is reported as absent and left alone.

Each span records (layer, start, end, parent span, request id); spans
stay in memory until write() saves them.  A layer's self time is its
span's duration minus the time covered by its child spans, kept as the
spans close.
"""

from __future__ import annotations

import sys
import time
from array import array

# span name -> the library objects it wraps, as "module:qualified.name"
LAYERS = {
    "cli.main": ("cli:main",),
    "instancefile.parse_instance": ("instancefile:parse_instance",),
    "instancefile.emit": (
        "instancefile:emit_partition",
        "instancefile:emit_coloring",
        "instancefile:emit_certificates",
        "instancefile:emit_certificate",
    ),
    "partition.solve": ("partition:solve",),
    "partition.reduce_pair": ("partition:reduce_pair",),
    "partition.enforce_degree_bounds": ("partition:enforce_degree_bounds",),
    "partition.verify_partition": ("partition:verify_partition",),
    "coloring.list_color": ("coloring:list_color",),
    "hardpair.is_hard": ("hardpair:is_hard",),
    "structure.separating_vertices": ("structure:separating_vertices",),
    "structure.components": ("structure:components",),
    "structure.blocks": ("structure:blocks",),
    "degeneracy.is_strictly_degenerate": ("degeneracy:is_strictly_degenerate",),
    "hypergraph.shrink_away": ("hypergraph:Hypergraph.shrink_away",),
    "hypergraph.induced": ("hypergraph:Hypergraph.induced",),
}
# counted without a span: construction is inside the spans that build results
COUNTED = {"hypergraph.Hypergraph": "hypergraph:Hypergraph.__init__"}
# layers whose non-None results are counted as hits
HITS = ("hardpair.is_hard",)


def _resolve(target: str):
    """(owner, attribute, original) for "module:qualname", or None if absent."""
    module_name, qualname = target.split(":")
    owner = sys.modules.get(f"degenpart.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps the library's layers and keeps their spans and per-layer totals."""

    FIELDS = (("id", "q"), ("layer", "h"), ("start", "d"), ("end", "d"), ("parent", "q"), ("request", "q"))

    def __init__(self):
        self.names = list(LAYERS) + list(COUNTED)
        self.absent: list[str] = []
        self.request = -1
        self._stack: list[list] = []  # [span id, child time] of the open spans
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self.spans = {key: array(code) for key, code in self.FIELDS}
        self.reset()

    def reset(self) -> None:
        """Drop the spans and totals recorded so far."""
        for column in self.spans.values():
            del column[:]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.hits = [0] * n

    def _span(self, fn, k: int, count_hits: bool):
        stack, clock = self._stack, time.perf_counter
        ids, layers, starts, ends, parents, requests = (self.spans[key] for key, _ in self.FIELDS)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[k] += 1
                self.self_s[k] += dur - frame[1]
                self.total_s[k] += dur
                if stack:
                    stack[-1][1] += dur
                ids.append(sid)
                layers.append(k)
                starts.append(start)
                ends.append(end)
                parents.append(stack[-1][0] if stack else -1)
                requests.append(self.request)
            if count_hits and result is not None:
                self.hits[k] += 1
            return result

        return wrapper

    def _counter(self, fn, k: int):
        def wrapper(*args, **kwargs):
            self.calls[k] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "degenpart" or name.startswith("degenpart.")]
        self.absent = []
        for k, name in enumerate(self.names):
            targets = LAYERS.get(name) or (COUNTED[name],)
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, orig = found
                if name in COUNTED:
                    wrapper = self._counter(orig, k)
                else:
                    wrapper = self._span(orig, k, name in HITS)
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._rebind(module, key, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[k], "self_s": self.self_s[k], "total_s": self.total_s[k], "hits": self.hits[k]}
            for k, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Save every recorded span as tab-separated text."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(key for key, _ in self.FIELDS) + "\n")
            for sid, k, start, end, parent, req in zip(*self.spans.values()):
                fh.write(f"{sid}\t{self.names[k]}\t{start:.9f}\t{end:.9f}\t{parent}\t{req}\n")
