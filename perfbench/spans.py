"""In-memory spans around the calls into each triapn layer.

The tracer wraps public functions from the benchmark's side: it replaces a
name in every module that looks the name up, records one span per call
(name, start, end, parent) in flat arrays, and puts the originals back when
it is removed.  Several modules import functions by name (``geometry``
imports ``build_certificate``, ``derivative_matrix``, ``kernel_basis`` and
``verify_solution``; ``identities`` imports ``resultant``, ``divide_exact``
and ``make_field``; ``cli`` and ``derivative`` import ``make_field``), so
each such name is wrapped in the module that calls it as well as where it
is defined.

Pool workers are forked from the traced process.  They inherit the
wrappers, but their spans stay in their own memory: only parent-side spans
are seen, and the work inside a worker shows as the parent's wait.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from contextlib import contextmanager
from typing import NamedTuple

WORKER_NOTE = ("spans cover the traced process only: work done inside forked pool "
               "workers (spectrum and exhaustive-witness chunks) is not traced and "
               "shows as time in the parent's derivative span")


class Traced(NamedTuple):
    """One traced callable and the metrics that are read from its spans."""

    span: str                 # span name
    attr: str                 # attribute (function, or method for METHODS)
    where: tuple[str, ...]    # modules that look the function up; the class's module
    metric: str | None = None  # per-layer metric prefix: "<metric>_calls", "<metric>_s"
    wraps: tuple[str, ...] = ()  # op kinds whose library call this is
    owner: str | None = None  # class that defines the method (METHODS only)


FUNCTIONS = (
    Traced("gf2m.make_field", "make_field", ("gf2m", "cli", "derivative", "identities"),
           metric="gf2m.make_field"),
    Traced("mpoly.resultant", "resultant", ("mpoly", "identities"), metric="mpoly.resultant"),
    Traced("mpoly.divide_exact", "divide_exact", ("mpoly", "identities"),
           metric="mpoly.divide_exact"),
    Traced("identities.verified_surface_coefficients", "verified_surface_coefficients",
           ("identities",)),
    Traced("derivative.differential_spectrum", "differential_spectrum", ("derivative",),
           wraps=("spectrum",)),
    Traced("derivative.witness_search", "witness_search", ("derivative",),
           wraps=("witness", "sampled")),
    Traced("derivative.derivative_matrix", "derivative_matrix", ("derivative", "geometry"),
           metric="derivative.matrix"),
    Traced("derivative.kernel_dim", "kernel_dim", ("derivative",), metric="derivative.kernel_dim"),
    Traced("derivative.kernel_basis", "kernel_basis", ("derivative", "geometry"),
           metric="derivative.kernel_basis"),
    Traced("derivative.build_certificate", "build_certificate", ("derivative", "geometry"),
           metric="derivative.cert_build"),
    Traced("derivative.verify_certificate", "verify_certificate", ("derivative",),
           metric="derivative.cert_verify", wraps=("verify_cert",)),
    Traced("derivative.verify_solution", "verify_solution", ("derivative", "geometry")),
    Traced("geometry.surface_report", "surface_report", ("geometry",), wraps=("surface",)),
    Traced("geometry.cross_validate", "cross_validate", ("geometry",),
           wraps=("cross_validate",)),
    Traced("geometry.point_to_witness", "point_to_witness", ("geometry",),
           metric="geometry.reconstruct"),
)
# generator functions: one span per resumption
GENERATORS = (
    Traced("geometry.iter_surface_points", "iter_surface_points", ("geometry",)),
)
METHODS = (
    Traced("geometry.SurfaceEvaluator", "__init__", ("geometry",), metric="geometry.evaluator",
           owner="SurfaceEvaluator"),
    Traced("geometry.surface_coeffs", "surface_coeffs", ("geometry",),
           owner="SurfaceEvaluator"),
)
# traced span name -> per-layer metric prefix
CALLS_AND_TIME = {t.span: t.metric for t in FUNCTIONS + METHODS if t.metric}
# op kind -> the span of the library call the op wraps; the rest of the op is CLI overhead
LIBRARY_CALL = {kind: t.span for t in FUNCTIONS for kind in t.wraps}


class Tracer:
    """Flat span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.generator_calls: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            self.generator_calls[name] = self.generator_calls.get(name, 0) + 1
            gen = fn(*args, **kwargs)
            while True:
                sid = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                yield item
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> list[str]:
        """Wrap every traced name that the package defines; returns the missing ones."""
        missing = []
        for specs, wrap in ((FUNCTIONS, self._wrap), (GENERATORS, self._wrap_generator)):
            for t in specs:
                for mod_name in t.where:
                    mod = getattr(package, mod_name)
                    if not hasattr(mod, t.attr):
                        missing.append(f"{mod_name}.{t.attr}")
                        continue
                    self._patch(mod, t.attr, wrap(t.span, getattr(mod, t.attr)))
        for t in METHODS:
            mod_name = t.where[0]
            cls = getattr(getattr(package, mod_name), t.owner, None)
            if cls is None or t.attr not in vars(cls):
                missing.append(f"{mod_name}.{t.owner}.{t.attr}")
                continue
            self._patch(cls, t.attr, self._wrap(t.span, vars(cls)[t.attr]))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def name(self, sid: int) -> str:
        return self.names[self.name_id[sid]]

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        out = [0.0] * len(self)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                out[par] += self.end[sid] - self.start[sid]
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = self.child_time()
        out: dict[str, dict[str, float]] = {}
        for sid in range(len(self)):
            rec = out.setdefault(self.name(sid), {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.duration(sid)
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[sid]
        return out

    def direct_children(self, parents: set[int]) -> dict[int, dict[str, float]]:
        """For each span in ``parents``: child span name -> summed duration."""
        out: dict[int, dict[str, float]] = {p: {} for p in parents}
        for sid, par in enumerate(self.parent):
            if par in out:
                by_name = out[par]
                name = self.name(sid)
                by_name[name] = by_name.get(name, 0.0) + self.duration(sid)
        return out

    def write(self, path) -> None:
        """Write every span, columnar, as gzipped JSON."""
        doc = {
            "note": WORKER_NOTE,
            "names": self.names,
            "name": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
