"""Span tracing around the calls into each polarlap layer.

The tracer patches the names each module looks up (module globals such as
``polarlap.experiments.solve`` or ``scipy.sparse.linalg.cg``, and the
constructors of ``PuncturedDomain`` and ``GridFunction``) with thin
wrappers, from outside the package.  Spans (name, start, end, parent, pass
id) are kept in flat in-memory arrays and written out once at the end.
A layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

# layer group -> (module, attribute names) patched everywhere they are bound
SPAN_TARGETS = {
    "cli.main": ("polarlap.cli", ("main",)),
    "cli.parse": ("polarlap.cli", ("parse_config",)),
    "experiments": ("polarlap.experiments",
                    ("translate_sweep", "rotate_sweep", "fk_check",
                     "annulus_study", "symmetry_check")),
    "geometry.rasterize": ("polarlap.geometry", ("rasterize",)),
    "geometry.polarize": ("polarlap.geometry",
                          ("polarize_set", "dual_polarize_set", "reflect_set",
                           "witness_sets", "polarize_punctured")),
    "geometry.predicate": ("polarlap.geometry",
                           ("is_polarization_invariant",
                            "is_dual_polarization_invariant",
                            "is_reflection_symmetric", "is_steiner_symmetric",
                            "is_foliated_schwarz", "directionally_convex")),
    "rearrange.polarize_function": ("polarlap.rearrange", ("polarize_function",)),
    "rearrange.norm": ("polarlap.rearrange", ("nodal_p_norm",)),
    "discretize.triangulate": ("polarlap.discretize", ("triangulate",)),
    "discretize.energy": ("polarlap.discretize",
                          ("energy_p", "grad_energy_p", "mass_p", "grad_mass_p")),
    "eigensolve.solve": ("polarlap.eigensolve", ("solve",)),
    "eigensolve.factor": ("scipy.sparse.linalg", ("splu",)),
    "eigensolve.krylov": ("scipy.sparse.linalg", ("cg",)),
    "formats.emit": ("polarlap.formats",
                     ("raster_to_pgm", "function_to_pgm", "function_to_csv",
                      "sweep_to_csv", "dumps_json", "sweep_to_svg")),
}
# layer group -> (module, class, method): spans around a class method
METHOD_SPANS = {
    "geometry.domain": ("polarlap.geometry", "PuncturedDomain", "__init__"),
}
# layer group -> (module, class, method): call counts only (hot, no span)
METHOD_COUNTS = {
    "rearrange.gridfunction": ("polarlap.rearrange", "GridFunction", "__post_init__"),
}
BYTE_GROUPS = ("formats.emit",)


class Tracer:
    """Records spans in flat arrays; install() patches, restore() undoes."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.current_pass = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _label(self, label: str) -> int:
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return self._label_id[label]

    def wrap(self, label: str, fn, count_bytes: bool = False):
        lid = self._label(label)
        clock, stack = time.perf_counter, self._stack
        name, parent, pass_id, start, end = (self.name, self.parent,
                                             self.pass_id, self.start, self.end)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(lid)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(tracer.current_pass)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_bytes and isinstance(out, str):
                tracer.bytes[label] += len(out.encode("utf-8"))
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, label: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Replace every module-level binding of `original` in polarlap and
        scipy.sparse.linalg; returns how many bindings were replaced."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname.startswith("polarlap")
                                   or modname == "scipy.sparse.linalg"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))
                    n += 1
        return n

    def install(self) -> "Tracer":
        for label, (modname, attrs) in SPAN_TARGETS.items():
            mod = importlib.import_module(modname)
            for attr in attrs:
                fn = getattr(mod, attr)
                wrapped = self.wrap(label, fn, count_bytes=label in BYTE_GROUPS)
                if not self._rebind(fn, wrapped):
                    raise RuntimeError(f"no binding of {modname}.{attr} found")
        for table, make in ((METHOD_SPANS, self.wrap), (METHOD_COUNTS, self.counter)):
            for label, (modname, clsname, meth) in table.items():
                cls = getattr(importlib.import_module(modname), clsname)
                fn = cls.__dict__[meth]
                setattr(cls, meth, make(label, fn))
                self._undo.append((cls, meth, fn))
        return self

    def restore(self) -> None:
        while self._undo:
            obj, key, val = self._undo.pop()
            setattr(obj, key, val)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{group: {"self_s": ..., "calls": ...}} summed over all spans."""
        out: dict[str, dict[str, float]] = {}
        for i, own in enumerate(self.self_times()):
            rec = out.setdefault(self.labels[self.name[i]],
                                 {"self_s": 0.0, "calls": 0})
            rec["self_s"] += own
            rec["calls"] += 1
        return out

    def write(self, path) -> None:
        """Gzipped CSV of every span, written once when the run ends."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start,end,parent,pass\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.labels[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.pass_id[i]}\n")
