"""Span tracing for the traced benchmark run, installed from outside cpcat.

Each traced layer function is replaced by a wrapper in every ``cpcat.*``
namespace that binds it (``cp.py`` does ``from .core import compose``, so
patching ``core.compose`` alone would miss those calls), and in every
module-level dict that holds it (``AXIOM_RUNNERS``).  A span records its
name, its parent span, and start and end times.  Spans stay in compact
in-memory arrays until the run ends; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# Public functions traced per module, named ``<module>.<function>``.
FUNCTIONS = {
    "core": ("compose", "tensor", "factor_permutation", "check_laws"),
    "instances": ("cup", "conj_star", "name_of"),
    "cp": ("cp_form", "cp_compose", "cp_tensor", "cp_deviation"),
    "cpm": ("cpm_form", "cpm_dagger"),
    "channels": ("choi_of_kraus", "kraus_from_choi", "check_cp"),
    "axioms": ("run_env_a", "run_env_b", "run_env_c", "run_doubling",
               "run_prep_state", "run_replay", "run_xi"),
    "dsl": ("tokenize", "parse_script", "parse_expr", "eval_script",
            "eval_term", "read_morfile", "write_morfile"),
    "cli": ("main",),
}

# Spans that are not module-level functions: the ``Mor`` constructor, the
# semiring kernels split by semiring, and ``numpy.linalg.eigh`` as
# ``channels`` calls it.
SPECIAL_SPANS = ("core.Mor", "core.matmul.complex", "core.matmul.bool",
                 "core.kron", "channels.eigh")

# Counters recorded at layer boundaries: (metric name, unit).
COUNTERS = (("core.Mor.bytes_in", "B"), ("core.Mor.max_mb", "MB"),
            ("core.factor_permutation.max_dim", "dim"))

OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def layer_spans() -> list:
    """Every traced layer span name, in report order."""
    names = []
    for module, funcs in FUNCTIONS.items():
        names.extend(f"{module}.{f}" for f in funcs)
        names.extend(s for s in SPECIAL_SPANS if s.startswith(module + "."))
    return names


def metric_units() -> dict:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {}
    for span in layer_spans():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.total_s"] = "s"
    units.update(COUNTERS)
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


class Tracer:
    """In-memory span store plus the layer counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.mor_bytes = 0
        self.mor_max_bytes = 0
        self.perm_max_dim = 0

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span named by ``nid``."""
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.span_id(name)
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        return traced

    def totals(self) -> dict:
        """Per span name: calls, summed self time and summed duration."""
        nid = np.frombuffer(self.name_id, dtype=np.intc).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.intp)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(self.names)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        self_t = dur - children
        calls = np.bincount(nid, minlength=n)
        self_s = np.bincount(nid, weights=self_t, minlength=n)
        total_s = np.bincount(nid, weights=dur, minlength=n)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path, **extra) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end),
                 **{k: np.array(v) for k, v in extra.items()})


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer):
    """Trace every layer; returns a function that restores the originals."""
    undo = []

    def setattr_undoable(obj, attr, value):
        undo.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def rebind(orig, wrapped):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cpcat"
                                      or name.startswith("cpcat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr_undoable(module, attr, wrapped)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            undo.append((dict.__setitem__, value, key, orig))
                            value[key] = wrapped

    for module_name, funcs in FUNCTIONS.items():
        module = importlib.import_module(f"cpcat.{module_name}")
        for fname in funcs:
            orig = getattr(module, fname)
            if fname == "factor_permutation":
                wrapped = _perm_wrapper(tracer, orig)
            else:
                wrapped = tracer.wrap(f"{module_name}.{fname}", orig)
            rebind(orig, wrapped)

    core = importlib.import_module("cpcat.core")
    setattr_undoable(core.Mor, "__init__", _mor_init(tracer, core.Mor.__init__))
    matmul_ids = {name: tracer.span_id(f"core.matmul.{name}")
                  for name in core.SEMIRINGS}
    orig_matmul = core.Semiring.matmul

    def matmul(self, a, b):
        return tracer.call(matmul_ids[self.name], orig_matmul, (self, a, b), {})
    setattr_undoable(core.Semiring, "matmul", matmul)
    setattr_undoable(core.Semiring, "kron",
                     tracer.wrap("core.kron", core.Semiring.kron))

    channels = importlib.import_module("cpcat.channels")
    np_mod = channels.np
    linalg = _Proxy(np_mod.linalg,
                    eigh=tracer.wrap("channels.eigh", np_mod.linalg.eigh))
    setattr_undoable(channels, "np", _Proxy(np_mod, linalg=linalg))

    def restore():
        for op, obj, key, value in reversed(undo):
            op(obj, key, value)
    return restore


def _mor_init(tracer: Tracer, orig):
    nid = tracer.span_id("core.Mor")

    def __init__(self, *args, **kwargs):
        tracer.call(nid, orig, (self,) + args, kwargs)
        nbytes = self.array.nbytes
        tracer.mor_bytes += nbytes
        if nbytes > tracer.mor_max_bytes:
            tracer.mor_max_bytes = nbytes
    return __init__


def _perm_wrapper(tracer: Tracer, orig):
    nid = tracer.span_id("core.factor_permutation")

    @functools.wraps(orig)
    def factor_permutation(*args, **kwargs):
        result = tracer.call(nid, orig, args, kwargs)
        tracer.perm_max_dim = max(tracer.perm_max_dim, result.dom.dim)
        return result
    return factor_permutation


def layer_metrics(tracer: Tracer, rounds: int, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced round of the work list."""
    totals = tracer.totals()
    metrics = {}
    for span in layer_spans():
        calls, self_s, total_s = totals.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = calls / rounds
        metrics[f"{span}.self_s"] = self_s / rounds
        metrics[f"{span}.total_s"] = total_s / rounds
    metrics["core.Mor.bytes_in"] = tracer.mor_bytes / rounds
    metrics["core.Mor.max_mb"] = tracer.mor_max_bytes / 2 ** 20
    metrics["core.factor_permutation.max_dim"] = tracer.perm_max_dim
    metrics[OVERHEAD_METRIC[0]] = overhead_ratio
    return metrics
