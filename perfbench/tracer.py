"""Outside-in span tracer for the hermhull layers.

The tracer replaces the public functions of each layer with a wrapper that
records one span per call: name, start, end, parent span, construction
instance and thread.  Spans stay in memory, in one buffer per thread, and
are written out once at the end with :meth:`Tracer.dump`.

Functions imported by name (``from .linalg_codes import mat_mul``) are bound
once per importing module, so patching the defining module alone would miss
those call sites.  :meth:`Tracer.install` therefore also rebinds every
global of every loaded ``hermhull`` module that still refers to a wrapped
original.

Each wrapped binding may carry a work function that turns the call's
arguments and result into an exact count (cells, multiply-accumulates,
codewords, elements), so work counters repeat exactly between runs while
times do not.  Scalar ``FieldContext.add``/``mul`` are deliberately not
wrapped: they run millions of times and their cost shows up as the self
time of the ``polys``/``ag`` spans that call them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "hermhull"


# -- work functions: (args, kwargs, result) -> exact count ----------------

def _result_size(args, kwargs, result):
    return int(np.size(result))


def _matrix_cells(args, kwargs, result):
    rows, cols = np.shape(args[1])
    return rows * cols


def _macs(args, kwargs, result):
    a, b = np.shape(args[1])
    return a * b * np.shape(args[2])[1]


def _codewords(args, kwargs, result):
    field, gen = args[0], args[1]
    return field.order ** np.shape(gen)[0]


def _code_length(args, kwargs, result):
    return args[0].n


def _point_count(args, kwargs, result):
    return len(args[1])


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


_ARRAY_METHODS = ("add_arr", "mul_arr", "neg_arr", "inv_arr", "pow_q_arr",
                  "embed_arr", "project_arr")

#: (module, attribute path, work function) for every traced binding
TARGETS: tuple[tuple[str, str, object], ...] = (
    *(("gf", f"FieldContext.{m}", _result_size) for m in _ARRAY_METHODS),
    ("linalg_codes", "rref", _matrix_cells),
    ("linalg_codes", "nullspace", _matrix_cells),
    ("linalg_codes", "mat_mul", _macs),
    ("linalg_codes", "gram_matrix", None),
    ("linalg_codes", "matrix_rank", None),
    ("linalg_codes", "_enumerate_min_weight", _codewords),
    ("linalg_codes", "LinearCode.hermitian_hull", _code_length),
    ("linalg_codes", "LinearCode.min_distance", None),
    ("linalg_codes", "LinearCode.contains", None),
    ("ag", "residues", _point_count),
    ("ag", "evaluation_set", None),
    ("ag", "evaluation_code", None),
    ("ag", "lbasis", None),
    ("ag", "two_point_code", None),
    ("grs", "construct_family", None),
    ("grs", "verify_claim", None),
    ("quantum", "chain_to_json", None),
    ("report", "ConstructionReport.to_canonical_dict", None),
    ("cli", "_dump", _text_bytes),
)

#: a top-level call to one of these starts a new construction instance
INSTANCE_OPENERS = frozenset({"grs.construct_family", "ag.evaluation_set"})


def polys_targets() -> list[tuple[str, str, object]]:
    """Every public function defined in ``hermhull.polys``."""
    polys = importlib.import_module(f"{PACKAGE}.polys")
    return [("polys", name, None)
            for name, fn in inspect.getmembers(polys, inspect.isfunction)
            if fn.__module__ == polys.__name__ and not name.startswith("_")]


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, tid: int, n_names: int):
        self.tid = tid
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current = -1
        # per name: calls completed, work summed, largest single work
        self.counts = [[0, 0, 0] for _ in range(n_names)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._instances = itertools.count()
        self._report_instance: dict[int, tuple[object, int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, object] = {}

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every by-name import of one."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = list(TARGETS) + polys_targets()
        self.names = [f"{mod}.{path}" for mod, path, _ in targets]
        by_original: dict[int, tuple[object, object]] = {}
        for nid, (mod, path, work) in enumerate(targets):
            owner = importlib.import_module(f"{PACKAGE}.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(nid, original, work)
            self._patch(owner, attr, original, wrapper)
            self.wrappers[self.names[nid]] = wrapper
            by_original[id(original)] = (original, wrapper)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_original.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        with self._lock:
            buf = _Buffer(len(self._buffers), len(self.names))
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _wrap(self, nid: int, fn, work):
        local = self._local
        clock = time.perf_counter
        name = self.names[nid]
        opens = name in INSTANCE_OPENERS
        report_of = {"grs.verify_claim": lambda r: r,
                     "ag.two_point_code": lambda r: r.report}.get(name)
        serialises = name == "report.ConstructionReport.to_canonical_dict"
        report_instance = self._report_instance

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            i = len(buf.name)
            if stack:
                buf.parent.append(stack[-1])
            else:
                buf.parent.append(-1)
                if opens:
                    buf.current = next(self._instances)
            instance = buf.current
            if serialises:
                instance = report_instance.get(id(args[0]), (None, instance))[1]
            buf.instance.append(instance)
            buf.name.append(nid)
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()
            c = buf.counts[nid]
            c[0] += 1
            if work is not None:
                w = work(args, kwargs, result)
                c[1] += w
                if w > c[2]:
                    c[2] = w
            if report_of is not None:
                rep = report_of(result)
                # keep the report alive so its id is not reused
                report_instance[id(rep)] = (rep, instance)
            return result

        wrapper.__perfbench_name__ = name
        return wrapper

    # -- output -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All threads' spans as arrays; parents index the merged order."""
        cols = {k: [] for k in ("name", "parent", "instance", "thread",
                                "start", "end")}
        offset = 0
        for buf in self._buffers:
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            cols["instance"].append(np.frombuffer(buf.instance, dtype=np.int32))
            cols["thread"].append(np.full(len(buf.name), buf.tid, dtype=np.int32))
            cols["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            offset += len(buf.name)
        return {k: np.concatenate(v) for k, v in cols.items()}

    def counts(self) -> dict[str, dict[str, int]]:
        """Per traced name: completed calls, summed work, largest work."""
        out = {}
        for nid, name in enumerate(self.names):
            calls = sum(b.counts[nid][0] for b in self._buffers)
            work = sum(b.counts[nid][1] for b in self._buffers)
            peak = max((b.counts[nid][2] for b in self._buffers), default=0)
            out[name] = {"calls": calls, "work": work, "work_max": peak}
        return out

    def dump(self, path) -> dict[str, dict[str, int]]:
        """Write the spans to ``path`` (.npz) and return the counters."""
        np.savez(path, names=np.array(self.names), **self.spans())
        return self.counts()
