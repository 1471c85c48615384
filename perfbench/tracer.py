"""Spans around every public function of every gradix layer, from outside.

The tracer replaces each traced function object wherever a `gradix.*`
module binds it (a `from .linalg import kernel_basis` in four modules
means four bindings of one object), and the few class methods the
per-layer metrics need.  `poly` and `fields` are not wrapped: they run
millions of times per op, and their cost lands in the self time of the
layer that called them.  `oracle.sum_entries` is the same kind of
per-entry arithmetic and is left out for the same reason.

Spans live in memory as parallel arrays (name, start, end, parent, op id)
and are written out by `write`.  Self time is a span's duration minus the
time its traced child spans cover, accumulated as spans close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("gxparser", "groebner", "artin", "linalg", "invsys", "star", "reduc", "oracle", "upoly", "cli")
METHODS = {
    "groebner": {"Ideal": ("groebner_basis", "normal_form")},
    "artin": {"QuotientBasis": ("__init__", "action_matrix")},
    "linalg": {"Span": ("add",)},
}
UNTRACED = {"oracle.sum_entries"}
ROOT = "bench.op"


# work counts recorded at a span boundary, beside calls and self time:
# span name -> (bound arguments, result) -> count
SIZES = {
    "groebner.buchberger": lambda a, r: len(r),
    "artin.QuotientBasis.__init__": lambda a, r: a["self"].dimension,
    "linalg.kernel_basis": lambda a, r: len(a["rows"]) * a["ncols"],
    "oracle.enumerate_ideals": lambda a, r: len(r.members),
}


def targets(package):
    """(span name, owner, attribute, function) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                out.append((name, mod, attr, obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for attr in methods:
                out.append((f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]))
    return out


def bindings(package):
    """Every place a traced function object is reachable from: (owner,
    attribute, function).  Module globals are matched by identity."""
    found = targets(package)
    by_id = {id(f): f for _, _, _, f in found}
    out = [(owner, attr, f) for _, owner, attr, f in found if inspect.isclass(owner)]
    prefix = package.__name__
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, obj in vars(mod).items():
            if id(obj) in by_id and by_id[id(obj)] is obj:
                out.append((mod, attr, obj))
    return out


def moved(pristine):
    """Bindings from `bindings` that no longer hold their original function."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, f in pristine
        if getattr(owner, attr) is not f
    ]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = [ROOT]
        self.name_id = {ROOT: 0}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sizes: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self._op = -1
        self._installed: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def install(self):
        wrappers = {}
        for name, _, _, f in targets(self.package):
            self.name_id[name] = len(self.names)
            self.names.append(name)
            wrappers[id(f)] = self._wrap(name, f)
        for owner, attr, f in bindings(self.package):
            self._installed.append((owner, attr, f))
            setattr(owner, attr, wrappers[id(f)])

    def uninstall(self):
        for owner, attr, f in reversed(self._installed):
            setattr(owner, attr, f)
        self._installed.clear()

    def _wrap(self, name, f):
        nid = self.name_id[name]
        size = SIZES.get(name)
        sig = inspect.signature(f) if size else None
        tracer = self

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return f(*args, **kwargs)
            frame, t0 = tracer._open(nid)
            try:
                result = f(*args, **kwargs)
            finally:
                tracer._close(name, frame, t0)
            if size:
                n = size(sig.bind(*args, **kwargs).arguments, result)
                tracer.sizes[name] = tracer.sizes.get(name, 0) + n
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        self.span_start.append(t0)
        return frame, t0

    def _close(self, name, frame, t0):
        t1 = perf_counter()
        self._stack.pop()
        self.span_end[frame[0]] = t1
        dur = t1 - t0
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += dur

    def begin_op(self, op_index):
        self._op = op_index
        self._root = self._open(0)

    def end_op(self):
        self._close(ROOT, *self._root)
        self._op = -1

    # -- output --------------------------------------------------------------

    def write(self, path, header):
        """Spans as gzip'd tab-separated text: index, name, start, end,
        parent index, op id; times in seconds from the first span."""
        base = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(f"# {header}\n# span\tname\tstart_s\tend_s\tparent\top\n")
            for i, nid in enumerate(self.span_name):
                fh.write(
                    f"{i}\t{self.names[nid]}\t{self.span_start[i] - base:.9f}\t"
                    f"{self.span_end[i] - base:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
