"""Per-layer tracing from outside the package.

``SpanTracer`` wraps the public functions and methods in ``TARGETS``:
module functions are replaced under every name that a
``quadricpoints.*`` module bound them to, methods on their class.  Each
call records a span (id, name, start, end, parent, job, work) into a
per-thread buffer; the parent comes from a thread-local stack, and a
span opened on a ``--jobs`` pool thread is parented to the job's
``cli.main`` span.  ``CountTracer`` is a separate pass that only counts
F_q operations and takes the ``tracemalloc`` peak of each
``convolution_count`` call, so neither cost lands in span times.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

# span fields, one float64 each
FIELDS = ["id", "name", "start", "end", "parent", "job", "work"]
SID, NAME, T0, T1, PARENT, JOB, WORK = range(len(FIELDS))


def _q_pow(ctx, e: int) -> int:
    return ctx.q**e if e > 0 else 1


# (span name, module, attribute, work): "Cls.meth" patches the class; work is
# (metric suffix, count from the call's arguments)
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("verify.suite", "verify", "SUITES", None),
    ("formulas.count_circle", "formulas", "count_circle", None),
    ("expsums.local_factor_closed", "expsums", "local_factor_closed", None),
    ("expsums.arc_integral_closed", "expsums", "arc_integral_closed", None),
    ("expsums.weyl_sum", "expsums", "weyl_sum", ("terms", lambda f, a, r, tail, P: _q_pow(f.ctx, f.n * P))),
    ("expsums.form_exp_sum", "expsums", "form_exp_sum", ("terms", lambda f, a, r: _q_pow(f.ctx, f.n * r.deg))),
    ("expsums.gauss_sum", "expsums", "gauss_sum", None),
    ("expsums.twisted_gauss_sum", "expsums", "twisted_gauss_sum", None),
    ("characters.ratio_char_exponent", "characters", "ratio_char_exponent", None),
    ("characters.tail_char_exponent", "characters", "tail_char_exponent", None),
    (
        "characters.ball_integral",
        "characters",
        "ball_integral",
        ("tails", lambda ctx, M, depth, functional: _q_pow(ctx, depth + M)),
    ),
    ("cyclotomic.CycInt.mul", "cyclotomic", "CycInt.__mul__", None),
    ("cyclotomic.CycInt.mul", "cyclotomic", "CycInt.__rmul__", None),
    ("polyring.factorize", "polyring", "factorize", None),
    ("polyring.poly_gcd", "polyring", "poly_gcd", None),
    ("polyring.Poly.divmod", "polyring", "Poly.__divmod__", None),
    ("polyring.Poly.mul", "polyring", "Poly.__mul__", None),
    ("oracle.brute_count", "oracle", "brute_count", ("evals", lambda f, P, *_: _q_pow(f.ctx, f.n * P))),
    (
        "oracle.brute_primitive_count",
        "oracle",
        "brute_primitive_count",
        ("evals", lambda f, P, *_: _q_pow(f.ctx, f.n * P)),
    ),
    (
        "oracle.convolution_count",
        "oracle",
        "convolution_count",
        ("group_size", lambda f, P: _q_pow(f.ctx, 2 * P - 1)),
    ),
    ("field.FieldCtx.init", "field", "FieldCtx.__init__", None),
]

NAMES = list(dict.fromkeys(t[0] for t in TARGETS))
WORK_METRICS = {name: work[0] for name, _, _, work in TARGETS if work}


@contextlib.contextmanager
def patched(replacements):
    """Apply (module, attribute, make_wrapper) replacements; undo them on exit.

    A target the package no longer has is skipped, so its metrics read 0.
    """
    undo = []
    try:
        for module_name, attr, make_wrapper in replacements:
            module = importlib.import_module(f"quadricpoints.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                setattr(cls, meth, make_wrapper(orig))
                undo.append((setattr, cls, meth, orig))
            elif attr == "SUITES":
                suites = getattr(module, attr)
                for key, orig in list(suites.items()):
                    suites[key] = make_wrapper(orig)
                    undo.append((dict.__setitem__, suites, key, orig))
            else:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                wrapper = make_wrapper(orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "quadricpoints" or mod_name.startswith("quadricpoints."):
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, key, wrapper)
                                undo.append((setattr, mod, key, orig))
        yield
    finally:
        for restore, owner, key, orig in reversed(undo):
            restore(owner, key, orig)


class SpanTracer:
    """Records one span per call of each target while active."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.job = 0
        self._root = -1.0

    def _thread_state(self):
        buf = array("d")
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn, work):
        tracer = self
        local = self._local
        ids = self._ids
        name_id = float(NAMES.index(name))
        is_root = name == "cli.main"

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = tracer._thread_state()
            sid = float(next(ids))
            parent = stack[-1] if stack else (-1.0 if is_root else tracer._root)
            if is_root:
                tracer._root = sid
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                try:
                    w = work(*args, **kwargs) if work else 0
                except (TypeError, AttributeError):  # the target's signature changed
                    w = 0
                local.buf.extend((sid, name_id, t0, t1, parent, tracer.job, w))

        return wrapper

    def active(self):
        return patched(
            (module, attr, lambda fn, n=name, w=work: self._wrap(n, fn, w and w[1]))
            for name, module, attr, work in TARGETS
        )

    def spans(self) -> np.ndarray:
        """All recorded spans, one row per span, indexed by span id."""
        with self._lock:
            flat = np.concatenate([np.frombuffer(b, dtype=np.float64) for b in self._buffers] or [np.empty(0)])
        rows = flat.reshape(-1, len(FIELDS))
        return rows[np.argsort(rows[:, SID], kind="stable")]


class CountTracer:
    """Counts F_q mul and add/neg calls; takes the allocation peak of each convolution.

    ``sub`` is counted through the ``add`` and ``neg`` calls it makes.
    The peak is traced per call with convolution calls serialized, so it
    also holds what a concurrent ``--jobs`` thread allocated meanwhile.
    """

    def __init__(self):
        self._mul = itertools.count()
        self._add = itertools.count()
        self._lock = threading.Lock()
        self.conv_peaks: list[int] = []

    @staticmethod
    def _counting(counter):
        def make(fn):
            def wrapper(*args):
                next(counter)
                return fn(*args)

            return wrapper

        return make

    def _peak(self, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.conv_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return wrapper

    def active(self):
        return patched(
            [
                ("field", "FieldCtx.mul", self._counting(self._mul)),
                ("field", "FieldCtx.add", self._counting(self._add)),
                ("field", "FieldCtx.neg", self._counting(self._add)),
                ("oracle", "convolution_count", self._peak),
            ]
        )

    def metrics(self) -> dict[str, float]:
        # next() on an itertools.count returns how many calls came before it
        return {
            "field.mul.calls": next(self._mul),
            "field.add.calls": next(self._add),
            "oracle.convolution_count.peak_mb": max(self.conv_peaks, default=0) / 2**20,
        }


def save(path, rows: np.ndarray) -> None:
    """Write spans with their field and name legends."""
    path.parent.mkdir(exist_ok=True)
    np.savez(path, spans=rows, fields=np.array(FIELDS), names=np.array(NAMES))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def span_metrics(spans: np.ndarray, wall_s: float) -> dict[str, float]:
    """Calls, self time and work per span name, plus layer shares of ``wall_s``.

    Self time is a span's duration minus the union of its child spans'
    intervals; children on two ``--jobs`` threads may overlap.
    """
    n = len(spans)
    names = spans[:, NAME].astype(np.int64)
    parents = spans[:, PARENT].astype(np.int64)
    dur = spans[:, T1] - spans[:, T0]
    child_cover = np.zeros(n)
    order = np.lexsort((spans[:, T0], parents))
    cur, end = -1, float("-inf")
    for i, p, s, e in zip(order.tolist(), parents[order].tolist(), spans[order, T0].tolist(), spans[order, T1].tolist()):
        if p < 0:
            continue
        if p != cur:
            cur, end = p, float("-inf")
        if e > end:
            child_cover[p] += e - max(s, end)
            end = e
    self_s = dur - child_cover

    out: dict[str, float] = {}
    for k, name in enumerate(NAMES):
        mask = names == k
        out[f"{name}.calls"] = int(mask.sum())
        out[f"{name}.self_s"] = float(self_s[mask].sum())
        if name in WORK_METRICS:
            out[f"{name}.{WORK_METRICS[name]}"] = int(spans[mask, WORK].sum())

    # local_factor_closed calls with a count_circle ancestor
    lfc = np.nonzero(names == NAMES.index("expsums.local_factor_closed"))[0]
    under = np.zeros(len(lfc), dtype=bool)
    anc = parents[lfc]
    cc = NAMES.index("formulas.count_circle")
    while (anc >= 0).any():
        live = anc >= 0
        under[live] |= names[anc[live]] == cc
        anc = np.where(live, parents[np.maximum(anc, 0)], -1)
    out["formulas.count_circle.moduli"] = int(under.sum())

    layers = sorted({name.split(".")[0] for name in NAMES})
    layer_of = np.array([layers.index(name.split(".")[0]) for name in NAMES])[names]
    for k, layer in enumerate(layers):
        mask = layer_of == k
        out[f"{layer}.self_share"] = float(self_s[mask].sum()) / wall_s
        out[f"{layer}.span_share"] = _covered(list(zip(spans[mask, T0].tolist(), spans[mask, T1].tolist()))) / wall_s
    return out
