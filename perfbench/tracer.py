"""Per-layer tracing from the benchmark's side of the program's interfaces.

:class:`Tracer` replaces every public function of the program's layer
modules, at each module attribute through which it is called (its own module
and every module that imports it), plus ``{eigvalsh, eigh, svd, eigvals}``
both in ``numpy.linalg`` and in the module that defines them, with a wrapper
that records a span (function, call site, start, end, parent span).  The
second site catches the calls numpy makes internally, such as the SVD behind
``numpy.linalg.norm(m, 2)``.  Spans stay in memory until :meth:`Tracer.write_spans`;
:func:`layer_metrics` turns them into the per-layer metrics, normalised per
op.  Leaving the ``with`` block restores every replaced attribute.

A layer's self time is the time in its spans not covered by child spans, so
the self times of all layers plus the benchmark's own time outside any span
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("generators", "core", "blockops", "circle", "radii", "bounds", "campaign", "serialize")
LINALG = ("eigvalsh", "eigh", "svd", "eigvals")
try:  # the module whose globals numpy.linalg's own functions call
    _LINALG_IMPL = importlib.import_module("numpy.linalg._linalg")
except ImportError:  # numpy < 2
    _LINALG_IMPL = importlib.import_module("numpy.linalg.linalg")
ALL_LAYERS = LAYERS + ("linalg",)

# metric name -> unit; every metric is per op unless its name says otherwise
PER_LAYER = {
    "circle.searches_per_op": "count",
    "circle.problems_per_op": "count",
    "circle.evals_per_problem": "count",
    "circle.search_ms": "ms",
    "radii.primary_searches_per_op": "count",
    "radii.validation_searches_per_op": "count",
    "radii.numerical_ms": "ms",
    "radii.spectral_ms": "ms",
    "core.op_norm_ms": "ms",
    "core.reduce_calls_per_op": "count",
    "core.make_context_ms": "ms",
    "bounds.omega_ms": "ms",
    "bounds.diag_ms": "ms",
    "bounds.pairs_ms": "ms",
    "bounds.th2_search_ms": "ms",
    "bounds.self_ms": "ms",
    "campaign.generate_ms": "ms",
    "campaign.evaluate_ms": "ms",
    "campaign.invariants_ms": "ms",
    "campaign.serialize_ms": "ms",
    "campaign.self_ms": "ms",
    "blockops.ms": "ms",
    "linalg.eigvalsh_calls_per_op": "count",
    "linalg.eigvalsh_matrices_per_op": "count",
    "linalg.eigvalsh_ms": "ms",
    "linalg.eigvalsh_gflop_per_op": "gflop-computed",
    "linalg.svd_calls_per_op": "count",
    "linalg.eigh_calls_per_op": "count",
    "linalg.eigvals_calls_per_op": "count",
    **{f"{layer}.errors": "count" for layer in ALL_LAYERS},
    **{f"self.{layer}_ms": "ms" for layer in ALL_LAYERS},
    "trace.unspanned_ms": "ms",
    "trace.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Context manager that wraps the program's layer boundaries and records spans."""

    def __init__(self):
        self.keys: list[tuple[str, str, str]] = []  # (layer, function, site module)
        self.spans: list[tuple[int, float, float, int] | None] = []  # (key, start, end, parent)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []  # open (span, key)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        modules = {name: importlib.import_module(f"semihilbert.{name}") for name in LAYERS}
        layer_of = {module.__name__: name for name, module in modules.items()}
        for site, module in modules.items():
            for attr, fn in list(vars(module).items()):
                owner = layer_of.get(getattr(fn, "__module__", None))
                if attr.startswith("_") or owner is None or not inspect.isfunction(fn):
                    continue
                before = None
                if attr == "sup_on_circle_batch":
                    before = functools.partial(self._before_search, inspect.signature(fn))
                self._patch(module, attr, self._wrap(fn, owner, site, before))
        for module in (np.linalg, _LINALG_IMPL):
            for attr in LINALG:
                before = self._before_eigvalsh if attr == "eigvalsh" else None
                fn = getattr(module, attr)
                self._patch(module, attr, self._wrap(fn, "linalg", module.__name__, before))

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer: str, site: str, before=None):
        key = len(self.keys)
        self.keys.append((layer, fn.__name__, site))
        spans, stack, errors = self.spans, self._stack, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, key))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (key, start, end, parent)

        return traced

    def _before_search(self, signature, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Count problems and objective angles; tell primary from validation searches.

        Inside ``validated_radius_batch`` the reduction route maximizes a
        rotated Hermitian part and the validation route a phase-combination
        norm, so the objective's factory names the route.
        """
        bound = signature.bind(*args, **kwargs)
        evaluate, count = bound.arguments["evaluate"], bound.arguments["count"]
        counts = self.counts
        counts["searches"] += 1
        counts["problems"] += count
        caller = self.keys[self._stack[-1][1]][1] if self._stack else None
        if caller == "validated_radius_batch":
            factory = evaluate.__qualname__.split(".")[0]
            if factory == "rotation_eig_objective":
                counts["primary"] += 1
            elif factory == "phase_combo_norm_objective":
                counts["validation"] += 1

        def counted(thetas):
            counts["evals"] += np.size(thetas)
            return evaluate(thetas)

        bound.arguments["evaluate"] = counted
        return bound.args, bound.kwargs

    def _before_eigvalsh(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """Count matrices and the flops of their tridiagonal reduction, from the
        orders: 16/3 n^3 real flops for complex Hermitian, 4/3 n^3 for real."""
        a = args[0] if args else kwargs["a"]
        shape = np.shape(a)
        matrices = math.prod(shape[:-2])
        self.counts["eigvalsh_matrices"] += matrices
        self.counts["eigvalsh_flop"] += matrices * (16.0 if np.iscomplexobj(a) else 4.0) / 3.0 * shape[-1] ** 3
        return args, kwargs

    def write_spans(self, path: Path) -> None:
        """Write spans as CSV: layer, function, site, start and end in ms, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        with path.open("w") as fh:
            fh.write("layer,function,site,start_ms,end_ms,parent\n")
            for key, start, end, parent in self.spans:
                layer, name, site = self.keys[key]
                fh.write(f"{layer},{name},{site},{(start - origin) * 1e3:.6f},{(end - origin) * 1e3:.6f},{parent}\n")


class SpanTable:
    """Spans of a finished trace as arrays, with self times."""

    def __init__(self, tracer: Tracer):
        rows = tracer.spans
        self.keys = tracer.keys
        self.key = np.array([r[0] for r in rows], dtype=np.int64)
        start = np.array([r[1] for r in rows], dtype=float)
        self.dur = np.array([r[2] for r in rows], dtype=float) - start
        self.parent = np.array([r[3] for r in rows], dtype=np.int64)
        child = np.zeros(len(rows))
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.dur[nested])
        self.self_time = self.dur - child

    def mask(self, layer: str | None = None, names: tuple[str, ...] | None = None, site: str | None = None):
        chosen = [
            k
            for k, (lay, name, where) in enumerate(self.keys)
            if (layer is None or lay == layer)
            and (names is None or name in names)
            and (site is None or where == site)
        ]
        return np.isin(self.key, chosen)

    def inclusive(self, mask) -> float:
        """Seconds in the chosen spans, not counting those nested in a chosen span."""
        inside = np.zeros(len(mask), dtype=bool)
        # a parent is recorded before its children, so one pass in order suffices
        for i in np.flatnonzero(self.parent >= 0):
            p = self.parent[i]
            inside[i] = inside[p] or mask[p]
        return float(self.dur[mask & ~inside].sum())


def layer_metrics(loop: Tracer, setup: Tracer, ops: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced timed loop of ``ops`` ops lasting ``wall`` seconds.

    ``setup`` traced the generation of the workload's inputs; it only feeds
    ``core.make_context_ms``, which is per set-up rather than per op.
    """
    t = SpanTable(loop)
    setup_table = SpanTable(setup)
    c = loop.counts

    def ms(seconds: float) -> float:
        return 1e3 * seconds / ops

    def incl(**select) -> float:
        return t.inclusive(t.mask(**select))

    def calls(**select) -> float:
        return float(t.mask(**select).sum()) / ops

    bounds_parts = {
        part: incl(names=(fn,), site="bounds")
        for part, fn in (
            ("omega", "a_numerical_radius"),
            ("diag", "validated_radius_batch"),
            ("pairs", "offdiag_sup_batch"),
            ("th2_search", "sup_on_circle_batch"),
        )
    }
    campaign_parts = {
        "generate": incl(names=("gen_block_matrix",), site="campaign"),
        "evaluate": incl(names=("evaluate_all",), site="campaign"),
        "invariants": incl(names=("instance_invariants",), site="campaign"),
        "serialize": incl(layer="serialize", site="campaign"),
    }
    layer_self = {layer: float(t.self_time[t.mask(layer=layer)].sum()) for layer in ALL_LAYERS}
    out = {
        "circle.searches_per_op": c["searches"] / ops,
        "circle.problems_per_op": c["problems"] / ops,
        "circle.evals_per_problem": c["evals"] / c["problems"] if c["problems"] else 0.0,
        "circle.search_ms": ms(incl(layer="circle", names=("sup_on_circle", "sup_on_circle_batch"))),
        "radii.primary_searches_per_op": c["primary"] / ops,
        "radii.validation_searches_per_op": c["validation"] / ops,
        "radii.numerical_ms": ms(incl(layer="radii", names=("a_numerical_radius", "a_numerical_radius_many"))),
        "radii.spectral_ms": ms(incl(layer="radii", names=("a_spectral_radius",))),
        "core.op_norm_ms": ms(incl(layer="core", names=("a_op_norm",))),
        "core.reduce_calls_per_op": calls(layer="core", names=("reduce",)),
        "core.make_context_ms": 1e3 * setup_table.inclusive(setup_table.mask(layer="core", names=("make_context",))),
        **{f"bounds.{part}_ms": ms(v) for part, v in bounds_parts.items()},
        "bounds.self_ms": ms(incl(layer="bounds", names=("evaluate_all",)) - sum(bounds_parts.values())),
        **{f"campaign.{part}_ms": ms(v) for part, v in campaign_parts.items()},
        "campaign.self_ms": ms(incl(layer="campaign", names=("run_campaign",)) - sum(campaign_parts.values())),
        "blockops.ms": ms(incl(layer="blockops")),
        "linalg.eigvalsh_calls_per_op": calls(layer="linalg", names=("eigvalsh",)),
        "linalg.eigvalsh_matrices_per_op": c["eigvalsh_matrices"] / ops,
        "linalg.eigvalsh_ms": ms(incl(layer="linalg", names=("eigvalsh",))),
        "linalg.eigvalsh_gflop_per_op": c["eigvalsh_flop"] / 1e9 / ops,
        **{f"linalg.{fn}_calls_per_op": calls(layer="linalg", names=(fn,)) for fn in ("svd", "eigh", "eigvals")},
        **{f"{layer}.errors": float(loop.errors[layer]) for layer in ALL_LAYERS},
        **{f"self.{layer}_ms": ms(v) for layer, v in layer_self.items()},
        "trace.unspanned_ms": ms(wall - float(t.dur[t.parent < 0].sum())),
        "trace.self_share": sum(layer_self.values()) / wall,
    }
    return out
