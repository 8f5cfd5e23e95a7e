"""In-memory span tracer for the traced benchmark run.

The tracer never edits the package.  It replaces, for the duration of one
traced pass, every binding of a public tsallisq function in the package's
module namespaces (the defining module and every module that imported it),
the public methods of the qstate classes, the curvature callables that
``cli._CURVATURE_SUBJECTS`` holds by reference, and the cost callables handed
to ``minimize_roof``.  ``restore()`` puts every original object back.

A span is ``[name, start, end, parent, op, extra]``; ``parent`` is the index
of the enclosing span (-1 for none) and ``op`` the benchmark operation id.
Spans stay in memory until ``dump()`` writes them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import types
from time import perf_counter

PACKAGE = "tsallisq"
MODULES = ("linalg", "qstate", "measures", "analysis", "roof", "monogamy", "cli")
QSTATE_METHODS = {
    "PureState": ("reduced", "to_density"),
    "DensityMatrix": ("spectrum", "purity", "rank", "partial_trace"),
    "Decomposition": ("reconstruct",),
}
SCAN_SPANS = frozenset(
    {
        "analysis.scan_sign",
        "analysis.tee_curvature",
        "analysis.tee_sq_curvature",
        "analysis.tee_curvature_wrt_c",
    }
)
RESIDUAL_SPANS = frozenset(
    {"monogamy.tee_sq_residual", "monogamy.alpha_residual", "monogamy.ckw_check"}
)
COST_SPAN = "roof.cost"
ROOF_SPAN = "roof.minimize_roof"
LAYERS = ("bench", "cli", "monogamy", "roof", "roof.cost", "analysis", "measures", "qstate", "linalg")


def layer_of(name: str) -> str:
    return name if name == COST_SPAN else name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    # --- span recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def op_span(self, op_id, fn):
        """Run fn() as the root span of one benchmark operation."""
        self.op = op_id
        rec = self._open("bench.op")
        try:
            return fn()
        finally:
            self._close(rec)
            self.op = None

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            post = None
            if hook is not None:
                args, kwargs, post = hook(rec, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if post is not None:
                post(rec, out)
            return out

        return traced

    # --- installing and removing the wrappers ---------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        roof = importlib.import_module(f"{PACKAGE}.roof")
        hooks = {
            roof.minimize_roof: self._roof_hook(roof.minimize_roof),
            importlib.import_module(f"{PACKAGE}.analysis").find_root_q: self._root_hook,
            importlib.import_module(f"{PACKAGE}.measures").tee_from_concurrence_sq: _size_hook,
        }
        wrapped: dict = {}
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(val, types.FunctionType):
                    continue
                home = getattr(val, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if val not in wrapped:
                    name = f"{home.rsplit('.', 1)[1]}.{val.__name__}"
                    hook = hooks.get(val) or (_size_hook if name in SCAN_SPANS else None)
                    wrapped[val] = self._wrap(name, val, hook)
                self._set(mod, attr, wrapped[val])
        qstate = importlib.import_module(f"{PACKAGE}.qstate")
        for cls_name, methods in QSTATE_METHODS.items():
            cls = getattr(qstate, cls_name)
            for meth in methods:
                self._set(cls, meth, self._wrap(f"qstate.{meth}", vars(cls)[meth]))
        subjects = importlib.import_module(f"{PACKAGE}.cli")._CURVATURE_SUBJECTS
        for key, (fn, label) in list(subjects.items()):
            if fn in wrapped:
                self._undo.append((subjects, key, (fn, label), True))
                subjects[key] = (wrapped[fn], label)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, key, original, is_item in reversed(self._undo):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # --- hooks that add counts to spans ---------------------------------------

    def _roof_hook(self, minimize_roof):
        """Wrap the cost callable and read the optimizer's per-restart arrays.

        RoofResult reports only the winning restart, so the batch's sweep count
        and the restarts that ran to the iteration cap are read from the
        ``iters`` and ``stopped`` arrays of the running minimize_roof frame,
        which the optimizer updates in place.  When a later optimizer has no
        such arrays, ``sweeps`` stays None and the run reports it.
        """
        sig = inspect.signature(minimize_roof)
        code = minimize_roof.__code__
        tracer = self

        def hook(rec, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            cost = bound.arguments["cost"]
            info = {"rho": bound.arguments["rho"], "arrays": None}
            rec[5] = info

            def traced_cost(states):
                crec = tracer._open(COST_SPAN)
                crec[5] = {"rows": int(len(states))}
                try:
                    return cost(states)
                finally:
                    tracer._close(crec)
                    if info["arrays"] is None:
                        info["arrays"] = _optimizer_arrays(sys._getframe(1), code)

            bound.arguments["cost"] = traced_cost
            return bound.args, bound.kwargs, post

        def post(rec, result):
            info = rec[5]
            info["iterations"] = int(result.iterations)
            info["converged"] = bool(result.converged)
            arrays = info.pop("arrays")
            if arrays is not None:
                iters, stopped = arrays
                info["sweeps"] = int(iters.max())
                info["capped"] = int((~stopped).sum())
            elif result.iterations == 0:
                info["sweeps"], info["capped"] = 0, 0
            else:
                info["sweeps"], info["capped"] = None, None

        return hook

    def _root_hook(self, rec, args, kwargs):
        counter = {"evals": 0}
        rec[5] = counter
        func = args[0] if args else kwargs.pop("func")

        def counted(x):
            counter["evals"] += 1
            return func(x)

        return (counted,) + tuple(args[1:]), kwargs, None

    # --- output ---------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if extra:
                    row.update({k: v for k, v in extra.items() if k != "rho"})
                fh.write(json.dumps(row) + "\n")


def _size_hook(rec, args, kwargs):
    def post(r, out):
        size = getattr(out, "values", out)
        r[5] = {"elements": int(getattr(size, "size", 1))}

    return args, kwargs, post


def _optimizer_arrays(frame, code):
    while frame is not None and frame.f_code is not code:
        frame = frame.f_back
    if frame is None:
        return None
    local = frame.f_locals
    if "iters" in local and "stopped" in local:
        return local["iters"], local["stopped"]
    return None


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, rank_of) -> dict:
    """Per-layer counts and times from one traced pass.

    rank_of maps a density matrix to its rank; it is called after the pass so
    the rank computation never lands inside a span.
    """
    own = self_times(spans)
    # same-layer subtree: a span's self time plus that of every descendant
    # reached through spans of its own layer (a child always has a higher index)
    subtree = list(own)
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0 and layer_of(spans[parent][0]) == layer_of(spans[i][0]):
            subtree[parent] += subtree[i]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    for i, (rec, s) in enumerate(zip(spans, own)):
        name = rec[0]
        layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        parent = rec[3]
        if parent < 0 or spans[parent][0] != name:
            self_by_name[name] = self_by_name.get(name, 0.0) + subtree[i]

    def total(names, table):
        return sum(table.get(n, 0) for n in names)

    roofs = [r for r in spans if r[0] == ROOF_SPAN]
    costs = [r for r in spans if r[0] == COST_SPAN]
    iters = sum(r[5]["iterations"] for r in roofs)
    known = [r[5] for r in roofs if r[5]["sweeps"] is not None]
    sweeps = sum(i["sweeps"] for i in known)
    by_rank: dict[int, list[float]] = {}
    for r in roofs:
        by_rank.setdefault(rank_of(r[5]["rho"]), []).append((r[2] - r[1]) * 1e3)
    scans = [r for r in spans if r[0] in SCAN_SPANS and (r[3] < 0 or spans[r[3]][0] not in SCAN_SPANS)]
    points = sum(r[5]["elements"] for r in scans)
    scan_wall = sum(r[2] - r[1] for r in scans)
    tee_curve = "measures.tee_from_concurrence_sq"
    roots = [r for r in spans if r[0] == "analysis.find_root_q"]
    linalg = [n for n in calls if layer_of(n) == "linalg"]
    out = {
        "roof.calls": len(roofs),
        "roof.self_s": layer_self["roof"],
        "roof.cost_s": sum(r[2] - r[1] for r in costs),
        "roof.cost_calls": len(costs),
        "roof.cost_rows": sum(r[5]["rows"] for r in costs),
        "roof.winner_iters": iters,
        "roof.nonconverged": sum(i["capped"] for i in known),
        "roof.useful_ratio": (
            sum(i["iterations"] for i in known) / sweeps if sweeps else 0.0
        ),
        "monogamy.indicator.calls": calls.get("monogamy.indicator", 0),
        "monogamy.indicator.self_s": self_by_name.get("monogamy.indicator", 0.0),
        "monogamy.residual.calls": total(RESIDUAL_SPANS, calls),
        "monogamy.residual.self_s": total(RESIDUAL_SPANS, self_by_name),
        "monogamy.hierarchical.self_s": self_by_name.get("monogamy.hierarchical_check", 0.0),
        "monogamy.self_s": layer_self["monogamy"],
        "measures.wootters.calls": calls.get("measures.concurrence_two_qubit", 0),
        "measures.wootters.self_s": self_by_name.get("measures.concurrence_two_qubit", 0.0),
        "measures.tee_curve.elements": sum(
            r[5]["elements"] for r in spans if r[0] == tee_curve
        ),
        "measures.tee_curve.self_s": self_by_name.get(tee_curve, 0.0),
        "measures.self_s": layer_self["measures"],
        "qstate.reduced.calls": calls.get("qstate.reduced", 0),
        "qstate.reduced.self_s": self_by_name.get("qstate.reduced", 0.0),
        "qstate.self_s": layer_self["qstate"],
        "linalg.calls": total(linalg, calls),
        "linalg.self_s": layer_self["linalg"],
        "analysis.scan.points": points,
        "analysis.scan.self_s": total({r[0] for r in scans}, self_by_name),
        "analysis.points_per_s": points / scan_wall if scan_wall > 0 else 0.0,
        "analysis.root.func_evals": sum(r[5]["evals"] for r in roots),
        "analysis.root.self_s": self_by_name.get("analysis.find_root_q", 0.0),
        "analysis.self_s": layer_self["analysis"],
        "cli.self_s": layer_self["cli"],
        "bench.self_s": layer_self["bench"],
    }
    for rank in (2, 3, 4):
        samples = by_rank.get(rank)
        out[f"roof.rank{rank}.ms_p50"] = statistics.median(samples) if samples else 0.0
    return {
        "metrics": out,
        "layer_self_s": layer_self,
        "roof_sweeps_unknown": len(roofs) - len(known),
    }
