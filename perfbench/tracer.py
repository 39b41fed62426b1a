"""In-memory span recorder and the wrappers that place spans at layer boundaries.

A span is (name, start, end, parent span, task id).  Self time is a span's
duration minus the time covered by its direct children.  Spans stay in memory
until the run writes them out; `instrument` swaps wrapped functions into the
package's module namespaces for the duration of a `with` block, so calls the
package makes between its own modules are recorded too.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# Public functions wrapped per module.  Sphere kernels are keyed by band limit.
LAYERS = {
    "sphere": ("analyze", "synthesize", "evaluate_xyz", "laplacian"),
    "conformal": ("apply_mobius", "two_bubble_j_value"),
    "functional": ("minimize", "pullback", "j_alpha", "gradient_j", "el_residual"),
    "planar": ("to_planar", "beta_l", "nodal_domains"),
    "eigen": ("first_eigenvalue", "domain_mass"),
    "shooting": ("shoot", "solutions_at_beta"),
    "axisym": ("minimize_axisym", "recenter_1d", "two_bubble_i_value"),
}
BAND_LIMITS = (16, 32)
CRITERIA_IDS = tuple(range(1, 13))


def _band_limit(fn_name, args):
    """Band limit of the field or spectrum a sphere kernel works on."""
    if fn_name == "synthesize":
        return args[1].lmax
    if fn_name == "evaluate_xyz":
        return args[0].lmax
    return args[0].grid.lmax


class Recorder:
    """Spans, per-name call counts and self times, and result counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []     # [name id, start, end, parent index, task]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.shots: set = set()
        self.task = -1
        self._open: list[list] = []     # [span index, name, child time]

    def open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._open[-1][0] if self._open else -1
        self._open.append([len(self.spans), name, 0.0])
        self.spans.append([nid, self.clock(), None, parent, self.task])

    def close(self) -> None:
        index, name, child = self._open.pop()
        span = self.spans[index]
        span[2] = self.clock()
        duration = span[2] - span[1]
        if self._open:
            self._open[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.total_s[name] = self.total_s.get(name, 0.0) + duration

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self) -> dict:
        """Spans as rows of `columns`; `parent` indexes the span list, -1 at a root."""
        return {"names": self.names,
                "columns": ["name", "start", "end", "parent", "task"],
                "spans": self.spans}


def _wrap(rec: Recorder, module_name: str, fn_name: str, fn):
    base = f"{module_name}.{fn_name}"
    keyed = module_name == "sphere"
    if base == "shooting.shoot":
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def shoot_wrapper(*args, **kwargs):
            rec.open(base)
            try:
                sol = fn(*args, **kwargs)
            finally:
                rec.close()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.shots.add(tuple(float(v) for v in bound.arguments.values()))
            rec.count("shooting.shoot.steps", len(sol.r_grid))
            return sol

        return shoot_wrapper
    iterations = base in ("functional.minimize", "axisym.minimize_axisym")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(f"{base}.L{_band_limit(fn_name, args)}" if keyed else base)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close()
        if iterations:
            rec.count(f"{base}.iterations", result.iterations)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Record spans for every function in LAYERS while the block runs."""
    import onofri

    saved = []
    try:
        for module_name, fn_names in LAYERS.items():
            module = getattr(onofri, module_name)
            for fn_name in fn_names:
                fn = getattr(module, fn_name)
                saved.append((module, fn_name, fn))
                setattr(module, fn_name, _wrap(rec, module_name, fn_name, fn))
        yield rec
    finally:
        for module, fn_name, fn in saved:
            setattr(module, fn_name, fn)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module_name, fn_names in LAYERS.items():
        for fn_name in fn_names:
            base = f"{module_name}.{fn_name}"
            keys = [f"{base}.L{L}" for L in BAND_LIMITS] if module_name == "sphere" else [base]
            for key in keys:
                names += [f"{key}.calls", f"{key}.self_s"]
    names += [f"acceptance.criterion_{c}.s" for c in CRITERIA_IDS]
    names += ["shooting.shoot.distinct_frac", "shooting.shoot.steps",
              "functional.minimize.iterations", "axisym.minimize_axisym.iterations",
              "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".steps", ".iterations")):
        return "count"
    if name.endswith("_frac"):
        return "frac"
    return "s"


def layer_metrics(rec: Recorder, overhead_s: float) -> dict:
    """Values for layer_metric_names(); a layer a workload never calls reads 0."""
    out = {}
    for name in layer_metric_names():
        if name.endswith(".calls"):
            out[name] = rec.calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = rec.self_s.get(name[:-len(".self_s")], 0.0)
        elif name.startswith("acceptance."):
            out[name] = rec.total_s.get(name[:-len(".s")], 0.0)
    shots = rec.calls.get("shooting.shoot", 0)
    out["shooting.shoot.distinct_frac"] = len(rec.shots) / shots if shots else 0.0
    for name in ("shooting.shoot.steps", "functional.minimize.iterations",
                 "axisym.minimize_axisym.iterations"):
        out[name] = rec.counters.get(name, 0)
    out["trace.overhead_s"] = overhead_s
    return out
