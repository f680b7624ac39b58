"""Per-layer tracing of clfsynth from outside the program.

clfsynth modules bind each other's functions with ``from .x import f``, so
wrapping a function only where it is defined would miss most calls. The
tracer therefore replaces every module-level binding of the wrapped
function object across ``clfsynth.*``, and patches methods on their class.

Each wrapped call records one span (name, start, end, parent span, whether
it is the outermost span of its name, operation id). Spans stay in memory
until the run ends. Counts are taken at the same boundaries. A span is
attributed to the module that defines the wrapped function, so a closure
built in one module and run through another module's method (the orbital
cost closures behind ``InverseOptimalCost.q``/``.r``) counts as the
method's module.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, class or None, attribute, extra counter): each wrapped call is a
# span named module.attribute (module.Class.attribute for methods) and adds
# one to <name>.calls and to the extra counter, if any
SPANS = [
    ("linear_core", None, "solve_care", None),
    ("linear_core", None, "solve_lyapunov", None),
    ("linear_core", None, "stabilizing_gain", None),
    ("clf", None, "check_artstein_sampled", None),
    ("clf", None, "find_r0", None),
    ("clf", None, "check_positivity_properness", None),
    ("clf", None, "lie_derivatives", None),
    ("clf", "ControlAffineSystem", "a", "clf.field_evals"),
    ("clf", "ControlAffineSystem", "b", "clf.field_evals"),
    ("synthesis", None, "sontag_controller", None),
    ("synthesis", None, "verify_decrease", None),
    ("synthesis", None, "seam_diagnostics", None),
    ("synthesis", None, "local_gain", None),
    ("synthesis", "FeedbackLaw", "map", "synthesis.feedback_map.calls"),
    ("inverse_opt", None, "find_base_level", None),
    ("inverse_opt", None, "estimate_level_constants", None),
    ("inverse_opt", None, "hjb_residual", None),
    ("inverse_opt", None, "build_inverse_cost", None),
    ("inverse_opt", None, "evaluate_cost", None),
    ("inverse_opt", "InverseOptimalCost", "q", None),
    ("inverse_opt", "InverseOptimalCost", "r", None),
    ("structured", None, "backstepping_synthesize", None),
    ("runner", None, "synthesize_problem", None),
    ("runner", None, "reconstruct_cost", None),
    ("orbital", None, "simulate_orbital", None),
    ("orbital", None, "orbital_drift", None),
    ("orbital", None, "orbital_input_matrix", None),
    ("sampling", None, "sample_box", None),
    ("sim", None, "rk4_path", None),
    ("sim", None, "rk4_step", "sim.rk4_steps"),
    ("sim", None, "integrate", None),
]

LADDER = "inverse_opt.estimate_level_constants"


class Tracer:
    """Span recorder; inactive outside operations so set-up is not traced."""

    def __init__(self):
        self.names = []
        # seven doubles per span: id, name id, start, end, parent id,
        # operation id, outermost-of-its-name flag
        self.spans = array("d")
        self.counts = Counter()
        self.op = -1
        self.active = False
        self._stack = []
        self._depth = []
        self._next = 0
        self._installed = []
        self._ladder_id = None

    def _name_id(self, name):
        self.names.append(name)
        self._depth.append(0)
        return len(self.names) - 1

    def _span(self, fn, name, after=None, also=None):
        nid = self._name_id(name)
        calls = name + ".calls"
        stack, depth, spans, counts = self._stack, self._depth, self.spans, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[calls] += 1
            if also is not None:
                counts[also] += 1
            idx = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                spans.extend((idx, nid, t0, t1, parent, self.op, depth[nid] == 0))
            if after is not None:
                after(out)
            return out

        return wrapper

    def _points(self, pts):
        n = len(pts)
        self.counts["sampling.points_drawn"] += n
        if self._depth[self._ladder_id] > 0:
            self.counts["inverse_opt.ladder_points_drawn"] += n

    def install(self):
        """Wrap every traced name wherever clfsynth binds it."""
        import clfsynth  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "clfsynth" or k.startswith("clfsynth.")) and m is not None]
        for mod, cls, attr, also in SPANS:
            owner = sys.modules["clfsynth." + mod]
            if cls is not None:
                klass = getattr(owner, cls)
                name = f"{mod}.{cls}.{attr}"
                self._patch(klass, attr, self._span(getattr(klass, attr), name, also=also))
                continue
            name = f"{mod}.{attr}"
            original = getattr(owner, attr)
            after = self._points if name == "sampling.sample_box" else None
            wrapped = self._span(original, name, after, also)
            if name == LADDER:
                self._ladder_id = len(self.names) - 1
            self._rebind(modules, original, wrapped)

    def _rebind(self, modules, original, wrapped):
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is original:
                    self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    def metrics(self):
        """busy_s (outermost spans only), calls, and per-module self time."""
        out = dict(self.counts)
        if not self.spans:
            return out
        rec = np.frombuffer(self.spans, dtype=float).reshape(-1, 7)
        idx = rec[:, 0].astype(int)
        nid = rec[:, 1].astype(int)
        dur = rec[:, 3] - rec[:, 2]
        parent = rec[:, 4].astype(int)
        outer = rec[:, 6].astype(bool)
        child = np.zeros(self._next)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child[idx]
        for i, name in enumerate(self.names):
            mine = nid == i
            out[name + ".busy_s"] = float(dur[mine & outer].sum())
            module = name.split(".")[0] + ".self_s"
            out[module] = out.get(module, 0.0) + float(self_time[mine].sum())
        return out

    def save(self, path):
        rec = np.frombuffer(self.spans, dtype=float).reshape(-1, 7)
        np.savez_compressed(
            path, names=np.array(self.names), span=rec[:, 0].astype(np.int64),
            name=rec[:, 1].astype(np.int32), start=rec[:, 2], end=rec[:, 3],
            parent=rec[:, 4].astype(np.int64), op=rec[:, 5].astype(np.int32),
            outermost=rec[:, 6].astype(bool))
