"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each ``vacfilter`` layer from the
outside: every module namespace that binds the function (``qkd``, ``cli`` and
``montecarlo`` import functions by name) gets the same wrapper, and
``CovMatrix.__init__`` is wrapped instead of the class so ``isinstance``
checks keep working.  Each call becomes a span (name, start, end, parent
span, op id) kept in compact in-memory arrays and written out by ``dump``
when the run ends.  Aggregates needed for the per-layer metrics (calls,
inclusive and self time, raised exceptions, plus per-function extras such as
trial counts or repair flags) are kept alongside under one lock, because
Monte-Carlo worker threads record spans too.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

DET_KEYS = {"Apd": "apd", "HomodyneStabilized": "hds", "HomodyneRandomized": "hdr",
            "IdealOnOff": "ideal"}


def _det_key(det) -> str:
    return DET_KEYS.get(type(det).__name__, type(det).__name__)


def _fock_deficit(result):
    states = result if isinstance(result, tuple) else (result,)
    return max((s.deficit for s in states if hasattr(s, "deficit")), default=None)


# Observers turn one call into extra aggregates: a list of (key, value, how)
# with how "sum" or "max".  They run after the span closes, outside its time.

def _obs_acceptance(args, kwargs, result, dur, failed):
    key = f"detectors.acceptance_probability.{_det_key(args[0])}"
    return [(key + ".calls", 1, "sum"), (key + ".time", dur, "sum")]


def _obs_run_trials(args, kwargs, result, dur, failed):
    cfg = args[0]
    key = f"montecarlo.run_trials.{_det_key(cfg.detector)}.w{cfg.workers}"
    return [(key + ".trials", cfg.trials, "sum"), (key + ".time", dur, "sum")]


def _obs_sample_trials(args, kwargs, result, dur, failed):
    return [] if failed else [("montecarlo.sample_trials.records", len(result), "sum")]


def _obs_p_min(args, kwargs, result, dur, failed):
    return [] if failed else [("qkd.p_min_search.steps", len(result.trace), "sum")]


def _obs_covmatrix(args, kwargs, result, dur, failed):
    return [("gaussian.CovMatrix.repair_calls", 1, "sum")] if kwargs.get("repair") else []


def _obs_fock(args, kwargs, result, dur, failed):
    deficit = None if failed else _fock_deficit(result)
    return [] if deficit is None else [("fock.deficit_max", deficit, "max")]


def _obs_cli_main(args, kwargs, result, dur, failed):
    argv = list(args[0]) if args else []
    if "--out" not in argv:
        return []
    try:
        size = os.path.getsize(argv[argv.index("--out") + 1])
    except OSError:
        return []
    return [("cli.bytes_out", size, "sum")]


# (module, attribute, span name, observer); a dotted attribute names a method.
TARGETS = [
    ("qkd", "p_min_search", "qkd.p_min_search", _obs_p_min),
    ("qkd", "optimize_key_rate", "qkd.optimize_key_rate", None),
    ("qkd", "scenario_key_rate", "qkd.scenario_key_rate", None),
    ("qkd", "filtered_covariance", "qkd.filtered_covariance", None),
    ("qkd", "key_rate", "qkd.key_rate", None),
    ("gaussian", "CovMatrix.__init__", "gaussian.CovMatrix", _obs_covmatrix),
    ("gaussian", "condition_on_noclick", "gaussian.condition_on_noclick", None),
    ("gaussian", "mixture_covariance", "gaussian.mixture_covariance", None),
    ("gaussian", "apply_beamsplitter", "gaussian.apply_beamsplitter", None),
    ("gaussian", "symplectic_eigenvalues", "gaussian.symplectic_eigenvalues", None),
    ("fock", "tmsv_state", "fock.tmsv_state", _obs_fock),
    ("fock", "phase_rotate", "fock.phase_rotate", _obs_fock),
    ("fock", "fock_beamsplitter", "fock.fock_beamsplitter", _obs_fock),
    ("fock", "displace", "fock.displace", _obs_fock),
    ("fock", "povm_expectation", "fock.povm_expectation", _obs_fock),
    ("fock", "covariance_matrix", "fock.covariance_matrix", None),
    ("montecarlo", "run_trials", "montecarlo.run_trials", _obs_run_trials),
    ("montecarlo", "sample_trials", "montecarlo.sample_trials", _obs_sample_trials),
    ("montecarlo", "calibrate_prep_error", "montecarlo.calibrate_prep_error", None),
    ("detectors", "acceptance_probability", "detectors.acceptance_probability",
     _obs_acceptance),
    ("metrics", "sensitivity", "metrics.sensitivity", None),
    ("metrics", "gain", "metrics.gain", None),
    ("metrics", "success_probability", "metrics.success_probability", None),
    ("signal_model", "marginal_density", "signal_model.marginal_density", None),
    ("signal_model", "posterior_mixture", "signal_model.posterior_mixture", None),
    ("cli", "main", "cli.main", _obs_cli_main),
]


class Tracer:
    """Records spans around the wrapped functions while ``enabled``."""

    def __init__(self):
        self.enabled = True
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._names: list = []
        self._name_ids: dict = {}
        # span columns: span id, name id, start, end, parent span id (0 = none), op id
        self._cols = (array("q"), array("i"), array("d"), array("d"), array("q"), array("i"))
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.pair_calls = defaultdict(int)  # (parent name, name) -> calls
        self.extra: dict = {}
        self._restore: list = []

    @property
    def spans(self) -> int:
        return len(self._cols[0])

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name: str, fn, observer=None):
        tracer = self
        with self._lock:
            nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            frame = [span_id, nid, 0.0]  # id, name id, time covered by children
            stack.append(frame)
            failed = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                updates = observer(args, kwargs, result, dur, failed) if observer else ()
                with tracer._lock:
                    sids, ids, starts, ends, parents, ops = tracer._cols
                    sids.append(span_id)
                    ids.append(nid)
                    starts.append(start)
                    ends.append(end)
                    parents.append(parent[0] if parent is not None else 0)
                    ops.append(tracer.op)
                    tracer.calls[name] += 1
                    tracer.total[name] += dur
                    tracer.self_time[name] += dur - frame[2]
                    if failed:
                        tracer.errors[name] += 1
                    if parent is not None:
                        tracer.pair_calls[(tracer._names[parent[1]], name)] += 1
                    for key, value, how in updates:
                        if how == "max":
                            tracer.extra[key] = max(tracer.extra.get(key, value), value)
                        else:
                            tracer.extra[key] = tracer.extra.get(key, 0) + value

        return traced

    def install(self):
        """Wrap every target in every loaded ``vacfilter`` namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "vacfilter" or n.startswith("vacfilter."))]
        for mod_name, attr, name, observer in TARGETS:
            owner = sys.modules[f"vacfilter.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, observer))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, observer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def paused(self):
        tracer = self

        class _Paused:
            def __enter__(self):
                self.prev = tracer.enabled
                tracer.enabled = False

            def __exit__(self, *exc):
                tracer.enabled = self.prev

        return _Paused()

    def dump(self, path):
        """Write the spans as CSV: name, start, end, parent, op (one per line)."""
        sids, ids, starts, ends, parents, ops = self._cols
        names = self._names
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(ids)):
                fh.write(f"{sids[i]},{names[ids[i]]},{starts[i]!r},{ends[i]!r},"
                         f"{parents[i]},{ops[i]}\n")


def span_cost(n: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe.wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max((time.perf_counter() - t0 - bare) / n, 0.0)


TIMED = [name for _, _, name, _ in TARGETS]
COUNTED = ["qkd.p_min_search", "qkd.optimize_key_rate", "qkd.scenario_key_rate",
           "gaussian.CovMatrix", "gaussian.condition_on_noclick",
           "detectors.acceptance_probability", "metrics.sensitivity", "metrics.gain",
           "metrics.success_probability", "signal_model.marginal_density",
           "signal_model.posterior_mixture", "cli.main"]


def layer_metrics(tracer: Tracer, ops: int, wall: float, span_s: float) -> dict:
    """Per-layer figures: ``.calls`` per workload operation, ``.s`` seconds
    per call (inclusive), plus the layer-specific ratios and rates."""
    calls, total, extra = tracer.calls, tracer.total, tracer.extra

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{n}.calls": calls[n] / ops for n in COUNTED}
    m.update({f"{n}.s": ratio(total[n], calls[n]) for n in TIMED})
    skr, opt = "qkd.scenario_key_rate", "qkd.optimize_key_rate"
    m["qkd.p_min_search.bisection_steps"] = ratio(extra.get("qkd.p_min_search.steps", 0),
                                                  calls["qkd.p_min_search"])
    m[f"{opt}.evals_per_call"] = ratio(tracer.pair_calls[(opt, skr)], calls[opt])
    m[f"{skr}.failed"] = tracer.errors[skr] / ops
    m[f"{skr}.useful_ratio"] = ratio(calls[skr] - tracer.errors[skr], calls[skr])
    m["gaussian.CovMatrix.repair_calls"] = extra.get("gaussian.CovMatrix.repair_calls", 0) / ops
    m["fock.deficit_max"] = extra.get("fock.deficit_max", 0.0)
    for det in ("apd", "hds", "hdr"):
        key = f"detectors.acceptance_probability.{det}"
        m[f"{key}.us_per_call"] = 1e6 * ratio(extra.get(f"{key}.time", 0.0),
                                              extra.get(f"{key}.calls", 0))
        for w in (1, 2):
            key = f"montecarlo.run_trials.{det}.w{w}"
            m[f"{key}.trials_per_s"] = ratio(extra.get(f"{key}.trials", 0),
                                             extra.get(f"{key}.time", 0.0))
    m["montecarlo.sample_trials.records"] = ratio(
        extra.get("montecarlo.sample_trials.records", 0), calls["montecarlo.sample_trials"])
    m["cli.main.self_s"] = ratio(tracer.self_time["cli.main"], calls["cli.main"])
    m["cli.bytes_out"] = ratio(extra.get("cli.bytes_out", 0), calls["cli.main"])
    m["trace.overhead_share"] = ratio(tracer.spans * span_s, wall)
    return m
