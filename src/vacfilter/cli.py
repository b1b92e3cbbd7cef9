"""Command-line frontend: closed-form tables, Monte-Carlo runs, figure-data
regeneration, security analysis, and oracle spot checks.

All outputs carry a provenance header (command line, seed, version and the
conventions in force).  Exit codes: 0 success, 2 validation error, 3
numerical failure.  A command's behaviour depends on its argv alone.  One
parser is built per process, and the handler is looked up in COMMANDS when
the command runs.  A handler returns its table as ``(columns, rows)`` or
``(columns, rows, extras)``; ``main`` writes it and picks the exit code.  The
output file is opened once, before the work, and rewritten in place; a failed
command removes a file it created and leaves an existing one as it was.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import shlex
import stat
import sys

import numpy as np

from . import __version__, metrics, qkd, signal_model
from .detectors import (
    Apd,
    HomodyneRandomized,
    HomodyneStabilized,
    IdealOnOff,
    acceptance_probability,
    error_probability,
    threshold_for_error,
)
from .signal_model import CoherentAmplitude, ErasureMixture, marginal_density, posterior_mixture

CONVENTIONS = {
    "vacuum_cm": "identity",
    "homodyne_vacuum_variance": signal_model.VACUUM_QUAD_VARIANCE,
    "hd_efficiency_model_default": "linear",
    "quadrature_ordering": "x1,p1,...,xn,pn",
}
SCHEMA_VERSION = 1
MAX_GRID_POINTS = 10 ** 6  # --grid / --x specs asking for more are rejected
MAX_NMAX = 100  # oracle --nmax above this is rejected before any state is built


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _provenance(args) -> dict:
    return {
        "tool": "vacfilter",
        "version": __version__,
        "command": " ".join(shlex.quote(a) for a in sys.argv),
        "seed": args.seed,
        "conventions": CONVENTIONS,
    }


def _emit(args, out, columns: list, rows: list, extra: dict | None = None):
    """Write a handler's table as CSV (with provenance comments) or JSON to
    the open ``--out`` text file ``out``, over its old bytes, or to stdout
    when ``out`` is None or is stdout's file (stderr's alike)."""
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "provenance": _provenance(args),
            "columns": columns,
            "rows": rows,
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=2, default=_jsonable) + "\n"
    else:
        buf = io.StringIO()
        prov = _provenance(args)
        buf.write(f"# {prov['tool']} {prov['version']}\n")
        buf.write(f"# command: {prov['command']}\n")
        buf.write(f"# seed: {prov['seed']}\n")
        conv = " ".join(f"{k}={v}" for k, v in CONVENTIONS.items())
        buf.write(f"# conventions: {conv}\n")
        if extra:
            for k, v in extra.items():
                buf.write(f"# {k}: {json.dumps(v, default=_jsonable)}\n")
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    # an --out naming the file behind stdout or stderr is written through that
    # stream: reopened (/dev/stdout) it loses O_APPEND, and the rewrite cuts it
    stream = sys.stdout if out is None else next(
        (s for s in (sys.stdout, sys.stderr) if _same_file(out, s)), None)
    if stream is not None:
        stream.write(text)
        return
    out.write(text)
    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):  # drop a longer old file's tail
        out.truncate()


def _same_file(out, stream) -> bool:
    """Whether the open file ``out`` is the file behind ``stream``; False for a
    stream without a file descriptor, such as an in-process caller's buffer."""
    try:
        return os.path.samestat(os.fstat(out.fileno()), os.fstat(stream.fileno()))
    except (AttributeError, OSError, ValueError):  # no fileno(), or a closed stream
        return False


def _open(path: str, source: str):
    """open(path, "w") without truncation (``_in_place``), with a failure
    reported as a ValueError naming ``source``, the flag or default that gave
    the path."""
    try:
        return open(path, "w", opener=_in_place)
    except OSError as exc:
        raise ValueError(f"cannot open {source} {path!r}: {exc.strerror}") from exc


def _in_place(path: str, flags: int) -> int:
    """An opener for ``open(path, "w")`` that creates the file but does not
    truncate it: an existing file keeps its bytes until ``_emit`` writes over
    them, and ext4 starts no writeback on close, as it does after a
    truncate to zero."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _rows(*columns) -> list:
    """Equal-length columns -> rows of Python scalars."""
    return np.column_stack(columns).tolist()


def _parse_grid(spec: str) -> np.ndarray:
    """start:stop:step -> inclusive grid of at most MAX_GRID_POINTS points."""
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad grid {spec!r}, expected start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValueError(f"bad grid {spec!r}")
    steps = (stop - start) / step  # may overflow to inf
    if steps >= MAX_GRID_POINTS - 0.5:  # round(steps) + 1 > MAX_GRID_POINTS
        raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return np.linspace(start, stop, int(round(steps)) + 1)


# ---------------------------------------------------------------------------
# detector construction from flags
# ---------------------------------------------------------------------------

def _build_detector(args) -> object:
    kind = args.detector
    if kind == "ideal":
        return IdealOnOff()
    if kind == "apd":
        return _apd(args, "APD needs --eta")
    if kind in ("hds", "hdr"):
        if args.eta is None:
            raise ValueError("homodyne detector needs --eta")
        if args.threshold is not None:
            b = args.threshold
        elif args.match_error is not None:
            b = threshold_for_error(args.match_error)
        else:
            raise ValueError("homodyne detector needs --threshold or --match-error")
        cls = HomodyneStabilized if kind == "hds" else HomodyneRandomized
        return cls(eta=args.eta, threshold=b, efficiency_model=args.efficiency_model or "linear")
    # argparse's choices leave only a missing --detector
    raise ValueError("--detector is required: one of " + ", ".join(_DETECTOR[0][1]["choices"]))


def _apd(args, missing_eta: str) -> Apd:
    if args.eta is None:
        raise ValueError(missing_eta)
    return Apd(eta=args.eta, dark_prob=args.pd if args.pd is not None else 0.0)


def _mixture(args) -> ErasureMixture:
    if not (math.isfinite(args.alpha_sq) and args.alpha_sq >= 0.0):
        raise ValueError(f"--alpha-sq is a mean photon number, must be finite and >= 0, "
                         f"got {args.alpha_sq}")
    return ErasureMixture(CoherentAmplitude(math.sqrt(args.alpha_sq)), args.p, args.tap)


def _matched_trio(e_target: float):
    """Unit-efficiency APD/HDS/HDR detectors tuned to the same error probability."""
    b = threshold_for_error(e_target)
    return (
        Apd(eta=1.0, dark_prob=e_target),
        HomodyneStabilized(eta=1.0, threshold=b),
        HomodyneRandomized(eta=1.0, threshold=b),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_acceptance(args):
    grid = _parse_grid(args.grid)
    if np.any(grid < 0.0):
        raise ValueError(f"R|alpha|^2 must be >= 0, got grid {args.grid!r}")
    if args.matched_error is not None:
        dets = _matched_trio(args.matched_error)
        cols = ["R_alpha_sq", "P_apd", "P_hds", "P_hdr"]
    else:
        dets = (_build_detector(args),)
        cols = ["R_alpha_sq", "P_accept"]
    return cols, _rows(grid, *(acceptance_probability(d, np.sqrt(grid)) for d in dets))


def cmd_error(args):
    det = _build_detector(args)
    return ["detector", "error_probability"], [[args.detector, error_probability(det)]]


def cmd_sensitivity(args):
    det = _build_detector(args)
    s = metrics.sensitivity(det, args.tap)  # S_analytic repeats it, for the layout
    return (["detector", "tap_reflectivity", "S", "S_over_R", "S_analytic"],
            [[args.detector, args.tap, s, s / args.tap, s]])


def cmd_gain(args):
    det = _build_detector(args)
    grid = _parse_grid(args.grid)
    return (["R_alpha_sq", "P_accept", "P_S", "G"],
            _rows(grid, *metrics.gain_columns(det, args.p, grid)))


def cmd_simulate(args):
    from .montecarlo import McConfig, calibrate_prep_error, run_trials

    det = _build_detector(args)
    mix = _mixture(args)
    prep = 0.0 if args.prep_error is None else args.prep_error
    if args.error_target is not None:
        prep = calibrate_prep_error(det, args.tap, args.error_target)
    trials = 10**6 if args.trials is None else args.trials
    cfg = McConfig(seed=args.seed, trials=trials, detector=det,
                   mixture=mix, workers=args.workers, prep_error=prep)
    res = run_trials(cfg, histograms=False)
    n_mean = args.tap * args.alpha_sq
    rows = [[args.detector, n_mean, res.p_accept_hat, res.stderr("p_accept"),
             res.e_hat, res.p_s_hat, res.g_hat]]
    extra = {
        "stderr_e": res.stderr("e"),
        "stderr_p_s": res.stderr("p_s"),
        "stderr_g": res.stderr("g"),
        "counts": {
            "trials": res.trials,
            "coherent": res.n_coherent,
            "accepted_coherent": res.n_accepted_coherent,
            "accepted_vacuum": res.n_accepted_vacuum,
        },
        "prep_error": prep,
    }
    if res.g_hat is None:
        extra["gain_undefined"] = (
            "no accepted trials" if res.n_accepted == 0 else "no coherent trials"
        )
    return ["detector", "R_alpha_sq", "P_accept", "stderr", "E", "P_S", "G"], rows, extra


def cmd_marginal(args):
    xs = _parse_grid(args.x)
    mix = _mixture(args)
    cols = ["x", "density_perturbed", "density_vacuum"]
    dens = [xs, marginal_density(mix, xs), marginal_density([(1.0, 0.0)], xs)]
    if args.detector:
        det = _build_detector(args)
        p_acc = acceptance_probability(det, math.sqrt(args.tap) * mix.alpha.magnitude)
        post = posterior_mixture(mix, p_acc, error_probability(det))
        dens.append(marginal_density(post, xs))
        cols.append("density_filtered")
    return cols, [list(vals) for vals in zip(*dens)]


def _filter_apd(args) -> Apd | None:
    if args.no_filter:
        return None
    return _apd(args, "filtered scenario needs --eta (or pass --no-filter)")


def cmd_keyrate(args):
    # --V, --tap and --prefactor default to None so that CONFLICTS sees them only when set
    det = _filter_apd(args)
    prefactor = args.prefactor or "ps"
    if args.optimize:
        res = qkd.optimize_key_rate(args.p, det, protocol=args.protocol,
                                    erased_mode_variance=args.erased_variance,
                                    prefactor=prefactor)
        V, T = res.optimizer
    else:
        V, T = 1.1 if args.V is None else args.V, None
        scenario = qkd.QkdScenario(V=V, p=args.p, filter=det,
                                   tap_reflectivity=0.5 if args.tap is None else args.tap,
                                   protocol=args.protocol,
                                   erased_mode_variance=args.erased_variance,
                                   prefactor=prefactor)
        res = qkd.scenario_key_rate(scenario)
    return (["K_lower", "I_ab", "chi_bE", "P_S", "multiplier", "V", "T"],
            [[res.k_lower, res.i_ab, res.chi_be, res.p_s, res.multiplier, V, T]])


def cmd_pmin(args):
    res = qkd.p_min_search(_filter_apd(args), precision=args.precision, protocol=args.protocol,
                           erased_mode_variance=args.erased_variance)
    return (["p", "max_K_lower"], [[p, k] for p, k in res.trace],
            {"p_min": res.p_min, "precision": res.precision, "bounded_below": res.bounded_below})


def cmd_oracle(args):
    """Spot checks of the Gaussian calculus against the truncated-Fock
    reference; prints both values and their deviation."""
    from . import fock

    n_max = args.nmax
    if not 0 <= n_max <= MAX_NMAX:
        raise ValueError(f"--nmax must lie in [0, {MAX_NMAX}], got {n_max}")
    rows = []
    if args.oracle_command != "coherent" and not 0.0 <= args.tap <= 1.0:
        raise ValueError(f"--tap is a reflectivity, must lie in [0, 1], got {args.tap}")
    if args.oracle_command != "noclick" and not math.isfinite(args.alpha):
        raise ValueError(f"--alpha: coherent amplitude must be finite, got {args.alpha}")
    if args.oracle_command == "noclick":
        if not 1.0 <= args.V < math.inf:
            raise ValueError(f"--V: two-mode squeezing variance must be >= 1 and finite, "
                             f"got {args.V}")
        if not 0.0 < args.eta <= 1.0:
            raise ValueError(f"--eta is a detector efficiency, must lie in (0, 1], got {args.eta}")
        if not 0.0 <= args.pd < 1.0:
            raise ValueError(f"--pd is a dark-count probability, must lie in [0, 1), "
                             f"got {args.pd}")
    # the one state that can be too wide for the cutoff (the beam splitter's targets are
    # narrower); |alpha|^2 above nmax + 1 puts over half of it past the cutoff, and could overflow
    flag = "--V" if args.oracle_command == "noclick" else "--alpha"
    if flag == "--alpha" and abs(args.alpha) > math.sqrt(n_max + 1.0):
        raise ValueError(f"--alpha does not fit --nmax {n_max}: "
                         f"|alpha| = {abs(args.alpha):g} exceeds sqrt(nmax + 1)")
    try:
        st = (fock.tmsv_state(args.V, n_max) if flag == "--V"
              else fock.coherent_state(args.alpha, n_max))
    except fock.TruncationError as exc:
        raise ValueError(f"{flag} does not fit --nmax {n_max}: {exc}") from exc
    if args.oracle_command == "coherent":
        rows.append(["mean_photons", fock.mean_photon(st, 0), args.alpha ** 2])
        rows.append(["trace_deficit", st.deficit, 0.0])
    elif args.oracle_command == "beamsplitter":
        st = fock.tensor(st, fock.vacuum_state(n_max))
        st = fock.fock_beamsplitter(st, 0, 1, 1.0 - args.tap)
        target = fock.tensor(
            fock.coherent_state(math.sqrt(1.0 - args.tap) * args.alpha, n_max),
            fock.coherent_state(-math.sqrt(args.tap) * args.alpha, n_max),
        )
        rows.append(["fidelity_vs_product", fock.fidelity(st, target), 1.0])
    else:  # noclick, the one command that loads the Gaussian reference calculus
        from . import gaussian

        st = fock.tensor(st, fock.vacuum_state(n_max))
        st = fock.fock_beamsplitter(st, 1, 2, 1.0 - args.tap)
        prob, cond = fock.povm_expectation(st, 2, fock.NoClick(args.eta, args.pd))
        gstate = gaussian.tensor(gaussian.two_mode_squeezed(args.V), gaussian.vacuum(1))
        gstate = gaussian.apply_beamsplitter(gstate, 1, 2, 1.0 - args.tap)
        w, gcond = gaussian.condition_on_noclick(gstate, 2, args.eta, args.pd)
        cm_f = fock.covariance_matrix(cond)[:4, :4]
        cm_g = gcond.components[0].cm.mat
        rows.append(["noclick_prob_fock", prob, w])
        rows.append(["max_cm_deviation", float(np.max(np.abs(cm_f - cm_g))), 0.0])
    return ["quantity", "value", "reference"], rows


# -- figure data -------------------------------------------------------------

FIG_ERROR = 5.3e-3
FIG_P = 0.02
FIG_TAP_PHOTONS = 1.65
EXP_ETA_APD = 0.63
EXP_PD_APD = 1.4e-4


def cmd_figures(args):
    # checked as McConfig checks them, also for fig5a-c, which run no trials
    if args.trials is not None and args.trials < 1:
        raise ValueError("need at least one trial")
    if args.workers < 1:
        raise ValueError("need at least one worker")
    which = args.which
    ns = np.linspace(0.0, FIG_TAP_PHOTONS, 34)
    if which == "fig3":
        return _figure3(args)
    if which == "fig4":
        dets_unit = _matched_trio(FIG_ERROR)
        cols = ["R_alpha_sq", "P_apd", "P_hds", "P_hdr"]
        rows = _rows(ns, *(acceptance_probability(d, np.sqrt(ns)) for d in dets_unit))
        mc_cols, mc_rows = _mc_acceptance_points(args, dets_unit, ns[::3])
        return cols, rows, {"mc_points": {"columns": mc_cols, "rows": mc_rows}}
    if which == "fig5a":
        es = np.logspace(-4, math.log10(0.2), 40)
        rows = []
        for e in es:
            dets = _matched_trio(e)
            svals = [metrics.sensitivity(d, 1.0) for d in dets]
            rows.append([e, *svals])
        return ["E", "S_over_R_apd", "S_over_R_hds", "S_over_R_hdr"], rows
    columns = [ns]  # fig5b and fig5c share their data
    for d in _matched_trio(FIG_ERROR):
        columns += metrics.gain_columns(d, FIG_P, ns)[1:]
    cols = ["R_alpha_sq", "Ps_apd", "G_apd", "Ps_hds", "G_hds", "Ps_hdr", "G_hdr"]
    return cols, _rows(*columns)


def _mc_acceptance_points(args, dets, ns):
    """Monte-Carlo acceptance estimates at every nonzero point, all from one
    sweep over the same --seed trials."""
    from .montecarlo import McConfig, run_sweep

    trials = 200_000 if args.trials is None else args.trials
    tap = 0.5
    points = [(n, name, McConfig(seed=args.seed, trials=trials, detector=d, workers=args.workers,
                                 mixture=ErasureMixture(CoherentAmplitude(math.sqrt(n / tap)),
                                                        0.5, tap)))
              for d, name in zip(dets, ("apd", "hds", "hdr")) for n in ns if n != 0.0]
    results = run_sweep([cfg for _, _, cfg in points], histograms=False)
    cols = ["R_alpha_sq", "detector", "P_hat", "P_se", "E_hat", "E_se"]
    rows = [[n, name, res.p_accept_hat, res.stderr("p_accept"), res.e_hat, res.stderr("e")]
            for (n, name, _), res in zip(points, results)]
    return cols, rows


def _figure3(args):
    from .montecarlo import McConfig, calibrate_prep_error, run_trials, theory_branches

    if args.seed == 2 ** 64 - 1:
        raise ValueError(f"seed must lie in [0, 2^64), and below 2^64 - 1 for fig3, which runs "
                         f"its vacuum reference at --seed + 1; got {args.seed}")
    tap = 0.5
    alpha_sq = FIG_TAP_PHOTONS / tap
    trials = 100_000 if args.trials is None else args.trials
    det_mc = Apd(eta=EXP_ETA_APD, dark_prob=EXP_PD_APD)
    leak = calibrate_prep_error(det_mc, tap, FIG_ERROR)

    mix = ErasureMixture(CoherentAmplitude(math.sqrt(alpha_sq)), FIG_P, tap)
    cfg = McConfig(seed=args.seed, trials=trials, detector=det_mc, mixture=mix,
                   workers=args.workers, prep_error=leak)
    vac_cfg = McConfig(seed=args.seed + 1, trials=trials, detector=det_mc,
                       mixture=ErasureMixture(mix.alpha, 0.0, tap), workers=args.workers)
    res, vac_res = run_trials(cfg), run_trials(vac_cfg)

    edges = res.hist_all.edges
    mids = 0.5 * (edges[:-1] + edges[1:])

    model_all = marginal_density(theory_branches(cfg, "all"), mids)
    model_filtered = marginal_density(theory_branches(cfg, "accepted"), mids)
    theory_vacuum = marginal_density([(1.0, 0.0)], mids)

    ideal_dets = _matched_trio(FIG_ERROR)
    theory_filtered = []
    for d in ideal_dets[:2]:  # ideal-efficiency APD and HDS reference curves
        p_acc = acceptance_probability(d, math.sqrt(FIG_TAP_PHOTONS))
        post = posterior_mixture(mix, p_acc, error_probability(d))
        theory_filtered.append(marginal_density(post, mids))

    cols = ["x", "theory_perturbed", "theory_vacuum", "theory_filtered_apd_ideal",
            "theory_filtered_hds_ideal", "model_perturbed", "model_filtered",
            "mc_density_perturbed", "mc_density_vacuum", "mc_density_filtered",
            "mc_count_perturbed", "mc_count_vacuum", "mc_count_filtered"]
    columns = [mids, marginal_density(mix, mids), theory_vacuum, *theory_filtered,
               model_all, model_filtered,
               res.hist_all.densities(), vac_res.hist_all.densities(),
               res.hist_accepted.densities(),
               res.hist_all.counts[1:-1], vac_res.hist_all.counts[1:-1],
               res.hist_accepted.counts[1:-1]]
    rows = [list(row) for row in zip(*(col.tolist() for col in columns))]  # counts stay ints
    return cols, rows, {"prep_error": leak, "accepted_trials": res.n_accepted}


# ---------------------------------------------------------------------------
# command table, parser and dispatch
# ---------------------------------------------------------------------------

# An argument is (flag, add_argument keywords); a flag without dashes is positional.
_DETECTOR = (
    ("--detector", {"choices": ["ideal", "apd", "hds", "hdr"]}),
    ("--eta", {"type": float, "help": "detector efficiency"}),
    ("--pd", {"type": float, "help": "APD dark-count probability"}),
    ("--threshold", {"type": float, "help": "homodyne threshold B"}),
    ("--match-error", {"type": float,
                       "help": "set the homodyne threshold from a target error probability"}),
    ("--efficiency-model", {"choices": ["linear", "sqrt"], "help": "default linear"}),
)
_DETECTOR_KEYS = tuple(flag[2:].replace("-", "_") for flag, _ in _DETECTOR)
_SEED = ("--seed", {"type": int, "default": 2024})
_FORMAT_OUT = (
    ("--format", {"choices": ["csv", "json"], "default": "csv"}),
    ("--out", {"help": "output path (stdout when omitted)"}),
)
_OUTPUT = (_SEED, *_FORMAT_OUT)
_MC_OUTPUT = (_SEED, ("--trials", {"type": int}), ("--workers", {"type": int, "default": 1}),
              *_FORMAT_OUT)
_P = ("--p", {"type": float, "required": True})
_R_GRID_HELP = "R|alpha|^2 grid start:stop:step, start >= 0"
_TAP = ("--tap", {"type": float, "default": 0.5})
_FILTER = (
    ("--no-filter", {"action": "store_true"}),
    ("--eta", {"type": float, "help": "filter APD efficiency"}),
    ("--pd", {"type": float, "help": "filter APD dark-count probability"}),
    ("--protocol", {"choices": ["heterodyne", "homodyne"], "default": "heterodyne"}),
    ("--erased-variance", {"choices": ["marginal", "alphabet"], "default": "marginal"}),
)
_ALPHA = ("--alpha", {"type": float, "default": 1.0})
_NMAX = ("--nmax", {"type": int, "default": 30})

# Subcommand ("qkd keyrate" for a nested one) -> (handler, help, arguments); a
# group such as "qkd" has no handler and holds the subcommands named after it.
COMMANDS = {
    "acceptance": (cmd_acceptance, "closed-form acceptance probability curves", (
        *_DETECTOR,
        ("--grid", {"default": "0:1.65:0.05", "help": _R_GRID_HELP}),
        ("--matched-error", {"type": float,
                             "help": "emit all three detectors tuned to this error probability"}),
        *_OUTPUT)),
    "error": (cmd_error, "detector error probability E = P(0)", (*_DETECTOR, *_OUTPUT)),
    "sensitivity": (cmd_sensitivity, "filter sensitivity S", (
        *_DETECTOR,
        ("--tap", {"type": float, "default": 0.5, "help": "tap reflectivity R"}),
        *_OUTPUT)),
    "gain": (cmd_gain, "gain and success probability over a grid", (
        *_DETECTOR, _P, ("--grid", {"default": "0.05:1.65:0.05", "help": _R_GRID_HELP}),
        *_OUTPUT)),
    "simulate": (cmd_simulate, "Monte-Carlo estimate of P, E, P_S, G", (
        *_DETECTOR, _P,
        ("--alpha-sq", {"type": float, "required": True, "help": "|alpha|^2 of the signal"}),
        _TAP,
        ("--prep-error", {"type": float,
                          "help": "residual coherent amplitude in vacuum slots"}),
        ("--error-target", {"type": float, "help": "calibrate --prep-error so the error "
                                                   "probability hits this value"}),
        *_MC_OUTPUT)),
    "marginal": (cmd_marginal, "analytic quadrature marginals", (
        *_DETECTOR, _P, ("--alpha-sq", {"type": float, "required": True}), _TAP,
        ("--x", {"default": "-2:3.5:0.05",
                 "help": "quadrature grid start:stop:step; write a negative start "
                         "with '=', e.g. --x=-1:2:0.25"}),
        *_OUTPUT)),
    "figures": (cmd_figures, "regenerate figure data files", (
        ("which", {"choices": ["fig3", "fig4", "fig5a", "fig5b", "fig5c"]}), *_MC_OUTPUT)),
    "qkd": (None, "security analysis", ()),
    "qkd keyrate": (cmd_keyrate, None, (
        ("--V", {"type": float, "help": "two-mode squeezing variance (default 1.1)"}),
        ("--p", {"type": float, "default": 0.5}),
        *_FILTER,
        ("--tap", {"type": float, "help": "filter tap reflectivity R (default 0.5)"}),
        ("--prefactor", {"choices": ["ps", "p_ps"], "help": "default ps"}),
        ("--optimize", {"action": "store_true", "help": "maximize over V (and T with a filter)"}),
        *_OUTPUT)),
    "qkd pmin": (cmd_pmin, None, (
        *_FILTER, ("--precision", {"type": float, "default": 1e-3}), *_OUTPUT)),
    "oracle": (None, "truncated-Fock spot checks of the Gaussian calculus", ()),
    "oracle coherent": (cmd_oracle, None, (_ALPHA, _NMAX, *_OUTPUT)),
    "oracle beamsplitter": (cmd_oracle, None, (_ALPHA, _TAP, _NMAX, *_OUTPUT)),
    "oracle noclick": (cmd_oracle, None, (
        ("--V", {"type": float, "default": 1.1}), _TAP,
        ("--eta", {"type": float, "default": 0.63}),
        ("--pd", {"type": float, "default": 0.005}),
        _NMAX, *_OUTPUT)),
}


# Flags that override one another, per subcommand: (flags, flags they override,
# message).  A value is set unless it is None or a switch left off.  Values set
# on both sides are rejected.
_ONE_THRESHOLD = (("threshold",), ("match_error",),
                  "--threshold and --match-error both set the homodyne threshold; "
                  "pass only one of them")
CONFLICTS = {
    "acceptance": ((("matched_error",), _DETECTOR_KEYS,
                    "--matched-error sets its own detectors; drop the detector flags"),
                   _ONE_THRESHOLD),
    **dict.fromkeys(("error", "sensitivity", "gain", "marginal"), (_ONE_THRESHOLD,)),
    "simulate": ((("error_target",), ("prep_error",),
                  "--error-target calibrates --prep-error; pass only one of them"),
                 _ONE_THRESHOLD),
    "qkd keyrate": (
        (("no_filter",), ("eta", "pd", "tap", "prefactor"),
         "--no-filter drops the filter; drop --eta, --pd, --tap and --prefactor"),
        (("optimize",), ("V", "tap"), "--optimize chooses V and the tap; drop --V and --tap")),
    "qkd pmin": ((("no_filter",), ("eta", "pd"),
                  "--no-filter drops the filter; drop --eta and --pd"),),
}

# The detector flags each --detector kind reads; None is no detector (marginal
# without a filter).  A flag the kind does not read is rejected.
_HOMODYNE_READS = ("eta", "threshold", "match_error", "efficiency_model")
DETECTOR_READS = {None: (), "ideal": (), "apd": ("eta", "pd"),
                  "hds": _HOMODYNE_READS, "hdr": _HOMODYNE_READS}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: every subcommand of COMMANDS with its
    arguments.  A parsed command names its subcommand in ``args.leaf`` (e.g.
    "qkd keyrate").  The parser holds no handler: ``main`` takes it from
    COMMANDS, so a parser can be reused."""
    parser = argparse.ArgumentParser(
        prog="vacfilter",
        description="vacuum-filtering analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"vacfilter {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (func, help_text, arguments) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        sub = groups[group].add_parser(leaf, **({"help": help_text} if help_text else {}))
        if func is None:
            groups[name] = sub.add_subparsers(dest=f"{name}_command", required=True)
            continue
        sub.set_defaults(leaf=name)
        for flag, kwargs in arguments:
            sub.add_argument(flag, **kwargs)
    return parser


def _check_conflicts(args):
    """Apply CONFLICTS to parsed ``args``."""
    for flags, overridden, message in CONFLICTS.get(args.leaf, ()):
        # `is`, not `in`: 0.0 == False
        if all(any(getattr(args, dest) is not None and getattr(args, dest) is not False
                   for dest in side) for side in (flags, overridden)):
            raise ValueError(message)


def _check_detector_flags(args):
    """Apply DETECTOR_READS to ``args`` of a subcommand with the detector flags."""
    if not hasattr(args, "detector"):
        return
    kind = args.detector
    for dest in _DETECTOR_KEYS[1:]:  # the flags after --detector itself
        if getattr(args, dest) is None or dest in DETECTOR_READS[kind]:
            continue
        flag = "--" + dest.replace("_", "-")
        raise ValueError(f"--detector {kind} does not read {flag}; drop it" if kind
                         else f"{flag} is read only with --detector")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: it depends only on the static
    command table and holds no handler."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = None  # the output file, opened before the work
    discard = False  # remove it on failure: this command created it
    try:
        args = _parser().parse_args(argv)
        _check_conflicts(args)
        _check_detector_flags(args)
        if not 0 <= args.seed < 2 ** 64:  # every provenance records it; Philox keys on 64 bits
            raise ValueError(f"seed must lie in [0, 2^64), got {args.seed}")
        source = "--out"
        if args.leaf == "figures" and not args.out:  # the default file is checked like --out
            args.out, source = f"{args.which}.{args.format}", "default output file"
        if args.out:  # an unopenable output file fails before the work
            discard = not os.path.lexists(args.out)
            out = _open(args.out, source)
        _emit(args, out, *COMMANDS[args.leaf][0](args))
        discard = False
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (qkd.NumericsError, FloatingPointError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if out is not None:
            out.close()
            if discard:
                os.remove(args.out)


if __name__ == "__main__":
    sys.exit(main())
