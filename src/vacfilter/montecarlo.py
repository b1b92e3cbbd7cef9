"""Trial-level stochastic simulation of the filtering protocol.

Each trial draws a preparation (coherent with probability p, else vacuum),
sends the tap arm to the filter detector, records the accept/reject decision
and a verification homodyne sample of the transmitted arm.  Acceptance and
error probabilities are estimated by comparing decisions against the known
preparation.

Randomness contract: trial t consumes exactly four uniform variates derived
from a Philox stream keyed by (seed, t // BLOCK_SIZE), so results are
bit-identical for any worker count and any partitioning of the trial range.
Normal variates are produced from uniforms by the inverse CDF, never by
rejection sampling, to keep the per-trial consumption fixed.

A run keeps verification histograms on request (``histograms=True``, the
default).  Then each block's verification quadratures are binned once, by an
arithmetic bin index (a truncated multiply, then one exact comparison each
way against the edges) that equals ``searchsorted(edges, x, side="right")``;
one ``bincount`` of that index with the trial's truth and acceptance bits
appended gives the four counts and both histograms.  Without histograms the
verification quadratures are never computed (their uniforms are still drawn)
and each configuration adds four tallies per block: the same counts, and the
results' histogram fields are None.  ``simulate`` and ``figures fig4`` read
counts only; ``figures fig3`` and ``verification_chi2`` read histograms.

A trial is the composition of two halves.  The mixture half (truth and
verification quadrature, and with them the histogram edges) is fixed by the
mixture's p, tap and |alpha| and by ``prep_error``; the detector half (tap
outcome and decision) adds the filter detector.

The runs decide a trial by cuts on its tap uniform u1, one set per
preparation branch (``_rules``).  An on/off filter accepts iff
u1 < P(sqrt(R) amp), the exact rule.  A homodyne filter accepts iff |x| > B
for x = fl(fl(d c) + ndtri(u1) / 2), d = fl(sqrt(R) amp kappa), |c| <= 1 the
phase factor; its cuts are Phi(2(+-B - d')) for d' at the ends of the range
of fl(d c), moved by the guard g = 2^-26 (``_GUARD``) towards the band
between them, and only the trials in that band get their quadrature, by the
operations of ``sample_trials`` in its order.  A bare cut, g = 0, is wrong:
``ndtri`` is not monotone on the 2^-53 lattice of the uniforms (about one
consecutive pair in 5,000 decreases) and ndtr(ndtri(u)) rounds below u for
about one u in eight, so a trial whose quadrature sits at the threshold
would flip.  The guard, at least 1.9e-8 in quadrature units, lies far above
the rounding of ``ndtr``, ``ndtri`` and the sum; it grows with B beyond
2^20, where the sum's rounding of up to B 2^-53 would catch up.  So every
count is bit-identical to computing every trial's quadrature.

``run_sweep`` evaluates configurations that share seed, trials and workers
on the same trials: it draws each block once (the uniforms and the normal
variates, computed only when a configuration reads them) and runs every
configuration on those draws, which live for that one block; each worker
writes its blocks' uniforms into one buffer and adds their counts into one
integer total per configuration, so a sweep's memory does not grow with its
length.  Configurations whose trials share everything the run reads form a
group: with histograms the mixture half (p, tap, |alpha|, prep_error), which
the group computes and bins once per block; without, the preparations alone,
so the group is keyed by p.  Per block a group splits its trials by
preparation once (``_Split``), and each member adds only its decisions and
its counts, so a one-configuration run is a group of one.  A band trial's
tap noise and phase factor come from the block's whole column when several
of the group's configurations read it, as in fig4's sweep, and from the
band trials' own uniforms otherwise, so a lone filter computes no column.
One group's arrays are alive at a time.  Each result equals a run of its
configuration alone; across the sweep they are common-random-number
estimates, not independent ones.  A block's variates, trial columns and bin
indices are computed in place wherever the arithmetic allows (the same
operations in the same order, so the same bits): a block then frees less
than glibc's heap-trim threshold, and the next block finds its pages still
mapped instead of faulting them back in.  Values chosen by a trial's truth
are gathered from a two-entry table: ``np.where`` branches on each entry of
a random mask.

``sample_trials`` returns the first n trials of the same stream as
``TrialRecords``: four numpy columns (truth, tap outcome, decision,
verification quadrature), filled by the block loop and the two halves,
every trial's tap quadrature computed.  Iterating or indexing it shows one
trial as a ``TrialRecord``; code that reads the columns builds no per-trial
object.  A pull of a non-integer n raises ``TypeError``, one of n < 0 or of
more than ``cfg.trials`` trials ``ValueError``.

Imperfect vacuum preparation is modeled by an optional residual coherent
amplitude ``prep_error`` leaking into nominal vacuum slots; it lets the
simulated error probability reproduce an experimental floor that sits above
the dark-count level.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import chdtrc, ndtr, ndtri

from .detectors import (
    Apd,
    Homodyne,
    HomodyneRandomized,
    IdealOnOff,
    acceptance_probability,
    effective_displacement,
    error_probability,
)
from .signal_model import VACUUM_QUAD_VARIANCE, ErasureMixture, marginal_cdf

BLOCK_SIZE = 1 << 16
_QUAD_SD = math.sqrt(VACUUM_QUAD_VARIANCE)  # exactly 0.5
HIST_BINS = 80  # verification-quadrature histogram bins
MAX_WORKERS = 64  # threads a run opens at most; results do not depend on it
MIN_EXPECTED = 5.0  # chi-squared bins with fewer expected counts are pooled
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53
_GUARD = 2.0 ** -26  # tap-uniform margin of the homodyne cuts


def _integer(name: str, value) -> int:
    """``value`` as an int; TypeError naming ``name`` for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class McConfig:
    seed: int
    trials: int
    detector: object
    mixture: ErasureMixture
    workers: int = 1
    prep_error: float = 0.0  # coherent amplitude leaked into vacuum slots

    def __post_init__(self):
        for name in ("seed", "trials", "workers"):  # a float seed keys Philox by its integer part
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 <= self.seed < 2 ** 64:  # Philox's key word: others alias modulo 2^64
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not 0.0 <= self.prep_error < math.inf:
            raise ValueError("prep_error is an amplitude magnitude, must be finite and >= 0")


@dataclass(frozen=True)
class TrialRecord:
    """One trial, as ``TrialRecords`` shows it by iteration or indexing."""

    truth: str  # "coherent" | "vacuum"
    tap_outcome: object  # bool click flag (on/off) or quadrature value (homodyne)
    accepted: bool
    verify_x: float


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """The first n trials of a configuration as columns, one entry per trial:
    ``truth`` (bool, True for a coherent preparation), ``tap_outcome`` (bool
    click flag for on/off filters, float quadrature for homodyne ones),
    ``accepted`` (bool) and ``verify_x`` (float).  ``len``, iteration and
    integer indexing show the same trials as ``TrialRecord`` values."""

    truth: np.ndarray
    tap_outcome: np.ndarray
    accepted: np.ndarray
    verify_x: np.ndarray

    def __post_init__(self):
        lengths = {len(self.truth), len(self.tap_outcome), len(self.accepted),
                   len(self.verify_x)}
        if len(lengths) != 1:
            raise ValueError(f"columns must have one length, got {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.truth)

    def __iter__(self):
        labels = np.where(self.truth, "coherent", "vacuum")
        return map(TrialRecord, labels.tolist(), self.tap_outcome.tolist(),
                   self.accepted.tolist(), self.verify_x.tolist())

    def __getitem__(self, i) -> TrialRecord:
        i = operator.index(i)
        return TrialRecord("coherent" if self.truth[i] else "vacuum",
                           self.tap_outcome[i].item(), self.accepted[i].item(),
                           self.verify_x[i].item())


@dataclass
class Histogram:
    """Binned verification-quadrature counts with under/overflow bins."""

    edges: np.ndarray
    counts: np.ndarray  # length len(edges) + 1: [underflow, bins..., overflow]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def densities(self) -> np.ndarray:
        """Per-bin probability density (interior bins only)."""
        widths = np.diff(self.edges)
        return self.counts[1:-1] / max(self.total, 1) / widths


@dataclass
class McResult:
    config: McConfig
    n_coherent: int
    n_accepted_coherent: int
    n_vacuum: int
    n_accepted_vacuum: int
    hist_all: Histogram | None  # None for a run made without histograms
    hist_accepted: Histogram | None

    @property
    def trials(self) -> int:
        return self.n_coherent + self.n_vacuum

    @property
    def n_accepted(self) -> int:
        return self.n_accepted_coherent + self.n_accepted_vacuum

    @property
    def p_accept_hat(self) -> float | None:
        if self.n_coherent == 0:
            return None
        return self.n_accepted_coherent / self.n_coherent

    @property
    def e_hat(self) -> float | None:
        if self.n_vacuum == 0:
            return None
        return self.n_accepted_vacuum / self.n_vacuum

    @property
    def p_s_hat(self) -> float:
        return self.n_accepted / self.trials

    @property
    def g_hat(self) -> float | None:
        """Empirical gain p'/p; None (with zero accepted trials) is reported
        rather than raised so sweeps can proceed."""
        if self.n_accepted == 0 or self.n_coherent == 0:
            return None
        p_prime = self.n_accepted_coherent / self.n_accepted
        p_emp = self.n_coherent / self.trials
        return p_prime / p_emp

    def stderr(self, which: str) -> float | None:
        """Exact binomial standard error of an estimate ('p_accept', 'e',
        'p_s') or a delta-method error for 'g'."""
        def binom(k, n):
            if n == 0:
                return None
            q = k / n
            return math.sqrt(q * (1.0 - q) / n)

        if which == "p_accept":
            return binom(self.n_accepted_coherent, self.n_coherent)
        if which == "e":
            return binom(self.n_accepted_vacuum, self.n_vacuum)
        if which == "p_s":
            return binom(self.n_accepted, self.trials)
        if which == "g":
            g = self.g_hat
            if g is None or g == 0.0:
                return None
            pp = self.n_accepted_coherent / self.n_accepted
            pe = self.n_coherent / self.trials
            var = 0.0
            if 0.0 < pp < 1.0:
                var += (1.0 - pp) / (pp * self.n_accepted)
            if 0.0 < pe < 1.0:
                var += (1.0 - pe) / (pe * self.trials)
            return abs(g) * math.sqrt(var)
        raise ValueError(f"unknown estimate {which!r}")


def _hist_edges(cfg: McConfig) -> np.ndarray:
    mean = cfg.mixture.transmitted_amplitude.magnitude
    lo = -5.0 * _QUAD_SD
    hi = mean + 5.0 * _QUAD_SD
    return np.linspace(lo, hi, HIST_BINS + 1)


def _block_uniforms(seed: int, block: int, out: np.ndarray) -> np.ndarray:
    """Fill the (n, 4) array ``out`` with the uniforms of the block's first n trials."""
    key = np.array([np.uint64(seed), np.uint64(block)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.random(out=out)


def _normals(u: np.ndarray) -> np.ndarray:
    """``_QUAD_SD * ndtri(clip(u))``, computed in one new array."""
    x = np.clip(u, _U_LO, _U_HI)
    ndtri(x, x)
    x *= _QUAD_SD
    return x


def _cos_phase(u: np.ndarray) -> np.ndarray:
    """``cos(2 pi (u - 1/2))``, the local oscillator's phase factor, in one new array."""
    phase = u - 0.5
    phase *= 2.0 * np.pi
    return np.cos(phase, out=phase)


class _Draws:
    """Trials [block * BLOCK_SIZE, stop) of one block: the uniforms, written
    into ``buffer``, and the variates that depend on no configuration, each
    computed on first use so that a run pays only for the ones its detectors
    read."""

    def __init__(self, seed: int, block: int, stop: int, buffer: np.ndarray):
        n = min(BLOCK_SIZE, stop - block * BLOCK_SIZE)
        self.u = _block_uniforms(seed, block, buffer[:n])

    @cached_property
    def tap_noise(self) -> np.ndarray:
        return _normals(self.u[:, 1])

    @cached_property
    def cos_phase(self) -> np.ndarray:
        return _cos_phase(self.u[:, 2])

    @cached_property
    def verify_noise(self) -> np.ndarray:
        return _normals(self.u[:, 3])


def _blocks(seed: int, stop: int, first: int = 0, step: int = 1):
    """Yield (block, _Draws) for blocks first, first + step, ... of trials
    [0, stop), or block 0 with no trials if stop = 0.  One buffer takes every
    block's uniforms: a fresh array per block, freed with the block's other
    arrays, would return the heap top to the system and fault it back in."""
    buffer = np.empty((min(BLOCK_SIZE, stop), 4))
    for b in range(first, max(1, -(-stop // BLOCK_SIZE)), step):
        yield b, _Draws(seed, b, stop, buffer)


def _select(truth: np.ndarray, if_true: float, if_false: float) -> np.ndarray:
    """``np.where(truth, if_true, if_false)`` for two scalars, bit for bit, as a gather."""
    return np.array([if_false, if_true]).take(truth.view(np.uint8))


def _mixture_key(cfg: McConfig) -> tuple:
    """What fixes a configuration's mixture half: p, tap, |alpha| and prep_error."""
    mix = cfg.mixture
    return mix.p, mix.tap_reflectivity, mix.alpha.magnitude, cfg.prep_error


def _mixture_half(cfg: McConfig, draws: _Draws):
    """The trials' preparations and verification quadratures (truth, verify_x):
    everything of a trial that the filter detector does not decide."""
    mix = cfg.mixture
    truth = draws.u[:, 0] < mix.p
    sqrt_t = math.sqrt(mix.transmissivity)
    verify_x = _select(truth, sqrt_t * mix.alpha.magnitude, sqrt_t * cfg.prep_error)
    verify_x += draws.verify_noise
    return truth, verify_x


def _detector_half(cfg: McConfig, draws: _Draws, truth: np.ndarray):
    """The filter's tap outcome and decision (tap_outcome, accepted) on the
    preparations ``truth``, every trial's quadrature computed."""
    u = draws.u
    mix = cfg.mixture
    sqrt_r = math.sqrt(mix.tap_reflectivity)
    alpha = mix.alpha.magnitude

    det = cfg.detector
    if isinstance(det, (IdealOnOff, Apd)):
        p_sig = acceptance_probability(det, sqrt_r * alpha)
        p_vac = acceptance_probability(det, sqrt_r * cfg.prep_error)
        accepted = u[:, 1] < _select(truth, p_sig, p_vac)
        return accepted, accepted
    if isinstance(det, Homodyne):
        tap_outcome = _select(truth, sqrt_r * alpha, sqrt_r * cfg.prep_error)
        tap_outcome *= effective_displacement(det, 1.0)
        if isinstance(det, HomodyneRandomized):
            tap_outcome *= draws.cos_phase
        tap_outcome += draws.tap_noise
        return tap_outcome, np.abs(tap_outcome) > det.threshold
    raise TypeError(f"unknown detector {det!r}")


@dataclass(frozen=True)
class _Rule:
    """How a configuration decides a trial from its tap uniform u1, with one
    set of cuts per preparation branch (index 0 vacuum, 1 coherent): an
    on/off rule (``mean`` None) accepts iff u1 < cut; a homodyne rule
    accepts below lo and above hi, rejects between mid_lo and mid_hi, and
    decides the band trials in between by their tap quadrature."""

    cuts: tuple  # per branch: (P,) on/off; (lo, mid_lo, mid_hi, hi) homodyne
    mean: tuple | None = None  # homodyne: the branch's fl(sqrt(R) amp kappa)
    randomized: bool = False
    threshold: float = 0.0


def _rules(cfgs: list) -> list[_Rule]:
    """Each configuration's decision rule; every homodyne cut of the list
    comes from one ``ndtr`` call."""
    rules, homodyne, args = [], [], []
    for i, cfg in enumerate(cfgs):
        det = cfg.detector
        sqrt_r = math.sqrt(cfg.mixture.tap_reflectivity)
        amps = (sqrt_r * cfg.prep_error, sqrt_r * cfg.mixture.alpha.magnitude)
        if isinstance(det, (IdealOnOff, Apd)):
            rules.append(_Rule(tuple((acceptance_probability(det, a),) for a in amps)))
            continue
        if not isinstance(det, Homodyne):
            raise TypeError(f"unknown detector {det!r}")
        kappa = effective_displacement(det, 1.0)
        mean = tuple(a * kappa for a in amps)
        randomized = isinstance(det, HomodyneRandomized)
        b = det.threshold
        for d in mean:
            # the quadrature's mean part lies in [lo, hi]: |fl(d cos)| <= |d|
            lo, hi = (-abs(d), abs(d)) if randomized else (d, d)
            args += [-b - hi, -b - lo, b - hi, b - lo]
        rules.append(None)
        homodyne.append((i, mean, randomized, b))
    phi = ndtr(2.0 * np.array(args)).reshape(-1, 2, 4)
    for (i, mean, randomized, b), cdf in zip(homodyne, phi):
        # mean + noise rounds by up to b 2^-53 where |x| = b: the guard grows with b past 2^20
        guard = _GUARD * max(1.0, b * 2.0 ** -20)
        cuts = cdf + np.array([-guard, guard, -guard, guard])
        rules[i] = _Rule(tuple(map(tuple, cuts.tolist())), mean, randomized, b)
    return rules


class _Split:
    """One block's trials split by preparation (index 0 vacuum, 1 coherent):
    each branch's positions in the block and its tap uniforms u1, gathered
    once so that every decision reads the branch alone.  A band variate
    column read by more than one of the group's ``rules`` is taken whole."""

    def __init__(self, draws: _Draws, truth: np.ndarray, rules: list):
        self.draws = draws
        self.whole_noise = sum(rule.mean is not None for rule in rules) > 1
        self.whole_cos = sum(rule.randomized for rule in rules) > 1
        self.positions = (np.flatnonzero(~truth), np.flatnonzero(truth))
        column = draws.u[:, 1]  # a 1-d view gathers about twice as fast as u[at, 1]
        self.u1 = tuple(column[at] for at in self.positions)

    def decide(self, rule: _Rule) -> list[np.ndarray]:
        """The rule's decisions on each branch's trials, one bool per trial."""
        if rule.mean is None:
            return [u < cut for u, (cut,) in zip(self.u1, rule.cuts)]
        accepted, bands = [], []
        for u, (lo, mid_lo, mid_hi, hi) in zip(self.u1, rule.cuts):
            acc = u < lo
            acc |= u > hi
            band = u <= mid_lo
            band |= u >= mid_hi
            np.greater(band, acc, out=band)  # neither accepted nor rejected by a cut
            accepted.append(acc)
            bands.append(np.flatnonzero(band))
        x = np.abs(self._tap_quadrature(rule, bands)) > rule.threshold
        k = len(bands[0])
        accepted[0][bands[0]] = x[:k]
        accepted[1][bands[1]] = x[k:]
        return accepted

    def _tap_quadrature(self, rule: _Rule, bands: list) -> np.ndarray:
        """The tap quadratures of the band trials (``bands`` index each
        branch), vacuum first: ``_detector_half``'s operations in its order
        (mean, x cos, + noise), so the same bits."""
        draws, k = self.draws, len(bands[0])
        at = np.concatenate([pos.take(band) for pos, band in zip(self.positions, bands)])
        noise = draws.tap_noise.take(at) if self.whole_noise else _normals(draws.u[:, 1][at])
        if not rule.randomized:
            noise[:k] += rule.mean[0]
            noise[k:] += rule.mean[1]
            return noise
        x = draws.cos_phase.take(at) if self.whole_cos else _cos_phase(draws.u[:, 2][at])
        x[:k] *= rule.mean[0]
        x[k:] *= rule.mean[1]
        x += noise
        return x

    def scatter(self, accepted: list) -> np.ndarray:
        """Per-branch decisions as one bool per trial of the block."""
        out = np.empty(len(self.draws.u), bool)
        for at, acc in zip(self.positions, accepted):
            out[at] = acc
        return out


def _bin_index(padded: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, x, side="right")`` for evenly spaced edges and
    finite x, given ``padded = [-inf, *edges, inf]``: an arithmetic guess, then
    an exact +-1 fix-up against the edges."""
    n = len(padded) - 2
    guess = x - padded[1]
    guess *= (n - 1) / (padded[-2] - padded[1])
    guess += 1.0
    np.maximum(guess, 0.0, out=guess)
    np.minimum(guess, n, out=guess)
    k = guess.astype(np.intp)  # truncation: the floor of a value >= 0
    del guess
    k -= x < padded.take(k)  # padded[k] = edges[k - 1]
    k += x >= padded[1:].take(k)  # padded[k + 1]
    return k


def _group_counts(group: list, rules: list, draws: _Draws, padded: np.ndarray | None,
                  totals: list) -> None:
    """Add each configuration's counts on one block to its entry of
    ``totals``, laid out [bin][truth][accepted].  The configurations share
    their preparations, split by branch once; each adds its rule's decisions.
    With ``padded`` None the run keeps no histograms, and each configuration
    adds four tallies, one bin.  Otherwise the group shares its mixture half,
    binned once, and each configuration adds one ``bincount``."""
    if padded is None:
        split = _Split(draws, draws.u[:, 0] < group[0].mixture.p, rules)
        for rule, total in zip(rules, totals):
            acc_v, acc_c = split.decide(rule)
            n_va, n_ca = np.count_nonzero(acc_v), np.count_nonzero(acc_c)
            total += (len(acc_v) - n_va, n_va, len(acc_c) - n_ca, n_ca)
        return
    truth, verify_x = _mixture_half(group[0], draws)
    index = _bin_index(padded, verify_x)
    del verify_x
    index <<= 1
    index += truth
    index <<= 1
    split = _Split(draws, truth, rules)
    for rule, total in zip(rules, totals):
        accepted = split.scatter(split.decide(rule))
        index += accepted  # each configuration's bits, in place and taken back
        total += np.bincount(index, minlength=len(total))
        index -= accepted


def run_sweep(cfgs, histograms: bool = True) -> list[McResult]:
    """Run several configurations on the same trials and return one McResult
    per configuration, in order.

    The configurations must share seed, trials and workers.  Each block is
    drawn once and its trials split by preparation once per group; with
    histograms, configurations with equal p, tap, |alpha| and prep_error form
    one group, whose mixture half is computed and binned once per block;
    without, the group is every configuration with the same p.  Each
    configuration adds only its decisions.  Blocks are generated from
    per-block Philox keys and split among at most ``MAX_WORKERS`` workers,
    each adding its blocks' counts into one integer total per configuration;
    integer sums are exact in any order, so each result is bit-identical to a
    run of its configuration alone, for any worker count.  With
    ``histograms`` false the verification quadratures are neither computed
    nor binned, and each result's histograms are None; the counts are the
    same.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    first = cfgs[0]
    shared = (first.seed, first.trials, first.workers)
    for cfg in cfgs[1:]:
        if (cfg.seed, cfg.trials, cfg.workers) != shared:
            raise ValueError("a sweep's configurations must share seed, trials and workers, "
                             f"got {shared} and {(cfg.seed, cfg.trials, cfg.workers)}")
    rules = _rules(cfgs)
    keys = [_mixture_key(cfg) if histograms else cfg.mixture.p for cfg in cfgs]
    members = {}  # group key -> positions of its group's configurations
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    padded = {key: np.concatenate(([-np.inf], _hist_edges(cfgs[idx[0]]), [np.inf]))
              if histograms else None for key, idx in members.items()}
    workers = min(first.workers, -(-first.trials // BLOCK_SIZE), MAX_WORKERS)

    def worker_totals(w):
        # worker w takes blocks w, w + workers, ...
        totals = [np.zeros(4 if padded[key] is None else 4 * (len(padded[key]) - 1), np.int64)
                  for key in keys]
        for _, draws in _blocks(first.seed, first.trials, w, workers):
            for key, idx in members.items():
                _group_counts([cfgs[i] for i in idx], [rules[i] for i in idx], draws,
                              padded[key], [totals[i] for i in idx])
        return totals

    if workers == 1:
        totals = worker_totals(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = [sum(t) for t in zip(*pool.map(worker_totals, range(workers)))]

    results = []
    for cfg, key, total in zip(cfgs, keys, totals):
        split = total.reshape(-1, 2, 2)  # [bin][truth][accepted]
        (n_vr, n_va), (n_cr, n_ca) = split.sum(axis=0).tolist()
        hists = (None, None)
        if histograms:
            e = padded[key][1:-1]
            hists = (Histogram(e, split.sum(axis=(1, 2))),
                     Histogram(e, split[:, :, 1].sum(axis=1)))
        results.append(McResult(cfg, n_cr + n_ca, n_ca, n_vr + n_va, n_va, *hists))
    return results


def run_trials(cfg: McConfig, histograms: bool = True) -> McResult:
    """Run the full simulation of one configuration and return count-based
    estimates (a sweep of one), with verification histograms unless
    ``histograms`` is false."""
    return run_sweep([cfg], histograms)[0]


def sample_trials(cfg: McConfig, n: int) -> TrialRecords:
    """The first n trials of ``cfg`` as columns (the randomness of run_trials),
    for inspection and record-level tests; iterate the result for
    ``TrialRecord`` values.  Raises TypeError unless n is an integer and
    ValueError unless 0 <= n <= cfg.trials."""
    n = _integer("n", n)
    if not 0 <= n <= cfg.trials:
        raise ValueError(f"n must be in [0, cfg.trials] = [0, {cfg.trials}], got n = {n}")
    columns = None
    for block, draws in _blocks(cfg.seed, n):
        truth, verify_x = _mixture_half(cfg, draws)
        trials = (truth, *_detector_half(cfg, draws, truth), verify_x)
        if columns is None:  # n = 0: the one empty block sets the dtypes
            columns = [np.empty(n, col.dtype) for col in trials]
        start = block * BLOCK_SIZE
        for out, col in zip(columns, trials):
            out[start:start + len(col)] = col
    return TrialRecords(*columns)


# ---------------------------------------------------------------------------
# verification-arm analysis
# ---------------------------------------------------------------------------

def theory_branches(cfg: McConfig, condition: str) -> list:
    """Weighted coherent branches of the verification-arm marginal implied by
    the simulation model, for all trials ('all') or the filter-accepted ones
    ('accepted')."""
    mix = cfg.mixture
    sqrt_r = math.sqrt(mix.tap_reflectivity)
    sqrt_t = math.sqrt(mix.transmissivity)
    amp_sig = sqrt_t * mix.alpha.magnitude
    amp_leak = sqrt_t * cfg.prep_error
    p = mix.p
    if condition == "all":
        return [(p, amp_sig), (1.0 - p, amp_leak)]
    if condition != "accepted":
        raise ValueError(f"condition must be all/accepted, got {condition!r}")
    p_acc = acceptance_probability(cfg.detector, sqrt_r * mix.alpha.magnitude)
    e_eff = acceptance_probability(cfg.detector, sqrt_r * cfg.prep_error)
    p_s = p * p_acc + (1.0 - p) * e_eff
    if p_s <= 0.0:
        raise ValueError(f"empty {condition} subset in theory model")
    return [(p * p_acc / p_s, amp_sig), ((1.0 - p) * e_eff / p_s, amp_leak)]


def verification_chi2(result: McResult, condition: str = "all"):
    """Chi-squared fit of the verification quadratures over a subset of
    trials ('all' or 'accepted') to the analytic marginal of the
    corresponding mixture.  Returns (statistic, dof, p_value)."""
    hist = result.hist_accepted if condition == "accepted" else result.hist_all
    if hist is None:
        raise ValueError("the run was made without histograms; "
                         "run it with histograms=True to fit its verification quadratures")
    if hist.total == 0:
        raise ValueError(f"no trials in subset {condition!r}")
    # theory_branches rejects a condition other than 'all' and 'accepted'
    cdf = marginal_cdf(theory_branches(result.config, condition), hist.edges)
    probs = np.concatenate([[cdf[0]], np.diff(cdf), [1.0 - cdf[-1]]])
    return chi2_gof(hist.counts, probs)


def chi2_gof(counts: np.ndarray, probs: np.ndarray):
    """Pearson chi-squared goodness of fit with small-expectation pooling.

    Bins whose expected count falls below ``MIN_EXPECTED`` are merged into
    their neighbor (left to right).  Returns (statistic, dof, p_value).
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    expected = np.asarray(probs, dtype=float) * total
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
            acc_c = acc_e = 0.0
    if merged_c:
        merged_c[-1] += acc_c
        merged_e[-1] += acc_e
    c = np.array(merged_c)
    e = np.array(merged_e)
    if len(c) < 2:
        raise ValueError("too few populated bins for a chi-squared test")
    stat = float(np.sum((c - e) ** 2 / e))
    dof = len(c) - 1
    return stat, dof, float(chdtrc(dof, stat))


def calibrate_prep_error(det, tap_reflectivity: float, error_target: float) -> float:
    """Residual vacuum-slot amplitude that makes the measured error
    probability hit ``error_target`` for this detector and tap, found by
    bisection on [0, 1024] to 1e-12.  Requires the detector's intrinsic error
    probability <= error_target < 1 and, above the intrinsic error, a tap
    that sends light to the filter."""
    if not math.isfinite(error_target):
        raise ValueError(f"target error must be finite, got {error_target}")
    if error_target >= 1.0:
        raise ValueError(f"target error {error_target} unreachable: an error probability "
                         "stays below 1 at any prep_error")
    base = error_probability(det)
    if error_target < base:
        raise ValueError(
            f"target error {error_target} below intrinsic detector error {base}"
        )
    if error_target == base:
        return 0.0
    if tap_reflectivity == 0.0:
        raise ValueError(f"target error {error_target} unreachable at tap reflectivity 0: "
                         "no prep_error light reaches the filter")
    sqrt_r = math.sqrt(tap_reflectivity)

    def f(amp):
        return acceptance_probability(det, sqrt_r * amp) - error_target

    lo, hi = 0.0, 1024.0
    if f(hi) < 0.0:
        raise ValueError(f"target error {error_target} not reached by this detector "
                         f"at prep_error up to {hi}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)
