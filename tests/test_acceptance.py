"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them inline).

Criteria and tolerances are fixed here; nothing is deferred to later
calibration.  Budgets are asserted with the generous limits the criteria
state; the measured wall time is printed alongside."""

import math
import time

import numpy as np
from finite_difference import FD_ABS, FD_REL, richardson_sensitivity
from qkd_reference import weak_squeezing_keyrate

from vacfilter import fock, gaussian
from vacfilter.cli import main as cli_main
from vacfilter.detectors import (
    Apd,
    HomodyneRandomized,
    HomodyneStabilized,
    IdealOnOff,
    acceptance_probability,
    error_probability,
    threshold_for_error,
)
from vacfilter.gaussian import condition_on_noclick
from vacfilter.metrics import gain_columns, sensitivity
from vacfilter.montecarlo import (
    McConfig,
    calibrate_prep_error,
    run_sweep,
    run_trials,
    verification_chi2,
)
from vacfilter.qkd import QkdScenario, optimize_key_rate, p_min_search, scenario_key_rate
from vacfilter.signal_model import CoherentAmplitude, ErasureMixture

E_MATCH = 5.3e-3
SEED = 20240615


def report(criterion: str, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status} ({elapsed:.1f}s): {detail}")


def matches_finite_difference(det, tap: float) -> bool:
    """The closed-form sensitivity agrees with the Richardson finite difference
    of the acceptance probability (tolerances in ``finite_difference``)."""
    s = sensitivity(det, tap)
    return abs(richardson_sensitivity(det, tap) - s) <= max(FD_REL * s, FD_ABS)


class TestAcceptance:
    def test_criterion_01_ideal_sensitivity(self):
        t0 = time.time()
        ratios = {r: sensitivity(IdealOnOff(), r) / r for r in (0.1, 0.5, 0.9)}
        fd_ok = all(matches_finite_difference(IdealOnOff(), r) for r in ratios)
        ok = all(abs(v - 1.0) < 1e-6 for v in ratios.values()) and fd_ok
        elapsed = time.time() - t0
        report("criterion-01 ideal S/R = 1", ok,
               ", ".join(f"R={r}: {v:.9f}" for r, v in ratios.items())
               + f"; finite difference agrees={fd_ok}", elapsed)
        assert ok and elapsed < 1.0

    def test_criterion_02_apd_sensitivity_identity(self):
        t0 = time.time()
        devs, fd_ok = {}, True
        for pd in (1e-4, 5e-3, 0.05):
            got = sensitivity(Apd(eta=1.0, dark_prob=pd), 0.5) / 0.5
            devs[pd] = abs(got - (1 - pd) ** 2)
            fd_ok = fd_ok and matches_finite_difference(Apd(eta=1.0, dark_prob=pd), 0.5)
        ok = all(d < 1e-6 for d in devs.values()) and fd_ok
        elapsed = time.time() - t0
        report("criterion-02 APD S/R = (1-pd)^2", ok,
               ", ".join(f"pd={pd}: dev={d:.2e}" for pd, d in devs.items())
               + f"; finite difference agrees={fd_ok}", elapsed)
        assert ok and elapsed < 1.0

    def test_criterion_03_detector_ordering(self):
        t0 = time.time()
        b = threshold_for_error(E_MATCH)
        apd = Apd(eta=1.0, dark_prob=E_MATCH)
        hds = HomodyneStabilized(eta=1.0, threshold=b)
        hdr = HomodyneRandomized(eta=1.0, threshold=b)
        p_ok = True
        for n in np.linspace(0.0, 1.65, 34):
            beta = math.sqrt(n)
            pa = acceptance_probability(apd, beta)
            ps = acceptance_probability(hds, beta)
            pr = acceptance_probability(hdr, beta)
            p_ok = p_ok and pa >= ps - 1e-12 and ps >= pr - 1e-12
        s_apd = sensitivity(apd, 0.5)
        s_hds = sensitivity(hds, 0.5)
        s_hdr = sensitivity(hdr, 0.5)
        s_ok = s_apd > s_hds > s_hdr
        fd_ok = all(matches_finite_difference(d, 0.5) for d in (apd, hds, hdr))
        elapsed = time.time() - t0
        report("criterion-03 ordering at matched E", p_ok and s_ok and fd_ok,
               f"P ordering={p_ok}; S/R: apd={2*s_apd:.4f} hds={2*s_hds:.4f} "
               f"hdr={2*s_hdr:.4f}; finite difference agrees={fd_ok}", elapsed)
        assert p_ok and s_ok and fd_ok and elapsed < 5.0

    def test_criterion_04_monte_carlo_vs_closed_form(self):
        t0 = time.time()
        b = threshold_for_error(E_MATCH)
        detectors = {
            "ideal": IdealOnOff(),
            "apd": Apd(eta=0.63, dark_prob=1.4e-4),
            "hds": HomodyneStabilized(eta=0.84, threshold=b),
            "hdr": HomodyneRandomized(eta=0.84, threshold=b),
        }
        grid = (0.2, 0.55, 0.9, 1.25, 1.65)
        tap, p = 0.5, 0.5
        # Each sweep result equals its configuration's run alone, bit for bit.
        points = [(det, n_mean, McConfig(seed=SEED, trials=10**6, detector=det, workers=4,
                                         mixture=ErasureMixture(
                                             CoherentAmplitude(math.sqrt(n_mean / tap)), p, tap)))
                  for det in detectors.values() for n_mean in grid]
        worst = 0.0
        checks = 0
        for (det, n_mean, _), res in zip(points, run_sweep([cfg for *_, cfg in points]),
                                         strict=True):
            e_true = error_probability(det)
            p_true = acceptance_probability(det, math.sqrt(n_mean))
            p_s_true = p * p_true + (1 - p) * e_true
            for hat, true, n in (
                (res.p_accept_hat, p_true, res.n_coherent),
                (res.e_hat, e_true, res.n_vacuum),
                (res.p_s_hat, p_s_true, res.trials),
            ):
                sigma = math.sqrt(max(true * (1 - true), 1e-12) / n)
                worst = max(worst, abs(hat - true) / sigma)
                checks += 1
        three_sigma_ok = worst < 3.0

        mix = ErasureMixture(CoherentAmplitude(math.sqrt(1.65 / tap)), p, tap)
        outs = [[(r.n_coherent, r.n_accepted_coherent, r.n_accepted_vacuum,
                  tuple(r.hist_all.counts), tuple(r.hist_accepted.counts))
                 for r in run_sweep(McConfig(seed=SEED, trials=10**6, detector=det,
                                             mixture=mix, workers=workers)
                                    for det in detectors.values())]
                for workers in (1, 4, 8)]
        identical = outs[0] == outs[1] == outs[2]
        elapsed = time.time() - t0
        ok = three_sigma_ok and identical
        report("criterion-04 MC vs closed form", ok,
               f"{checks} estimates, worst |z| = {worst:.2f} (< 3), "
               f"bit-identical over workers 1/4/8: {identical}", elapsed)
        assert ok and elapsed < 60.0

    def test_criterion_05_gain_coincidence(self):
        t0 = time.time()
        p = 0.02
        b = threshold_for_error(E_MATCH)
        dets = [Apd(eta=1.0, dark_prob=E_MATCH),
                HomodyneStabilized(eta=1.0, threshold=b),
                HomodyneRandomized(eta=1.0, threshold=b)]
        grid = np.linspace(0.0, 1.65, 23)
        worst = 0.0
        for det in dets:
            for p_s, g in zip(*gain_columns(det, p, grid)[1:]):
                on_curve = (1 - (1 - p) * E_MATCH / p_s) / p
                worst = max(worst, abs(g - on_curve))
        ok = worst < 1e-12
        elapsed = time.time() - t0
        report("criterion-05 gain curve coincidence", ok,
               f"max departure from the common curve {worst:.2e}", elapsed)
        assert ok and elapsed < 1.0

    def test_criterion_06_gaussian_fock_equivalence(self):
        t0 = time.time()
        rng = np.random.default_rng(SEED)
        n_max = 40
        worst_w = worst_cm = 0.0
        for _ in range(50):
            v = rng.uniform(1.0, 1.5)
            t_bs = rng.uniform(0.1, 0.9)
            phis = rng.uniform(0, 2 * np.pi, size=2)
            alphas = [rng.uniform(-1.4, 1.4) + 1j * rng.uniform(-1.4, 1.4)
                      for _ in range(2)]
            eta = rng.uniform(0.5, 1.0)
            pd = rng.uniform(0.0, 0.01)

            st = fock.tmsv_state(v, n_max)
            for m, phi in enumerate(phis):
                st = fock.phase_rotate(st, m, phi)
            st = fock.fock_beamsplitter(st, 0, 1, t_bs)
            for m, a in enumerate(alphas):
                st = fock.displace(st, m, a)

            rot = np.zeros((4, 4))
            for m, phi in enumerate(phis):
                c, s = np.cos(phi), np.sin(phi)
                rot[2 * m: 2 * m + 2, 2 * m: 2 * m + 2] = [[c, -s], [s, c]]
            S = gaussian.beamsplitter_symplectic(2, 0, 1, t_bs)
            cm = S @ rot @ gaussian.two_mode_squeezed_cm(v) @ rot.T @ S.T
            mean = np.array([2 * alphas[0].real, 2 * alphas[0].imag,
                             2 * alphas[1].real, 2 * alphas[1].imag])
            gstate = gaussian.GaussianMixtureState(
                (gaussian.GaussianComponent(1.0, mean, gaussian.CovMatrix(cm)),))

            w, cond = condition_on_noclick(gstate, 1, eta, pd)
            prob, cond_f = fock.povm_expectation(st, 1, fock.NoClick(eta, pd))
            worst_w = max(worst_w, abs(w - prob))
            worst_cm = max(
                worst_cm,
                float(np.max(np.abs(cond.components[0].cm.mat
                                    - fock.covariance_matrix(cond_f)[:2, :2]))),
                float(np.max(np.abs(cond.components[0].mean
                                    - fock.mean_vector(cond_f)[:2]))),
            )
        ok = worst_w < 1e-6 and worst_cm < 1e-6
        elapsed = time.time() - t0
        report("criterion-06 Gaussian/Fock equivalence", ok,
               f"50 scenarios at n_max={n_max}: max weight dev {worst_w:.2e}, "
               f"max moment dev {worst_cm:.2e}", elapsed)
        assert ok and elapsed < 600.0

    def test_criterion_07_no_filter_threshold(self):
        t0 = time.time()
        res = p_min_search(None, precision=1e-3)
        ok = abs(res.p_min - 0.87) <= 0.01
        elapsed = time.time() - t0
        report("criterion-07 no-filter p_min", ok,
               f"p_min = {res.p_min:.4f} (target 0.87 +/- 0.01)", elapsed)
        assert ok and elapsed < 300.0

    def test_criterion_08_ideal_filter_security(self):
        t0 = time.time()
        res = optimize_key_rate(0.01, Apd(1.0, 0.0))
        ok = res.k_lower > 0.0
        elapsed = time.time() - t0
        report("criterion-08 ideal filter secure at p=0.01", ok,
               f"K = {res.k_lower:.3e} at (V, T) = ({res.optimizer[0]:.3f}, "
               f"{res.optimizer[1]:.3f})", elapsed)
        assert ok and elapsed < 300.0

    def test_criterion_09_nonideal_thresholds(self):
        t0 = time.time()
        targets = ((0.005, 0.222, 0.01), (5e-4, 0.028, 0.005), (5e-5, 0.003, 0.002))
        results = {pd: p_min_search(Apd(0.63, pd), precision=1e-3).p_min
                   for pd, _, _ in targets}
        monotone = results[5e-5] < results[5e-4] < results[0.005]
        ok = all(
            abs(results[pd] - target) <= tol for pd, target, tol in targets
        ) and monotone
        elapsed = time.time() - t0
        report("criterion-09 nonideal p_min thresholds", ok,
               ", ".join(f"pd={pd:g}: {results[pd]:.4f}" for pd, _, _ in targets)
               + f"; monotone in pd: {monotone}", elapsed)
        assert ok and elapsed < 1800.0

    def test_criterion_10_weak_squeezing(self):
        t0 = time.time()
        ratios = {}
        for t_bs in (0.2, 0.5, 0.9):
            sc = QkdScenario(V=1.01, p=1.0, filter=Apd(1.0, 0.0), tap_reflectivity=1.0 - t_bs)
            numeric = scenario_key_rate(sc).k_lower
            approx = weak_squeezing_keyrate(1.0, 1.0 - t_bs, t_bs, 1.01)
            ratios[t_bs] = approx / numeric
        ok = all(abs(r - 1.0) < 0.05 for r in ratios.values())
        elapsed = time.time() - t0
        report("criterion-10 weak-squeezing asymptotics", ok,
               ", ".join(f"T={t}: ratio={r:.4f}" for t, r in ratios.items()), elapsed)
        assert ok and elapsed < 60.0

    def test_criterion_11_figure_data(self, tmp_path, capsys):
        t0 = time.time()
        files = {}
        for which in ("fig3", "fig4", "fig5a", "fig5b", "fig5c"):
            out = tmp_path / f"{which}.csv"
            code = cli_main(["figures", which, "--out", str(out),
                             "--trials", "20000", "--seed", str(SEED)])
            assert code == 0
            files[which] = out.read_text()
        complete = all(text.count("\n") > 12 for text in files.values())

        # chi-squared goodness of fit of the fig3 histograms at 1e5 samples
        tap, alpha_sq, p = 0.5, 3.3, 0.02
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        leak = calibrate_prep_error(det, tap, E_MATCH)
        mix = ErasureMixture(CoherentAmplitude(math.sqrt(alpha_sq)), p, tap)
        cfg = McConfig(seed=SEED, trials=10**5, detector=det, mixture=mix,
                       workers=4, prep_error=leak)
        res = run_trials(cfg)
        vac_cfg = McConfig(seed=SEED + 1, trials=10**5, detector=det,
                           mixture=ErasureMixture(mix.alpha, 0.0, tap), workers=4)
        vac_res = run_trials(vac_cfg)

        pvals = {
            "perturbed": verification_chi2(res, "all")[2],
            "vacuum": verification_chi2(vac_res, "all")[2],
            "filtered": verification_chi2(res, "accepted")[2],
        }
        chi_ok = all(pv > 0.01 for pv in pvals.values())
        ok = complete and chi_ok
        elapsed = time.time() - t0
        report("criterion-11 figure data + chi2", ok,
               "files complete; " + ", ".join(f"{k}: p={v:.3f}" for k, v in pvals.items()),
               elapsed)
        assert ok and elapsed < 120.0
