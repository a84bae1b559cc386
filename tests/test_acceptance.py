"""Acceptance checklist: one test per shipped claim, one printed verdict line
per criterion.

Every criterion recomputes its predicted value from closed form at run time
and checks the simulated/measured value at the stated tolerance. Criterion 2
is marked xfail(strict): the literal 3-standard-error window around the
asymptotic floor is unattainable at the stated horizon (see its docstring);
the check is kept as stated rather than loosened.
"""

import csv
import math
import time

import numpy as np
import pytest

from robustsgd.aggregators import AggregatorSpec, OracleContext, aggregate
from robustsgd.attacks import AdversaryView, AttackSpec, alie, label_flip, sign_flip
from robustsgd.cli import EXIT_OK, main
from robustsgd.core import DenseVector, RngStream, RunConfig
from robustsgd.problems import (
    NoiseModel,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    certify_dissimilarity,
    with_noise,
)
from robustsgd.trainer import (
    ScheduleSpec,
    pl_schedule_for_momentum,
    pl_schedule_for_plain,
    run,
    run_noise_floor_replicates,
    track_lyapunov,
)
from robustsgd.verify import _dissimilarity_gap_grid


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")


def _oracle_cfg(inst, variant, kappa, sched, T, x0=1.0, seed=0):
    agg = AggregatorSpec(rule="oracle_adversarial", n=inst.pop.n, b=inst.pop.b,
                         kappa=kappa, variant=variant)
    return RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                     schedule=sched, T=T,
                     x0=DenseVector(np.full(inst.dim, x0)), seed=seed)


def test_criterion_1_heterogeneity_floor(capsys):
    """Deterministic run against the heterogeneity-drift oracle converges to
    the closed-form fixed point x_F* = sqrt(kappa)*eps/(mu - sqrt(kappa)*delta)
    within 1e-9, with the gradient-norm floor mu^2 x_F*^2; the momentum variant
    reaches the same limit. The published 6-digit values 0.183199 / 0.0335618
    are display roundings of that closed form and are checked at 1e-6."""
    t0 = time.perf_counter()
    kappa = 0.1
    inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=kappa)
    x_F = float(inst.analytic.x_F_star.values[0])
    floor_closed = (1.0 * x_F) ** 2

    T = 2000
    rec = run(_oracle_cfg(inst, "hetero_c1", kappa,
                          ScheduleSpec(stepsize="constant", gamma0=0.1), T))
    err_plain = abs(float(rec.xs[T - 1, 0]) - x_F)
    err_floor = abs(rec.floor_estimate() - floor_closed)

    mom = ScheduleSpec(stepsize="constant", gamma0=0.019, momentum="tied")
    rec_m = run(_oracle_cfg(inst, "hetero_c1", kappa, mom, T))
    err_mom = abs(float(rec_m.xs[T - 1, 0]) - x_F)

    elapsed = time.perf_counter() - t0
    ok = (
        err_plain <= 1e-9
        and err_mom <= 1e-9
        and err_floor <= 1e-9
        and abs(x_F - 0.183199) < 1e-6
        and abs(floor_closed - 0.0335618) < 1e-6
        and elapsed < 1.0
    )
    _verdict(capsys, 1, "heterogeneity floor", ok,
             f"|x - x_F*| = {err_plain:.2e} (momentum {err_mom:.2e}) <= 1e-9, "
             f"|floor - mu^2 x_F*^2| = {err_floor:.2e} <= 1e-9, "
             f"x_F* = {x_F:.8f}, {elapsed:.2f}s < 1s")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: under the prescribed piecewise step "
    "schedule the exact moment recursion gives E[(x^{T-1})^2] ≈ 0.02994 at "
    "T = 5000 — the finite-horizon transient leaves the second moment more "
    "than 6 standard errors above the asymptotic floor 0.029476 at 10^4 "
    "replicates, so a 3-SE window around the floor cannot contain it",
)
def test_criterion_2_noise_floor(capsys):
    """Monte-Carlo second moment of the next-to-last iterate under the
    noise-drift oracle vs the asymptotic floor (x_F*)^2 = 0.029476, at the
    literal 3-standard-error tolerance."""
    t0 = time.perf_counter()
    kappa = 0.1
    inst = build_noise_lower_bound(mu=1.0, B=0.5, sigma=1.0, kappa=kappa)
    target = float(inst.analytic.x_F_star.values[0]) ** 2
    sched = pl_schedule_for_plain(inst, kappa=kappa)
    out = run_noise_floor_replicates(inst, kappa, sched, T=5000,
                                     replicates=10_000, seed=2024)
    elapsed = time.perf_counter() - t0
    err = abs(out["mean_sq"] - target)
    tol = 3.0 * out["se_sq"]
    ok = err <= tol and elapsed < 60.0
    _verdict(capsys, 2, "noise floor", ok,
             f"E[(x^(T-1))^2] = {out['mean_sq']:.6f} vs floor {target:.6f}: "
             f"|diff| = {err:.2e} vs 3*SE = {tol:.2e} "
             f"({err / out['se_sq']:.1f} SE), {elapsed:.1f}s < 60s")
    assert elapsed < 60.0
    assert err <= tol, (
        f"second moment {out['mean_sq']:.6f} is {err / out['se_sq']:.1f} "
        f"standard errors from the floor {target:.6f}"
    )


def test_criterion_3_initial_potential_bound(capsys):
    """With zero initial momentum, V^1 <= (9/4) * (f_H(x^0) - f*) on 100
    random quadratic populations, 1e-12 relative."""
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(100):
        rng = RngStream(1000 + i, 0, "accept-init")
        inst = build_random_quadratic_family(n=5, d=3, rng=rng,
                                             shared_curvature=True)
        L = inst.analytic.L
        x0 = DenseVector(rng.spawn("x0").generator.normal(0.0, 2.0, size=3))
        gap0 = inst.f_H(x0) - inst.f_H(inst.analytic.x_star)
        if gap0 < 1e-12:
            continue
        cfg = RunConfig(
            problem=inst,
            aggregator=AggregatorSpec(rule="oracle_adversarial", n=5, b=0,
                                      kappa=0.05, variant="variance_sign"),
            attack=AttackSpec(),
            schedule=ScheduleSpec(stepsize="constant", gamma0=0.5 / (36.0 * L),
                                  momentum="tied"),
            T=1, x0=x0,
        )
        _, trace = track_lyapunov(cfg)
        worst = max(worst, float(trace.V[0]) / (2.25 * gap0))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 99 and worst <= 1.0 + 1e-12 and elapsed < 1.0
    _verdict(capsys, 3, "initial potential bound", ok,
             f"max V^1 / ((9/4) gap_0) = {worst:.15f} <= 1 + 1e-12 over "
             f"{checked} instances, {elapsed:.2f}s < 1s")
    assert ok


def test_criterion_4_per_step_descent(capsys):
    """Deterministic runs in the admissible regime (kappa*B^2 < 1/56, tied
    momentum, gamma_t*L <= 1/36, nonincreasing steps with ratio >= 2/3): the
    tracked potential never exceeds the predicted per-step bound over 500
    iterations on 20 instances."""
    t0 = time.perf_counter()
    total_flags = 0
    kappa = 0.05
    for i in range(20):
        rng = RngStream(2000 + i, 0, "accept-descent")
        inst = build_random_quadratic_family(n=5, d=3, rng=rng,
                                             shared_curvature=True)
        L = inst.analytic.L
        if i < 10:
            sched = ScheduleSpec(stepsize="constant", gamma0=0.9 / (36.0 * L),
                                 momentum="tied")
        else:
            sched = pl_schedule_for_momentum(inst, kappa=kappa)
        cfg = RunConfig(
            problem=inst,
            aggregator=AggregatorSpec(rule="oracle_adversarial", n=5, b=0,
                                      kappa=kappa, variant="variance_sign"),
            attack=AttackSpec(), schedule=sched, T=500,
            x0=DenseVector(np.full(3, 2.0)),
        )
        _, trace = track_lyapunov(cfg)
        total_flags += len(trace.flagged)
    elapsed = time.perf_counter() - t0
    ok = total_flags == 0
    _verdict(capsys, 4, "per-step descent", ok,
             f"{total_flags} violations over 20 instances x 500 iterations "
             f"(10 constant-step + 10 derived decreasing schedules), "
             f"{elapsed:.1f}s")
    assert ok


SWEEP_MONOTONE = """\
problem.kind = synthetic
problem.n = 20
problem.k = 7
problem.a = 1.0
problem.G = 1.0
aggregator.rule = oracle_adversarial
aggregator.variant = variance_sign
aggregator.kappa = 0.05
schedule.gamma0 = 0.1
run.T = 900
run.seed = 5
sweep.metric = floor_estimate
sweep.kappa = 0.05,0.1,0.2
sweep.B_sq = 0.0,0.5,1.0,2.0
sweep.gamma0 = 0.1,0.2
"""

SWEEP_NOISY = """\
problem.kind = synthetic
problem.n = 20
problem.k = 7
problem.a = 1.0
problem.G = 1.0
problem.B = 0.5
problem.noise = gaussian
problem.sigma = 2.0
aggregator.rule = oracle_adversarial
aggregator.variant = variance_sign
aggregator.kappa = 0.1
schedule.gamma0 = 0.001
run.T = 4000
run.seed = 5
sweep.metric = floor_estimate
sweep.gamma0 = 0.001,0.002,0.0035
sweep.momentum = {momentum}
"""


def _best_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_5_sweep_floor_ordering(capsys, tmp_path):
    """Grid sweep over B^2 at kappa in {0.05, 0.1, 0.2} on the paired
    synthetic family: best floors nondecreasing in B^2 within each kappa and
    pointwise nondecreasing in kappa; with noise, the tied-momentum best
    floor is no worse than the momentum-free one."""
    t0 = time.perf_counter()
    sweepfile = tmp_path / "mono.cfg"
    sweepfile.write_text(SWEEP_MONOTONE)
    out = tmp_path / "mono"
    assert main(["sweep", str(sweepfile), "--out", str(out)]) == EXIT_OK
    best = {
        (float(r["kappa"]), float(r["B_sq"])): float(r["metric"])
        for r in _best_rows(out / "best.csv")
    }
    kappas, b_sqs = (0.05, 0.1, 0.2), (0.0, 0.5, 1.0, 2.0)
    assert len(best) == len(kappas) * len(b_sqs)
    mono_B = all(
        best[(k, b_sqs[j])] <= best[(k, b_sqs[j + 1])]
        for k in kappas for j in range(len(b_sqs) - 1)
    )
    mono_kappa = all(
        best[(kappas[i], b)] <= best[(kappas[i + 1], b)]
        for b in b_sqs for i in range(len(kappas) - 1)
    )

    floors = {}
    for momentum in ("zero", "tied"):
        f = tmp_path / f"noisy_{momentum}.cfg"
        f.write_text(SWEEP_NOISY.format(momentum=momentum))
        outdir = tmp_path / momentum
        assert main(["sweep", str(f), "--out", str(outdir)]) == EXIT_OK
        rows = _best_rows(outdir / "best.csv")
        assert len(rows) == 1
        floors[momentum] = float(rows[0]["metric"])
    momentum_helps = floors["tied"] <= floors["zero"]

    elapsed = time.perf_counter() - t0
    ok = mono_B and mono_kappa and momentum_helps and elapsed < 300.0
    _verdict(capsys, 5, "sweep floor ordering", ok,
             f"nondecreasing in B^2: {mono_B}, in kappa: {mono_kappa}; "
             f"noisy best floor tied {floors['tied']:.4f} <= "
             f"momentum-free {floors['zero']:.4f}; {elapsed:.0f}s < 300s")
    assert ok


def test_criterion_6_aggregator_properties(capsys):
    """Zero-dispersion identity, translation equivariance (1e-9), Krum and
    Multi-Krum vs brute-force scores on 50 random instances (n<=6, d<=3),
    smoothed Weiszfeld vs the 1-D median (1e-6), and the adversarial oracle's
    deviation ratio exactly kappa (1e-10)."""
    t0 = time.perf_counter()
    gen = RngStream(4242, 0, "accept-agg").generator
    specs6 = [
        AggregatorSpec(rule="average", n=6),
        AggregatorSpec(rule="krum", n=6, b=2),
        AggregatorSpec(rule="multi_krum", n=6, b=1, q=3),
        AggregatorSpec(rule="cwm", n=6, b=2),
        AggregatorSpec(rule="cwtm", n=6, q=2),
        AggregatorSpec(rule="gm", n=6),
    ]

    worst_fix = 0.0
    for _ in range(10):
        v = DenseVector(gen.normal(0, 3, size=3))
        for spec in specs6:
            out = aggregate(spec, [v] * 6).values
            worst_fix = max(worst_fix, float(np.max(np.abs(out - v.values))))

    worst_shift = 0.0
    for _ in range(10):
        ups = [DenseVector(gen.normal(0, 2, size=3)) for _ in range(6)]
        shift = gen.normal(0, 3, size=3)
        shifted = [DenseVector(u.values + shift) for u in ups]
        for spec in specs6:
            a = aggregate(spec, ups).values
            b = aggregate(spec, shifted).values
            worst_shift = max(worst_shift, float(np.max(np.abs(b - (a + shift)))))

    worst_krum = 0.0
    for _ in range(50):
        n = int(gen.integers(3, 7))
        b = int(gen.integers(0, (n - 1) // 2 + 1))
        if n - b - 1 < 1:
            b = 0
        d = int(gen.integers(1, 4))
        pts = gen.normal(0, 2, size=(n, d))
        ups = [DenseVector(p) for p in pts]
        scores = [
            sum(sorted(float(np.sum((pts[i] - pts[j]) ** 2))
                       for j in range(n) if j != i)[: n - b - 1])
            for i in range(n)
        ]
        out = aggregate(AggregatorSpec(rule="krum", n=n, b=b), ups).values
        worst_krum = max(worst_krum,
                         float(np.max(np.abs(out - pts[int(np.argmin(scores))]))))
        q = int(gen.integers(1, n + 1))
        mout = aggregate(AggregatorSpec(rule="multi_krum", n=n, b=b, q=q), ups).values
        ref = pts[np.argsort(scores, kind="stable")[:q]].mean(axis=0)
        worst_krum = max(worst_krum, float(np.max(np.abs(mout - ref))))

    worst_gm = 0.0
    for _ in range(50):
        n = int(gen.integers(3, 10)) | 1
        pts = gen.normal(0, 3, size=n)
        out = aggregate(AggregatorSpec(rule="gm", n=n),
                        [DenseVector([p]) for p in pts]).values[0]
        worst_gm = max(worst_gm, abs(out - float(np.median(pts))))

    worst_ratio = 0.0
    kappa = 0.3
    ref_inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5)
    ospec = AggregatorSpec(rule="oracle_adversarial", n=6, b=0, kappa=kappa,
                           variant="variance_sign")
    for _ in range(50):
        pts = gen.normal(0, 2, size=(6, 2))
        ctx = OracleContext(x=DenseVector(gen.normal(0, 1, size=2)),
                            x_star=DenseVector(np.zeros(2)), instance=ref_inst)
        out = aggregate(ospec, [DenseVector(p) for p in pts],
                        honest_ids=list(range(6)), context=ctx).values
        mean = pts.mean(axis=0)
        disp = float(((pts - mean) ** 2).sum(axis=1).mean())
        if disp > 1e-18:
            dev = float(np.sum((out - mean) ** 2))
            worst_ratio = max(worst_ratio, abs(dev / disp - kappa))

    elapsed = time.perf_counter() - t0
    ok = (worst_fix <= 1e-12 and worst_shift <= 1e-9 and worst_krum <= 1e-12
          and worst_gm <= 1e-6 and worst_ratio <= 1e-10)
    _verdict(capsys, 6, "aggregator properties", ok,
             f"fixed point {worst_fix:.1e} <= 1e-12, translation "
             f"{worst_shift:.1e} <= 1e-9, krum brute force {worst_krum:.1e} "
             f"<= 1e-12, gm vs median {worst_gm:.1e} <= 1e-6, oracle ratio "
             f"{worst_ratio:.1e} <= 1e-10; {elapsed:.1f}s")
    assert ok


def test_criterion_7_certifier_grid_equivalence(capsys):
    """Exact dissimilarity certificate vs an independent 10^4-point grid on
    200 random quadratic families: certified passes show no grid violation,
    and every failure's witness violates the bound for real."""
    t0 = time.perf_counter()
    rng = RngStream(2719, 0, "accept-cert")
    gen = rng.generator
    disagreements = 0
    for k in range(200):
        n = int(gen.integers(2, 7))
        d = int(gen.integers(1, 4))
        inst = build_random_quadratic_family(
            n=n, d=d, rng=rng.spawn(f"fam{k}"),
            shared_curvature=bool(gen.integers(0, 2)),
        )
        G = float(gen.uniform(0.0, 2.0))
        B = float(gen.uniform(0.0, 1.5))
        res = certify_dissimilarity(inst, G, B)
        X = gen.uniform(-50, 50, size=(10_000, d))
        gaps = _dissimilarity_gap_grid(inst, G, B, X)
        if res.passed:
            if float(gaps.max()) > 1e-9 * max(1.0, G * G):
                disagreements += 1
        else:
            w = res.witness.values[None, :]
            if float(_dissimilarity_gap_grid(inst, G, B, w)[0]) <= 0.0:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0
    _verdict(capsys, 7, "certifier grid equivalence", ok,
             f"{disagreements} disagreements over 200 families x 10^4 grid "
             f"points, {elapsed:.1f}s")
    assert ok


def test_criterion_8_rate_band(capsys):
    """Fault-free stochastic runs with gamma = gamma_0/sqrt(T): time-averaged
    squared gradient norm decreases across T = 10^2, 10^3, 10^4 with
    successive ratios inside [0.25, 0.6], and a fitted c/sqrt(T) envelope
    holds within 35%."""
    t0 = time.perf_counter()
    seeds = (101, 202, 303)
    Ts = (100, 1000, 10_000)
    avgs = []
    for T in Ts:
        vals = []
        for seed in seeds:
            rng = RngStream(seed, 0, "accept-rate")
            inst = with_noise(
                build_random_quadratic_family(n=8, d=3, rng=rng),
                NoiseModel("gaussian", sigma=0.5),
            )
            cfg = RunConfig(
                problem=inst,
                aggregator=AggregatorSpec(rule="average", n=8, b=0),
                attack=AttackSpec(),
                schedule=ScheduleSpec(stepsize="invsqrt", gamma0=0.8),
                T=T, x0=DenseVector(np.ones(3)), seed=seed,
            )
            vals.append(float(run(cfg).grad_norm_sq.mean()))
        avgs.append(float(np.mean(vals)))
    ratios = [avgs[i + 1] / avgs[i] for i in range(len(avgs) - 1)]
    invsqrt = np.array([1.0 / math.sqrt(T) for T in Ts])
    c = float(np.dot(invsqrt, avgs) / np.dot(invsqrt, invsqrt))
    resid = max(abs(a - c * s) / (c * s) for a, s in zip(avgs, invsqrt))
    elapsed = time.perf_counter() - t0
    ok = (avgs[0] > avgs[1] > avgs[2]
          and all(0.25 <= r <= 0.6 for r in ratios)
          and resid <= 0.35)
    _verdict(capsys, 8, "rate band", ok,
             f"time-averaged grad^2 = {avgs[0]:.4f} / {avgs[1]:.4f} / "
             f"{avgs[2]:.5f}, ratios {ratios[0]:.3f}, {ratios[1]:.3f} in "
             f"[0.25, 0.6], c/sqrt(T) fit residual {resid:.2f} <= 0.35; "
             f"{elapsed:.0f}s")
    assert ok


def test_criterion_9_attack_properties(capsys):
    """Sign flip and label flip are involutions on randomized inputs; the
    omniscient greedy attack against the plain mean selects |alpha| = 2."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(31)

    sign_ok = all(
        np.array_equal(sign_flip(sign_flip(DenseVector(v))).values, v)
        for v in (gen.normal(0, 5, size=(50, 4)))
    )

    label_ok = True
    for n_classes in (2, 5, 10):
        for y in range(n_classes):
            feats = gen.normal(size=3)
            flipped = label_flip((feats, y), n_classes)
            back = label_flip(flipped, n_classes)
            label_ok &= back[1] == y and np.array_equal(back[0], feats)
            label_ok &= flipped[1] == (n_classes - 1) - y

    alie_ok = True
    spec = AggregatorSpec(rule="average", n=7, b=0)
    for _ in range(20):
        pts = gen.normal(0, 2, size=(5, 3))
        mu = pts.mean(axis=0)
        sigma_dev = math.sqrt(((pts - mu) ** 2).sum())
        if sigma_dev < 1e-12:
            continue
        view = AdversaryView(
            honest_updates=[DenseVector(p) for p in pts],
            honest_ids=list(range(5)), aggregator=spec,
        )
        alpha = (alie(view).values - mu)[0] / sigma_dev
        alie_ok &= abs(abs(alpha) - 2.0) <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = sign_ok and label_ok and alie_ok
    _verdict(capsys, 9, "attack properties", ok,
             f"sign-flip involution: {sign_ok}, label-flip involution: "
             f"{label_ok}, greedy attack picks |alpha| = 2 vs the mean: "
             f"{alie_ok}; {elapsed:.2f}s")
    assert ok
