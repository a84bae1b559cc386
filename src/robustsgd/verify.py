"""Self-verification harness.

Every check recomputes its predicted value from closed forms at runtime,
measures the corresponding quantity with a fresh run (or exact evaluation),
and reports one row per claim: name, derivation of the prediction,
predicted, measured, tolerance, pass/fail, runtime. A check is a generator
that, for each of its rows, yields (name, derivation) and then, after the
row's work, (predicted, measured, tolerance[, passed]); values a later row
reads are plain locals. Two suites: "fast" (seconds) and "full" (the
long-horizon versions of the same checks).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .aggregators import AggregatorSpec, OracleContext, aggregate, estimate_kappa
from .attacks import AttackSpec
from .core import ConfigurationError, DenseVector, RngStream, RunConfig
from .problems import (
    NoiseModel,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    build_synthetic_family,
    certify_dissimilarity,
    with_noise,
)
from .trainer import (
    ScheduleSpec,
    pl_schedule_for_plain,
    run,
    run_noise_floor_replicates,
    schedules,
    track_lyapunov,
)

SUITES = ("fast", "full")


@dataclass
class ReportRow:
    name: str
    derivation: str
    predicted: float
    measured: float
    tolerance: float
    passed: bool
    runtime_s: float


@dataclass
class VerificationReport:
    suite: str
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def render(self) -> str:
        header = f"{'check':34} {'predicted':>13} {'measured':>13} {'tolerance':>11} {'result':>6} {'time':>7}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.name:34} {r.predicted:>13.6g} {r.measured:>13.6g} "
                f"{r.tolerance:>11.3g} {'PASS' if r.passed else 'FAIL':>6} "
                f"{r.runtime_s:>6.2f}s"
            )
        lines.append("-" * len(header))
        lines.append(
            f"suite={self.suite}: {sum(r.passed for r in self.rows)}/{len(self.rows)} "
            f"checks passed"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "rows": [asdict(r) for r in self.rows]}


def _timed(rows, name, derivation, fn):
    """Run fn() -> (predicted, measured, tolerance[, passed]) and append a
    row. A check without its own verdict passes iff
    |measured - predicted| <= tolerance."""
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    predicted, measured, tolerance = out[:3]
    passed = out[3] if len(out) == 4 else abs(measured - predicted) <= tolerance
    rows.append(ReportRow(name, derivation, float(predicted), float(measured),
                          float(tolerance), bool(passed), dt))


# ---------------------------------------------------------------------------
# exact moment recursion for the two-worker Bernoulli family


def noise_floor_exact_moments(
    mu: float, B: float, sigma: float, kappa: float,
    schedule: ScheduleSpec, T: int, x0: float = 0.0,
) -> dict:
    """Exact E[x], E[x^2], E[x^3], E[x^4] of x^{T-1} under the noise-drift
    adversarial rule. Each step is affine, x' = (1-gamma*a)x - gamma*b, with
    the four equally likely coin outcomes

        (0,0): a = mu(1-sqrt(k)B), b = +sigma
        (1,1): a = mu(1-sqrt(k)B), b = -sigma
        (1,0): a = mu(1+sqrt(k)B), b = -sqrt(k)*sigma
        (0,1): a = mu(1-sqrt(k)B), b = -sqrt(k)*sigma

    so raw moments propagate in closed form with no sampling error."""
    sk = math.sqrt(kappa)
    cases = (
        (mu * (1.0 - sk * B), sigma),
        (mu * (1.0 - sk * B), -sigma),
        (mu * (1.0 + sk * B), -sk * sigma),
        (mu * (1.0 - sk * B), -sk * sigma),
    )
    # m[k] = E[x^k], k = 0..4
    m = np.array([1.0, x0, x0**2, x0**3, x0**4])
    binom = [[math.comb(k, j) for j in range(k + 1)] for k in range(5)]
    for t in range(1, T):  # T-1 steps produce x^{T-1}
        gamma = schedules(t, schedule, T)[0]
        new = np.zeros(5)
        for a, b in cases:
            A = 1.0 - gamma * a
            Bb = -gamma * b
            for k in range(5):
                acc = 0.0
                for j in range(k + 1):
                    acc += binom[k][j] * (A**j) * (Bb ** (k - j)) * m[j]
                new[k] += 0.25 * acc
        m = new
    return {
        "mean": float(m[1]),
        "second": float(m[2]),
        "third": float(m[3]),
        "fourth": float(m[4]),
        "var_of_sq": float(m[4] - m[2] ** 2),
    }


# ---------------------------------------------------------------------------
# individual checks


def _hetero_config(momentum: bool) -> tuple:
    inst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=0.1)
    agg = AggregatorSpec(rule="oracle_adversarial", n=2, b=0, kappa=0.1,
                         variant="hetero_c1")
    if momentum:
        sched = ScheduleSpec(stepsize="constant", gamma0=0.019,
                             momentum="tied", c_beta=36.0)
    else:
        sched = ScheduleSpec(stepsize="constant", gamma0=0.1)
    cfg = RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                    schedule=sched, T=2000, x0=DenseVector([1.0]))
    x_F = float(inst.analytic.x_F_star.values[0])
    return cfg, inst, x_F


def check_hetero(suite):
    cfg, inst, x_F = _hetero_config(momentum=False)
    yield ("hetero_limit",
           "x_F* = sqrt(kappa)*eps/(mu - sqrt(kappa)*delta), "
           "delta = sqrt(3)*B*mu/2, eps = G/2")
    rec = run(cfg)
    yield x_F, float(rec.xs[-2][0]), 1e-9

    yield "hetero_floor", "asymptotic grad-norm^2 = mu^2 * (x_F*)^2"
    mu = inst.analytic.mu
    yield mu * mu * x_F * x_F, rec.floor_estimate(), 1e-9

    yield ("hetero_momentum_limit",
           "tied-momentum run drifts to the same fixed point x_F*")
    cfg_m, _, _ = _hetero_config(momentum=True)
    rec_m = run(cfg_m)
    yield x_F, float(rec_m.xs[-2][0]), 1e-9


def check_noise(suite):
    mu, B, sigma, kappa = 1.0, 0.5, 1.0, 0.1
    inst = build_noise_lower_bound(mu=mu, B=B, sigma=sigma, kappa=kappa)
    sched = pl_schedule_for_plain(inst, kappa=kappa)
    T = 5000 if suite == "full" else 2000
    R = 10_000 if suite == "full" else 4000
    x_F_sq = float(inst.analytic.x_F_star.values[0]) ** 2

    yield ("noise_mc_vs_recursion",
           "exact four-case moment recursion for E[(x^{T-1})^2]; "
           "tolerance 3 standard errors of the replicate mean")
    moments = noise_floor_exact_moments(mu, B, sigma, kappa, sched, T)
    mc = run_noise_floor_replicates(inst, kappa, sched, T=T, replicates=R, seed=2024)
    se = math.sqrt(max(moments["var_of_sq"], 0.0) / R)
    yield moments["second"], mc["mean_sq"], 3 * se

    yield ("noise_floor",
           "(x_F*)^2 with x_F* = (sqrt(kappa)*sigma/2)/(mu*(1-sqrt(kappa)*B/2)); "
           "composite tolerance 3*SE + |exact finite-horizon E[x^2] - (x_F*)^2| "
           "(the recursion quantifies the last-iterate variance surplus)")
    gap = abs(moments["second"] - x_F_sq)
    yield x_F_sq, mc["mean_sq"], 3 * se + gap

    yield ("noise_mean_drift",
           "E[x^{T-1}] -> x_F* (the drifted fixed point attracts the mean)")
    se_x = mc["se_x"] if mc["se_x"] > 0 else 1e-12
    yield math.sqrt(x_F_sq), mc["mean_x"], 3 * se_x


def _lyapunov_v1(inst, x0, gap0, gamma) -> float:
    """V^1 = 2*gap0 + ||delta^1||^2/(8L) of tied momentum (c_beta = 36)
    started at x0 with m^0 = 0: m_i^1 = (1-beta1) grad f_i(x0), so the mean
    delta is -beta1 * grad f_H(x0) and the dispersion term vanishes."""
    L = inst.analytic.L
    beta1 = 1.0 - 36.0 * gamma * L
    gH = inst.grad_f_H(x0).values
    return 2.0 * gap0 + beta1**2 * float(np.dot(gH, gH)) / (8.0 * L)


def check_init_bound(suite):
    yield ("init_bound",
           "V^1 = 2*gap0 + ||delta^1||^2/(8L) <= (9/4)*gap0 since "
           "||grad f_H||^2 <= 2L*gap0 and m^0 = 0")
    rng = RngStream(90210, 0, "verify-init")
    gen = rng.generator
    worst = -math.inf
    for k in range(200 if suite == "full" else 100):
        inst = build_random_quadratic_family(
            n=int(gen.integers(2, 9)), d=int(gen.integers(1, 5)), rng=rng.spawn(f"i{k}")
        )
        L = inst.analytic.L
        x0 = DenseVector(gen.uniform(-3, 3, size=inst.dim))
        gap0 = inst.f_H(x0) - inst.f_H(inst.analytic.x_star)
        if gap0 < 1e-12:
            continue
        gamma = float(gen.uniform(0.1, 1.0)) / (36.0 * L)
        worst = max(worst, _lyapunov_v1(inst, x0, gap0, gamma) / gap0)
    tol = 2.25e-12
    yield 2.25, worst, tol, worst <= 2.25 + tol

    yield "init_bound_tracker", "tracker's V^1 equals the direct two-term evaluation"
    rng = RngStream(777, 0, "verify-init-trk")
    gen = rng.generator
    worst = 0.0
    for k in range(3):
        inst = build_random_quadratic_family(
            n=4, d=2, rng=rng.spawn(f"t{k}"), shared_curvature=True
        )
        L = inst.analytic.L
        gamma = 0.8 / (36.0 * L)
        sched = ScheduleSpec(stepsize="constant", gamma0=gamma,
                             momentum="tied", c_beta=36.0)
        agg = AggregatorSpec(rule="oracle_adversarial", n=inst.pop.n, b=0,
                             kappa=0.1, variant="variance_sign")
        x0 = DenseVector(gen.uniform(-2, 2, size=inst.dim))
        cfg = RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                        schedule=sched, T=3, x0=x0)
        _, trace = track_lyapunov(cfg)
        gap0 = inst.f_H(x0) - inst.f_H(inst.analytic.x_star)
        worst = max(worst, abs(trace.V[0] - _lyapunov_v1(inst, x0, gap0, gamma)))
    yield 0.0, worst, 1e-12


def check_descent(suite):
    yield ("descent_no_flags",
           "per-step bound V^{t+1} <= gamma_t(-3/8+21*kappa*B^2)*||grad||^2 "
           "+ 2*gap + (1-gamma_t*L)(c1*||delta||^2 + c2*disp) + 21*gamma_t*kappa*G^2 "
           "never flags when kappa*B^2 < 1/56, sigma = 0, tied beta; and V^t >= 0")
    rng = RngStream(4242, 0, "verify-descent")
    gen = rng.generator
    flagged = 0
    negative = 0
    for k in range(40 if suite == "full" else 20):
        inst = build_random_quadratic_family(
            n=int(gen.integers(3, 7)), d=int(gen.integers(1, 4)),
            rng=rng.spawn(f"d{k}"), shared_curvature=True,
        )
        L = inst.analytic.L
        gamma = 0.9 / (36.0 * L)
        sched = ScheduleSpec(stepsize="constant", gamma0=gamma,
                             momentum="tied", c_beta=36.0)
        agg = AggregatorSpec(rule="oracle_adversarial", n=inst.pop.n, b=0,
                             kappa=0.05, variant="variance_sign")
        x0 = DenseVector(gen.uniform(-2, 2, size=inst.dim))
        cfg = RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                        schedule=sched, T=500, x0=x0)
        _, trace = track_lyapunov(cfg)
        flagged += len(trace.flagged)
        negative += int(np.any(trace.V < 0))
    yield 0.0, float(flagged + negative), 0.0


def check_floor_formula(suite):
    kappas = (0.05, 0.1, 0.2)
    b_sqs = (0.0, 0.25, 1.0)

    yield ("floor_formula_synthetic",
           "deterministic grad-norm^2 floor = kappa*G^2/(1 - kappa*B^2) "
           "(max relative error over the kappa x B^2 grid)")
    floors = {}
    worst = 0.0
    for kappa in kappas:
        for b_sq in b_sqs:
            inst = build_synthetic_family(n=20, k=7, a=1.0, G=1.0, B=math.sqrt(b_sq))
            agg = AggregatorSpec(rule="oracle_adversarial", n=20, b=0,
                                 kappa=kappa, variant="variance_sign")
            cfg = RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                            schedule=ScheduleSpec(stepsize="constant", gamma0=0.2),
                            T=900, x0=DenseVector([1.0]))
            floor = floors[kappa, b_sq] = run(cfg).floor_estimate()
            pred = kappa * 1.0 / (1.0 - kappa * b_sq)
            worst = max(worst, abs(floor - pred) / pred)
    yield 0.0, worst, 1e-6

    yield ("floor_monotone",
           "measured floors nondecreasing in B^2 at fixed kappa and in kappa "
           "at fixed B^2 (minimum consecutive increment)")
    margin = math.inf
    for kappa in kappas:
        for lo, hi in zip(b_sqs, b_sqs[1:]):
            margin = min(margin, floors[kappa, hi] - floors[kappa, lo])
    for b_sq in b_sqs:
        for lo, hi in zip(kappas, kappas[1:]):
            margin = min(margin, floors[hi, b_sq] - floors[lo, b_sq])
    tol = 1e-12
    yield 0.0, margin, tol, margin >= -tol


def check_momentum_suppression(suite):
    T = 2500 if suite == "full" else 1500
    kappa = 0.5
    base = build_hetero_lower_bound(mu=1.0, G=0.0, B=0.0, kappa=kappa)
    inst = with_noise(base, NoiseModel("gaussian", sigma=0.5))
    agg = AggregatorSpec(rule="oracle_adversarial", n=2, b=0, kappa=kappa,
                         variant="variance_sign")

    def best(momentum):
        return min(
            run(RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                          schedule=ScheduleSpec(stepsize="constant", gamma0=g,
                                                momentum=momentum, c_beta=36.0),
                          T=T, x0=DenseVector([1.0]), seed=11)).floor_estimate()
            for g in (0.01, 0.02, 0.027)
        )

    yield ("momentum_noise_suppression",
           "on a G=0, B=0, sigma>0 instance the tied-momentum floor is "
           "strictly below the momentum-free floor at matched tuned steps "
           "(reported: floor difference, negative = suppression)")
    plain = best("zero")
    mom = best("tied")
    yield 0.0, mom - plain, 0.0, mom < plain


def check_robustness_props(suite):
    rng = np.random.default_rng(31337)
    specs = [
        AggregatorSpec(rule="average", n=6, b=0),
        AggregatorSpec(rule="krum", n=6, b=2),
        AggregatorSpec(rule="multi_krum", n=6, b=2, q=3),
        AggregatorSpec(rule="cwm", n=6, b=2),
        AggregatorSpec(rule="cwtm", n=6, b=2, q=2),
        AggregatorSpec(rule="gm", n=6, b=2),
    ]

    yield "robust_zero_dispersion", "identical inputs are a fixed point of every rule"
    worst = 0.0
    for _ in range(10):
        v = rng.normal(0, 5, size=3)
        ups = [DenseVector(v) for _ in range(6)]
        for spec in specs:
            out = aggregate(spec, ups).values
            worst = max(worst, float(np.max(np.abs(out - v))))
    yield 0.0, worst, 1e-12

    yield "robust_translation", "A(x_1+c, ..., x_n+c) = A(x_1, ..., x_n) + c"
    worst = 0.0
    for _ in range(10):
        ups = [DenseVector(rng.normal(0, 2, size=3)) for _ in range(6)]
        shift = rng.normal(0, 3, size=3)
        shifted = [DenseVector(u.values + shift) for u in ups]
        for spec in specs:
            out = aggregate(spec, ups).values
            moved = aggregate(spec, shifted).values
            worst = max(worst, float(np.max(np.abs(moved - (out + shift)))))
    yield 0.0, worst, 1e-9

    yield ("krum_bruteforce",
           "rule output equals the brute-force score argmin / stable top-q mean")
    worst = 0.0
    for _ in range(50 if suite == "full" else 25):
        n = int(rng.integers(3, 7))
        b = int(rng.integers(0, (n - 1) // 2 + 1))
        if n - b - 1 < 1:
            b = 0
        d = int(rng.integers(1, 4))
        pts = rng.normal(0, 2, size=(n, d))
        ups = [DenseVector(p) for p in pts]
        scores = []
        for i in range(n):
            dists = sorted(
                float(np.sum((pts[i] - pts[j]) ** 2)) for j in range(n) if j != i
            )
            scores.append(sum(dists[: n - b - 1]))
        chosen = int(np.argmin(scores))
        out = aggregate(AggregatorSpec(rule="krum", n=n, b=b), ups).values
        worst = max(worst, float(np.max(np.abs(out - pts[chosen]))))
        q = int(rng.integers(1, n + 1))
        mspec = AggregatorSpec(rule="multi_krum", n=n, b=b, q=q)
        picked = np.argsort(scores, kind="stable")[:q]
        ref = pts[picked].mean(axis=0)
        mout = aggregate(mspec, ups).values
        worst = max(worst, float(np.max(np.abs(mout - ref))))
    yield 0.0, worst, 1e-12

    yield ("gm_vs_median",
           "smoothed Weiszfeld in 1-D matches the coordinate median "
           "(odd counts; the median is the exact geometric median)")
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 10)) | 1
        pts = rng.normal(0, 3, size=n)
        spec = AggregatorSpec(rule="gm", n=n, b=0)
        out = aggregate(spec, [DenseVector([p]) for p in pts]).values[0]
        worst = max(worst, abs(out - float(np.median(pts))))
    yield 0.0, worst, 1e-6

    def ratio_error(spec, pts, ctx):
        """|ratio - kappa| of one aggregation, 0 at zero dispersion."""
        ups = [DenseVector(p) for p in pts]
        out = aggregate(spec, ups, honest_ids=list(range(len(pts))), context=ctx).values
        mean = pts.mean(axis=0)
        disp = float(((pts - mean) ** 2).sum(axis=1).mean())
        dev = float(np.sum((out - mean) ** 2))
        return abs(dev / disp - spec.kappa) if disp > 1e-18 else 0.0

    yield ("oracle_ratio",
           "adversarial oracle rules realize ||A - mean||^2 = kappa * dispersion "
           "exactly (max |ratio - kappa|)")
    worst = 0.0
    # variance_sign on arbitrary clouds
    inst = build_synthetic_family(n=6, k=2, a=1.0, G=1.0, B=0.5)
    spec = AggregatorSpec(rule="oracle_adversarial", n=6, b=0, kappa=0.3,
                          variant="variance_sign")
    for _ in range(20):
        pts = rng.normal(0, 2, size=(6, 2))
        x = DenseVector(rng.normal(0, 1, size=2))
        ctx = OracleContext(x=x, x_star=DenseVector(np.zeros(2)), instance=inst)
        worst = max(worst, ratio_error(spec, pts, ctx))
    # hetero_c1 on its construction
    hinst = build_hetero_lower_bound(mu=1.0, G=1.0, B=0.5, kappa=0.2)
    hspec = AggregatorSpec(rule="oracle_adversarial", n=2, b=0, kappa=0.2,
                           variant="hetero_c1")
    for _ in range(20):
        x = DenseVector(rng.normal(0, 2, size=1))
        ctx = OracleContext(x=x, x_star=hinst.analytic.x_star, instance=hinst)
        worst = max(worst, ratio_error(hspec, hinst.grads(x.values), ctx))
    yield 0.0, worst, 1e-10

    yield ("kappa_hat_oracle",
           "empirical worst-case ratio estimate recovers the oracle's kappa")
    spec = AggregatorSpec(rule="oracle_adversarial", n=6, b=0, kappa=0.3,
                          variant="variance_sign")
    est = estimate_kappa(spec, samples=200, dim=2, rng=RngStream(5, 0, "verify-kh"))
    yield 0.3, est.kappa_hat, 1e-10


def _dissimilarity_gap_grid(inst, G, B, X) -> np.ndarray:
    """Vectorized LHS - RHS of the dissimilarity bound on points X (P, d),
    computed from per-worker gradient tensors (independent of the
    certifier's closed-form coefficients)."""
    ids = inst.pop.honest_sorted()
    A = np.stack([inst.locals[i].a for i in ids])  # (h, d)
    C = np.stack([inst.locals[i].c for i in ids])
    grads = A[:, None, :] * X[None, :, :] + C[:, None, :]  # (h, P, d)
    gH = grads.mean(axis=0)  # (P, d)
    lhs = ((grads - gH) ** 2).sum(axis=2).mean(axis=0)  # (P,)
    rhs = G * G + B * B * (gH**2).sum(axis=1)
    return lhs - rhs


def check_certifier(suite):
    points = 10_000 if suite == "full" else 2000
    yield ("certifier_grid_agreement",
           "exact separable-quadratic certificate vs independent dense grid: "
           "no false passes (grid finds no violation when certified) and no "
           "false fails (returned witness violates the bound)")
    rng = RngStream(2718, 0, "verify-cert")
    gen = rng.generator
    disagreements = 0
    for k in range(200 if suite == "full" else 50):
        n = int(gen.integers(2, 7))
        d = int(gen.integers(1, 4))
        shared = bool(gen.integers(0, 2))
        inst = build_random_quadratic_family(
            n=n, d=d, rng=rng.spawn(f"c{k}"), shared_curvature=shared
        )
        G = float(gen.uniform(0.0, 2.0))
        B = float(gen.uniform(0.0, 1.5))
        res = certify_dissimilarity(inst, G, B)
        X = gen.uniform(-50, 50, size=(points, d))
        gaps = _dissimilarity_gap_grid(inst, G, B, X)
        grid_tol = 1e-9 * max(1.0, G * G)
        if res.passed:
            if float(gaps.max()) > grid_tol:
                disagreements += 1
        else:
            # the certifier's witness must violate the bound for real
            w = res.witness.values[None, :]
            wgap = float(_dissimilarity_gap_grid(inst, G, B, w)[0])
            if wgap <= 0.0:
                disagreements += 1
    yield 0.0, float(disagreements), 0.0


def check_rate(suite):
    Ts = (100, 1000, 10_000) if suite == "full" else (100, 1000)

    yield ("rate_ratio_band",
           "time-averaged grad-norm^2 scales ~ 1/sqrt(T); successive-horizon "
           "ratio band [0.25, 0.6] encoded as midpoint 0.425 +/- 0.175 "
           "(ideal 10^{-1/2} = 0.316)")
    inst0 = build_random_quadratic_family(n=8, d=3, rng=RngStream(55, 0, "verify-rate"))
    inst = with_noise(inst0, NoiseModel("gaussian", sigma=0.5))
    agg = AggregatorSpec(rule="average", n=8, b=0)
    avgs = []
    for T in Ts:
        sched = ScheduleSpec(stepsize="invsqrt", gamma0=0.8)
        vals = []
        for s in (101, 202, 303):
            cfg = RunConfig(problem=inst, aggregator=agg, attack=AttackSpec(),
                            schedule=sched, T=T,
                            x0=DenseVector(np.full(3, 2.0)), seed=s)
            vals.append(float(run(cfg).grad_norm_sq.mean()))
        avgs.append(float(np.mean(vals)))
    rs = [avgs[i + 1] / avgs[i] for i in range(len(avgs) - 1)]
    worst = max(rs, key=lambda r: abs(r - 0.425))
    ok = all(0.25 <= r <= 0.6 for r in rs) and all(
        a > b for a, b in zip(avgs, avgs[1:])
    )
    yield 0.425, worst, 0.175, ok

    yield ("rate_fit_residual",
           "least-squares fit avg = c/sqrt(T) (zero Byzantine floor): "
           "max relative residual")
    inv = np.array([1.0 / math.sqrt(T) for T in Ts])
    c = float(np.dot(avgs, inv) / np.dot(inv, inv))  # LS through origin
    resid = max(abs(a - c * v) / a for a, v in zip(avgs, inv))
    yield 0.0, resid, 0.35


CHECKS = (check_hetero, check_noise, check_init_bound, check_descent,
          check_floor_formula, check_momentum_suppression, check_robustness_props,
          check_certifier, check_rate)


def run_verification(suite: str = "fast") -> VerificationReport:
    """Execute the whole check battery and return the report.

    Each check in CHECKS yields a row's (name, derivation) and then, after
    its work, the row's numbers. That second step runs inside _timed, so a
    row's runtime (and a tracer wrapped around _timed) covers its work."""
    if suite not in SUITES:
        raise ConfigurationError(f"suite must be one of {SUITES}, got {suite!r}")
    rows: list = []
    for check in CHECKS:
        steps = check(suite)
        for name, derivation in steps:
            _timed(rows, name, derivation, lambda: next(steps))
    return VerificationReport(suite=suite, rows=rows)
