"""Acceptance gate: one test per criterion, one PASS line each.

Run with `pytest -v -s tests/test_acceptance.py`. The desk-scale
experiment criteria (7-9) share one five-trial benchmark run held in a
module fixture; everything else is self-contained.
"""

import math
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from advlab.attacks import AttackConfig, run_attack
from advlab.bench import generate_images, parse_config, run_experiment, sweep, time_attacks
from advlab.bench.config import SweepSpec
from advlab.gradnet import (
    TrainConfig,
    build,
    conv,
    dense,
    dropout,
    flatten,
    maxpool,
    reference_cnn_specs,
    relu,
    sigmoid,
    softmax,
    softmax_with_temperature,
    train,
)
from advlab.imagekit import compute_histogram, otsu_threshold, trace_borders
from advlab.metrics import roc_auc

CONFIG_DIR = "configs"


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- criterion 1: Otsu oracle equivalence -----------------------------------


def otsu_exhaustive_oracle(counts):
    """Direct evaluation of w0*w1*(m0-m1)^2 per threshold, exact arithmetic.

    The variance only changes when the class split changes (i.e. when bin
    t-1 is populated), and ties resolve to the smallest t, which is always
    the first threshold of its run, so evaluating those thresholds covers
    every distinct value without altering the argmax.
    """
    counts = [int(c) for c in counts]
    n = sum(counts)
    csum = 0
    ssum = 0
    s_total = sum(i * c for i, c in enumerate(counts))
    best_t, best_v = 0, Fraction(-1)
    for t in range(1, len(counts)):
        if counts[t - 1] == 0:
            continue
        csum += counts[t - 1]
        ssum += (t - 1) * counts[t - 1]
        c0, c1 = csum, n - csum
        if c0 == 0 or c1 == 0:
            continue
        w0, w1 = Fraction(c0, n), Fraction(c1, n)
        m0 = Fraction(ssum, c0)
        m1 = Fraction(s_total - ssum, c1)
        v = w0 * w1 * (m0 - m1) ** 2
        if v > best_v:
            best_v, best_t = v, t
    return best_t


def test_criterion_1_otsu_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        gray = rng.integers(0, 256, size=(8, 8))
        hist = compute_histogram(gray, 256)
        if otsu_threshold(hist) != otsu_exhaustive_oracle(hist.counts):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"1000 random 8x8 images, {mismatches} mismatches, {elapsed:.2f}s (< 5s)",
    )


# -- criterion 2: contour oracle equivalence ---------------------------------


def flood_components(mask):
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for si in range(h):
        for sj in range(w):
            if not mask[si, sj] or seen[si, sj]:
                continue
            comp = set()
            stack = [(si, sj)]
            seen[si, sj] = True
            while stack:
                r, c = stack.pop()
                comp.add((r, c))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        nr, nc = r + dr, c + dc
                        if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                            seen[nr, nc] = True
                            stack.append((nr, nc))
            comps.append(comp)
    return comps


def boundary_of(mask, comp):
    h, w = mask.shape
    out = set()
    for r, c in comp:
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < h and 0 <= nc < w) or not mask[nr, nc]:
                out.add((r, c))
                break
    return out


def test_criterion_2_contour_oracle():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    failures = 0
    for k in range(500):
        mask = rng.random((12, 12)) < rng.uniform(0.2, 0.8)
        contours = trace_borders(mask)
        outers = [c for c in contours if c.kind == "outer"]
        comps = flood_components(mask)
        if len(outers) != len(comps):
            failures += 1
            continue
        for outer in outers:
            comp = next(c for c in comps if outer.points[0] in c)
            traced = outer.point_set()
            for hole in contours:
                if hole.kind == "hole" and hole.parent == outer.label:
                    traced |= hole.point_set()
            if traced != boundary_of(mask, comp):
                failures += 1
                break
    elapsed = time.perf_counter() - t0
    report(
        2,
        failures == 0 and elapsed < 10.0,
        f"500 random 12x12 masks, {failures} mismatches, {elapsed:.2f}s (< 10s)",
    )


# -- criterion 3: gradient checks --------------------------------------------


def _fd_pair(evaluate, step):
    """Central differences at h and 2h; the pair disagrees near kinks.

    For a locally smooth loss the two estimates differ by O(h^2); a max
    pool or ReLU switching inside the stencil makes them diverge, and a
    finite difference is not a gradient reference there at all.
    """
    up1, down1 = evaluate(step), evaluate(-step)
    up2, down2 = evaluate(2 * step), evaluate(-2 * step)
    fd1 = (up1 - down1) / (2 * step)
    fd2 = (up2 - down2) / (4 * step)
    smooth = abs(fd1 - fd2) <= 1e-3 * max(abs(fd1), abs(fd2), 1e-8)
    return fd1, smooth


def _fd_check(net, x, y, rng, n_input=64, n_param=64):
    step, tol = 1e-4, 1e-3
    worst = 0.0
    g = net.input_gradient(x[None], [y])[0]
    flat, gflat = x.reshape(-1), g.reshape(-1)
    checked = 0
    for idx in rng.permutation(flat.size):
        if checked >= min(n_input, flat.size):
            break

        def eval_at(h, idx=idx):
            xv = flat.copy()
            xv[idx] += h
            return net.loss(xv.reshape(x.shape)[None], [y])

        fd, smooth = _fd_pair(eval_at, step)
        if not smooth:
            continue  # stencil straddles a pool/relu kink
        checked += 1
        if abs(fd) < 1e-10 and abs(gflat[idx]) < 1e-10:
            continue
        worst = max(worst, abs(gflat[idx] - fd) / max(abs(fd), abs(gflat[idx]), 1e-8))
    assert checked >= min(n_input, flat.size), "too few smooth input coords"

    _, _, grads = net.param_gradients(x[None], [y])
    entries = [(li, name) for li, layer in enumerate(net.params) for name in layer]
    checked = 0
    attempts = 0
    while checked < n_param and attempts < 8 * n_param:
        attempts += 1
        li, name = entries[int(rng.integers(len(entries)))]
        arr = net.params[li][name]
        idx = int(rng.integers(arr.size))
        orig = arr.reshape(-1)[idx]

        def eval_at(h, arr=arr, idx=idx, orig=orig):
            arr.reshape(-1)[idx] = orig + h
            value = net.loss(x[None], [y])
            arr.reshape(-1)[idx] = orig
            return value

        fd, smooth = _fd_pair(eval_at, step)
        if not smooth:
            continue
        analytic = grads[li][name].reshape(-1)[idx]
        if not (abs(fd) < 1e-10 and abs(analytic) < 1e-10):
            worst = max(worst, abs(analytic - fd) / max(abs(fd), abs(analytic), 1e-8))
        checked += 1
    assert checked >= n_param, "too few smooth parameter coords"
    return worst, tol


def test_criterion_3_gradient_checks():
    t0 = time.perf_counter()
    stacks = {
        "conv": ([conv(4), relu(), flatten(), dense(1), sigmoid()], (6, 6, 1)),
        "relu": ([flatten(), dense(8), relu(), dense(1), sigmoid()], (3, 3, 1)),
        "maxpool": ([maxpool(), flatten(), dense(1), sigmoid()], (6, 6, 2)),
        "dropout": ([flatten(), dropout(0.4), dense(1), sigmoid()], (4, 4, 1)),
        "flatten_dense": ([flatten(), dense(5), dense(1), sigmoid()], (3, 3, 1)),
        "softmax": ([flatten(), dense(3), softmax(temperature=4.0)], (3, 3, 1)),
    }
    worst_overall = 0.0
    for name, (specs, shape) in stacks.items():
        seed = zlib.crc32(name.encode()) % 2**31
        net = build(specs, shape, seed=seed)
        rng = np.random.default_rng(seed % 997)
        x = (rng.permutation(int(np.prod(shape))) + 0.5).reshape(shape) / np.prod(shape)
        y = 1 if net.head.kind == "sigmoid" else 0
        worst, tol = _fd_check(net, x, y, rng)
        worst_overall = max(worst_overall, worst)

    specs, shape = reference_cnn_specs(input_hw=126, scale=0.06)
    net = build(specs, shape, seed=42)
    rng = np.random.default_rng(43)
    x = rng.random(shape)
    worst, tol = _fd_check(net, x, 1, rng)
    worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst_overall < 1e-3 and elapsed < 60.0,
        f"all layer kinds + reduced-width full stack, worst rel err "
        f"{worst_overall:.2e} (< 1e-3), {elapsed:.1f}s (< 60s)",
    )


# -- criterion 4: parameter count ---------------------------------------------


def test_criterion_4_parameter_count():
    specs, shape = reference_cnn_specs(input_hw=126, scale=1.0)
    net = build(specs, shape, seed=0)
    count = net.parameter_count
    del net
    report(4, count == 60_307_326, f"built wide stack on 126x126x1: {count:,} parameters")


# -- criterion 5: epsilon-ball fuzz -------------------------------------------


def _toy_nets():
    logistic = build([flatten(), dense(1), sigmoid()], (2, 2, 1), seed=5)
    convnet = build([conv(3), relu(), flatten(), dense(1), sigmoid()], (4, 4, 1), seed=6)
    return [logistic, convnet]


def test_criterion_5_ball_fuzz():
    rng = np.random.default_rng(1005)
    nets = _toy_nets()
    violations = 0
    runs = 0
    t0 = time.perf_counter()
    while runs < 1000:
        net = nets[runs % 2]
        h, w, c = net.input_shape
        x = rng.random((h, w, c))
        eps = float(rng.uniform(0.0, 0.4))
        T = int(rng.integers(1, 6))
        cfg = AttackConfig(
            epsilon=eps,
            iterations=T,
            decay_weight=float(rng.uniform(0, 0.3)),
            initial_decay=float(rng.uniform(0, 1.2)),
            seed=int(rng.integers(10_000)),
        )
        roi = np.ones((h, w), dtype=bool)
        y = int(rng.integers(2))
        batch = [
            run_attack("fgsm", net, x, y, cfg),
            run_attack("ifgsm", net, x, y, cfg),
            run_attack("pgd", net, x, y, cfg),
            run_attack("mifgsm", net, x, y, cfg),
            run_attack("deepfool", net, x, y, cfg),
            run_attack("kryptonite", net, x, y, cfg, roi=roi),
        ]
        for res in batch:
            runs += 1
            bad_ball = res.linf > eps + 1e-6
            bad_range = res.adversarial.min() < 0.0 or res.adversarial.max() > 1.0
            if bad_ball or bad_range:
                violations += 1
    elapsed = time.perf_counter() - t0
    report(
        5,
        violations == 0,
        f"{runs} fuzzed attack runs across six attacks, {violations} ball/range "
        f"violations, {elapsed:.1f}s",
    )


# -- criterion 6: degeneracy identities ---------------------------------------


def test_criterion_6_degeneracy_identities():
    rng = np.random.default_rng(1006)
    nets = _toy_nets()
    n_cases = 100
    failures = {"kry=ifgsm": 0, "mifgsm=ifgsm": 0, "T1=fgsm": 0}
    for k in range(n_cases):
        net = nets[k % 2]
        h, w, c = net.input_shape
        x = rng.random((h, w, c))
        y = int(rng.integers(2))
        eps = float(rng.uniform(0.01, 0.3))
        T = int(rng.integers(2, 6))
        roi = np.ones((h, w), dtype=bool)

        cfg = AttackConfig(epsilon=eps, iterations=T, decay_weight=0.0, initial_decay=0.0)
        a = run_attack("kryptonite", net, x, y, cfg, roi=roi).adversarial
        b = run_attack("ifgsm", net, x, y, cfg).adversarial
        failures["kry=ifgsm"] += int(not np.array_equal(a, b))

        c2 = run_attack("mifgsm", net, x, y, cfg).adversarial
        failures["mifgsm=ifgsm"] += int(not np.array_equal(c2, b))

        alpha = float(rng.uniform(0.005, eps))
        one = AttackConfig(epsilon=eps, iterations=1, alpha=alpha, decay_weight=0.3, initial_decay=0.7)
        f = run_attack("fgsm", net, x, y, AttackConfig(epsilon=alpha)).adversarial
        for kind in ("ifgsm", "mifgsm"):
            failures["T1=fgsm"] += int(not np.array_equal(run_attack(kind, net, x, y, one).adversarial, f))
        failures["T1=fgsm"] += int(
            not np.array_equal(run_attack("kryptonite", net, x, y, one, roi=roi).adversarial, f)
        )
    total = sum(failures.values())
    report(
        6,
        total == 0,
        f"{n_cases} cases per identity, bit-identical failures: {failures}",
    )


# -- criteria 7-9: desk-scale benchmark ---------------------------------------


@pytest.fixture(scope="module")
def ordering_rows():
    cfg = parse_config(f"{CONFIG_DIR}/ordering.ini")
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def _mean_row(rows, attack):
    return next(r for r in rows if r.trial == -1 and r.attack == attack and r.row == "attack")


def test_criterion_7_attack_ordering(ordering_rows):
    rows, elapsed = ordering_rows
    clean = next(r for r in rows if r.trial == -1 and r.row == "clean")
    f = _mean_row(rows, "fgsm")
    p = _mean_row(rows, "pgd")
    m = _mean_row(rows, "mifgsm")
    k = _mean_row(rows, "kryptonite")
    ordered = (
        f.accuracy_under_attack > p.accuracy_under_attack > k.accuracy_under_attack
        and f.accuracy_under_attack > m.accuracy_under_attack > k.accuracy_under_attack
    )
    gap = m.accuracy_under_attack - k.accuracy_under_attack
    report(
        7,
        clean.clean_accuracy >= 0.90 and ordered and gap >= 0.02 and elapsed < 900,
        f"clean {clean.clean_accuracy:.3f} (>= 0.90); acc fgsm {f.accuracy_under_attack:.3f} "
        f"> pgd {p.accuracy_under_attack:.3f} / mifgsm {m.accuracy_under_attack:.3f} "
        f"> kryptonite {k.accuracy_under_attack:.3f}; gap vs mifgsm {gap * 100:.1f}pt "
        f"(>= 2pt); run {elapsed:.0f}s (< 900s)",
    )


def test_criterion_8_perturbation_economy(ordering_rows):
    rows, _ = ordering_rows
    m = _mean_row(rows, "mifgsm")
    k = _mean_row(rows, "kryptonite")
    economical = (
        k.pert_mean_percent < m.pert_mean_percent
        and k.accuracy_under_attack <= m.accuracy_under_attack
    )
    report(
        8,
        economical,
        f"kryptonite L2 {k.pert_mean_percent:.2f}% < mifgsm {m.pert_mean_percent:.2f}% at "
        f"accuracy {k.accuracy_under_attack:.3f} <= {m.accuracy_under_attack:.3f}",
    )


def test_criterion_9_timing_ordering():
    cfg = parse_config(f"{CONFIG_DIR}/timing.ini")
    times = time_attacks(cfg, samples=40)
    f, m, k = times["fgsm"], times["mifgsm"], times["kryptonite"]
    p, d = times["pgd"], times["deepfool"]
    # The hyperplane-stepping attack stops at the first label flip, so its
    # only promise is a full margin linearization beyond the single sign
    # step; where it sits against pgd and kryptonite depends on how many
    # linearizations the model needs, and is recorded, not gated.
    ordered = f < m < p and f < k < p and f < d
    close = abs(k - m) / m <= 0.15
    report(
        9,
        ordered and close,
        "per-sample seconds: fgsm {:.4f} < mifgsm {:.4f} ~ kryptonite {:.4f} "
        "< pgd {:.4f}; fgsm < deepfool {:.4f}; |kry-mi|/mi = {:.1%} (<= 15%); "
        "deepfool/pgd {:.2f} (paper: > 1), kryptonite/deepfool {:.2f} (paper: < 1) "
        "(recorded)".format(f, m, k, p, d, abs(k - m) / m, d / p, k / d),
    )


# -- criterion 10: sweep shapes ------------------------------------------------


def test_criterion_10_sweep_shapes(tmp_path):
    cfg = parse_config(f"{CONFIG_DIR}/sweeps.ini")

    eps_records = sweep(cfg)  # config default axis: epsilon
    by_attack = {}
    for rec in eps_records:
        by_attack.setdefault(rec["attack"], []).append((rec["value"], rec["roc_auc"]))
    monotone_ok = True
    for attack, pts in by_attack.items():
        pts.sort()
        aucs = [a for _, a in pts]
        for prev, nxt in zip(aucs, aucs[1:]):
            if nxt > prev + 0.02:
                monotone_ok = False

    over_records = sweep(cfg, SweepSpec(axis="overshoot", values=(0.0, 0.02, 0.04, 0.06, 0.08, 0.12), attacks=("deepfool",), samples=100))
    vals = np.array([r["value"] for r in over_records])
    aucs = np.array([r["roc_auc"] for r in over_records])
    corr = float(np.corrcoef(vals, aucs)[0, 1])

    w_records = sweep(cfg, SweepSpec(axis="decay_weight", values=(0.001, 0.003, 0.01, 0.03, 0.1, 0.3), attacks=("kryptonite",), samples=100))
    w_aucs = [r["roc_auc"] for r in w_records]
    min_idx = int(np.argmin(w_aucs))
    from advlab.bench import sweep_to_csv

    sweep_to_csv(eps_records + over_records + w_records, tmp_path / "sweeps.csv")
    report(
        10,
        monotone_ok and corr < 0.0,
        f"epsilon AUC non-increasing (tol 0.02) for {sorted(by_attack)}; overshoot "
        f"corr {corr:.3f} (< 0); decay-weight min AUC {w_aucs[min_idx]:.3f} at "
        f"w={w_records[min_idx]['value']} (recorded, csv written)",
    )


# -- criterion 11: defence directions ------------------------------------------


def test_criterion_11_defence_directions():
    from advlab.defences import DefenceConfig, adversarial_train, distill, pixel_deflect

    rng = np.random.default_rng(1011)
    xs = rng.random((80, 4, 4, 1))
    d = rng.uniform(0.25, 0.6, size=80) * rng.choice([-1.0, 1.0], size=80)
    base = rng.uniform(0.2, 0.8 - np.abs(d))
    xs[:, 0, 0, 0] = base + np.maximum(d, 0)
    xs[:, 0, 1, 0] = base + np.maximum(-d, 0)
    ys = (d > 0).astype(int)

    specs = [flatten(), dense(8), relu(), dense(1), sigmoid()]
    tcfg = TrainConfig(epochs=40, batch_size=16, learning_rate=0.5, seed=3)
    net = build(specs, (4, 4, 1), seed=3)
    train(net, (xs, ys), tcfg)
    acfg = AttackConfig(epsilon=0.2)

    def fgsm_acc(model):
        return float(
            np.mean(
                [
                    int(model.predict(run_attack("fgsm", model, x, int(y), acfg).adversarial[None])[0]) == int(y)
                    for x, y in zip(xs, ys)
                ]
            )
        )

    undefended = fgsm_acc(net)
    hardened, _ = adversarial_train(
        net,
        (xs, ys),
        DefenceConfig(kind="adv_train", adversarial_fraction=0.65, attack_name="fgsm", attack=acfg, train=tcfg),
    )
    margin = fgsm_acc(hardened) - undefended

    img = rng.random((8, 8, 1))
    identity = pixel_deflect(
        img, np.zeros((8, 8)), DefenceConfig(kind="pixel_deflect", deflections=0, denoise=False)
    )
    identity_ok = np.array_equal(identity, img)

    _, teacher = distill(
        specs,
        (4, 4, 1),
        (xs, ys),
        DefenceConfig(kind="distill", temperature=20.0, train=TrainConfig(epochs=15, batch_size=16, learning_rate=0.5, seed=7)),
    )
    logits = np.asarray(teacher.logits(xs))

    def entropy(p):
        q = np.clip(p, 1e-12, 1.0)
        return -(q * np.log(q)).sum(axis=1)

    gaps = entropy(softmax_with_temperature(logits, 20.0)) - entropy(
        softmax_with_temperature(logits, 1.0)
    )
    entropy_ok = bool((gaps >= -1e-12).all())

    report(
        11,
        margin > 0 and identity_ok and entropy_ok,
        f"adv-training margin {margin * 100:+.1f}pt (> 0); deflect identity {identity_ok}; "
        f"soft-label entropy rises with temperature on all samples {entropy_ok}",
    )
