"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single `criterion N (...): PASS/FAIL` line and asserts the
same condition, so both `pytest -v` and the captured output read as a
checklist. Tolerances appear inline next to what they bound.
"""

import math
import time
from dataclasses import replace

import numpy as np

import kduda.autodiff as ad
import kduda.trainer
from kduda.cli import main
from kduda.data import gen_blob_shift
from kduda.harness import (
    DatasetConfig,
    ExperimentConfig,
    load_config,
    report_complexity,
    run_experiment,
    sweep_sizes,
)
from kduda.losses import (
    KernelConfig,
    cross_entropy,
    distill_kl,
    mmd_squared,
    soft_targets,
    softmax_np,
    source_kd_loss,
    target_kd_loss,
    teacher_da_loss,
)
from kduda.models import ModelSpec, build, count_complexity
from kduda.trainer import TrainConfig, train_joint

from fdcheck import finite_diff_grad, relative_error


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _flat_params(model):
    return np.concatenate([p.ravel() for p in model.parameters()])


def _set_params(model, flat):
    pos = 0
    for p in model.parameters():
        n = p.size
        p[...] = np.asarray(flat[pos:pos + n]).reshape(p.shape)
        pos += n


def _model_grad_error(model, value_fn, loss_fn, weight=1.0):
    """Relative error between backward(weight) and central differences of
    value_fn, over every parameter of `model`. loss_fn builds the loss on a
    fresh graph."""
    g = ad.Graph()
    loss_fn(g).backward(weight)
    analytic = np.concatenate([a.ravel() for a in model.bound_gradients()])
    base = _flat_params(model)

    def f(flat):
        _set_params(model, flat)
        return value_fn()

    numeric = finite_diff_grad(f, base)
    _set_params(model, base)
    return relative_error(numeric, analytic)


FIXED_KERNEL = KernelConfig(bandwidths=(0.7, 1.3))


def test_criterion_1_gradient_correctness():
    """Backward matches finite differences for every loss, small inputs."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 3))
    xt = rng.normal(size=(6, 3)) + 0.4
    ys = np.array([0, 1, 2, 0, 1])
    gamma, alpha, tau = 0.7, 0.8, 4.0
    errors = {}

    # discrepancy term, checked directly on its pooled sample matrix
    g = ad.Graph()
    z = g.tensor(np.concatenate((xs[:4], xt[:5]), -2))
    mmd_squared(z, 4, FIXED_KERNEL).backward()

    def mmd_val(flat):
        gg = ad.Graph()
        return mmd_squared(gg.tensor(flat.reshape(9, 3)), 4, FIXED_KERNEL).item()

    numeric = finite_diff_grad(mmd_val, np.concatenate([xs[:4].ravel(),
                                                        xt[:5].ravel()]))
    errors["mmd"] = relative_error(numeric, z.grad.ravel())

    # supervised term through the softmax, on raw logits
    logits0 = rng.normal(size=(5, 3))
    g = ad.Graph()
    lt = g.tensor(logits0)
    cross_entropy(lt, ys).backward()

    def ce_val(flat):
        gg = ad.Graph()
        return cross_entropy(gg.tensor(flat.reshape(5, 3)), ys).item()

    errors["ce"] = relative_error(finite_diff_grad(ce_val, logits0.ravel()),
                                  lt.grad.ravel())

    teacher = build(ModelSpec(3, (4,), 3, seed=11))
    student = build(ModelSpec(3, (4,), 3, seed=12))

    soft_s, soft_t = soft_targets(teacher, tau, xs, xt)
    errors["target_kd"] = _model_grad_error(
        student,
        lambda: target_kd_loss(student, soft_t, ad.Graph().tensor(xt), tau).item(),
        lambda g: target_kd_loss(student, soft_t, g.tensor(xt), tau))

    errors["source_kd"] = _model_grad_error(
        student,
        lambda: source_kd_loss(student, soft_s, ad.Graph().tensor(xs), ys,
                               tau, alpha).item(),
        lambda g: source_kd_loss(student, soft_s, g.tensor(xs), ys, tau, alpha))

    def da_on(graph):
        return teacher_da_loss(teacher, graph.tensor(np.concatenate((xs, xt), -2)),
                               ys, FIXED_KERNEL, gamma)[0]

    errors["teacher_da"] = _model_grad_error(
        teacher, lambda: da_on(ad.Graph()).item(), da_on)

    # what the joint phase's student descends: beta times target plus source
    # distillation on the teacher's fixed soft targets, beta seeding backward
    beta = 0.3

    def distilled(graph):
        return ad.add(target_kd_loss(student, soft_t, graph.tensor(xt), tau),
                      source_kd_loss(student, soft_s, graph.tensor(xs), ys, tau,
                                     alpha))

    errors["total"] = _model_grad_error(
        student, lambda: beta * distilled(ad.Graph()).item(), distilled, beta)

    elapsed = time.perf_counter() - started
    worst = max(errors.values())
    ok = worst < 1e-5 and elapsed < 10.0
    _report(1, "gradient correctness", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_mmd_oracle():
    """Known values of the kernel discrepancy estimator."""
    def val(fs, ft, kc):
        g = ad.Graph()
        return mmd_squared(g.tensor(np.concatenate((fs, ft), -2)), len(fs),
                           kc).item()

    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(8, 3)) + 0.3
    kc = KernelConfig()

    same = abs(val(x, x.copy(), kc))
    sym = abs(val(x, y, kc) - val(y, x, kc))

    one = KernelConfig(bandwidths=(1.0,))
    closed = abs(val(np.array([[0.0, 0.0]]),
                     np.array([[math.sqrt(2.0), 0.0]]), one)
                 - (2.0 - 2.0 * math.exp(-1.0)))

    fs = rng.normal(size=(5, 3))
    ft = rng.normal(size=(4, 3)) + 0.4
    pooled = np.vstack([fs, ft])
    dists = [float(np.linalg.norm(pooled[i] - pooled[j]))
             for i in range(len(pooled)) for j in range(i + 1, len(pooled))]
    sigmas = [float(np.median(dists)) * m for m in (0.25, 0.5, 1.0, 2.0, 4.0)]

    def kern(p, q):
        d2 = float(((p - q) ** 2).sum())
        return sum(math.exp(-d2 / (2.0 * s * s)) for s in sigmas) / len(sigmas)

    def block(aa, bb):
        return sum(kern(p, q) for p in aa for q in bb) / (len(aa) * len(bb))

    brute = block(fs, fs) + block(ft, ft) - 2.0 * block(fs, ft)
    loop = abs(val(fs, ft, kc) - brute)

    ok = same <= 1e-12 and sym <= 1e-12 and closed <= 1e-9 and loop <= 1e-10
    _report(2, "discrepancy oracle", ok,
            f"self {same:.1e}, sym {sym:.1e}, closed {closed:.1e}, loop {loop:.1e}")


def test_criterion_3_blend_schedule():
    """Exponential blend weight hits its endpoints and geometric midpoint."""
    cfg = TrainConfig(beta_start=0.1, beta_end=0.9, epochs=400)
    e0 = abs(cfg.beta_at(0) - 0.1)
    e1 = abs(cfg.beta_at(400) - 0.9)
    mid = abs(cfg.beta_at(200) - math.sqrt(0.1 * 0.9))

    other = TrainConfig(beta_start=0.04, beta_end=0.64, epochs=120)
    mid2 = abs(other.beta_at(60) - math.sqrt(0.04 * 0.64))

    ok = e0 <= 1e-12 and e1 <= 1e-12 and mid <= 1e-12 and mid2 <= 1e-12
    _report(3, "blend schedule exactness", ok,
            f"start {e0:.1e}, end {e1:.1e}, midpoints {mid:.1e}/{mid2:.1e}")


def test_criterion_4_distillation_fixed_point():
    """A student that copies its teacher has nothing left to learn."""
    teacher = build(ModelSpec(3, (5,), 3, seed=2))
    student = build(teacher.spec)
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(6, 3))
    xt = rng.normal(size=(7, 3))
    ys = rng.integers(0, 3, size=6)
    tau, alpha = 20.0, 0.0

    soft_s, soft_t = soft_targets(teacher, tau, xs, xt)
    g = ad.Graph()
    tkd = abs(target_kd_loss(student, soft_t, g.tensor(xt), tau).item())
    g2 = ad.Graph()
    skd = abs(source_kd_loss(student, soft_s, g2.tensor(xs), ys, tau, alpha).item())

    kl_min = math.inf
    for _ in range(1000):
        t = softmax_np(rng.uniform(-5.0, 5.0, size=(3, 4)), 1.0)
        s = softmax_np(rng.uniform(-5.0, 5.0, size=(3, 4)), 1.0)
        gg = ad.Graph()
        kl_min = min(kl_min, distill_kl(gg.tensor(s), t, tau=1.0).item())

    ok = tkd <= 1e-12 and skd <= 1e-12 and kl_min >= 0.0
    _report(4, "distillation fixed point", ok,
            f"target {tkd:.1e}, source {skd:.1e}, min KL {kl_min:.2e}")


def test_criterion_5_gradient_isolation(monkeypatch):
    """One full joint run: the adaptation step never moves the student, the
    distillation step never moves the teacher, and every logged total
    recomposes from its parts."""
    teacher = build(ModelSpec(2, (8,), 3, seed=100))
    student = build(ModelSpec(2, (4,), 3, seed=200))
    pair = gen_blob_shift(120, 3, 2, 1.5, 1.0, seed=0)
    cfg = TrainConfig(epochs=10, batch_size=30, tau=4.0, seed=0,
                      lr_da=0.05, lr_kd=0.05)

    def state(model):
        return b"".join(p.tobytes() for p in model.parameters())

    real_sgd = kduda.trainer.sgd_step
    counts = {"da": 0, "kd": 0}
    clean = {"value": True}

    def guarded_sgd(params, grads, opt):
        if params[0] is teacher.weights[0]:
            other, key = student, "da"
        else:
            other, key = teacher, "kd"
        before = state(other)
        real_sgd(params, grads, opt)
        if state(other) != before:
            clean["value"] = False
        counts[key] += 1

    captured = {"tda": [], "tkd": [], "skd": []}
    real_da = kduda.trainer.teacher_da_loss
    real_tkd = kduda.trainer.target_kd_loss
    real_skd = kduda.trainer.source_kd_loss

    def spy_da(*a, **k):
        out = real_da(*a, **k)
        captured["tda"].append(out[0].item())
        return out

    def spy_tkd(*a, **k):
        out = real_tkd(*a, **k)
        captured["tkd"].append(out.item())
        return out

    def spy_skd(*a, **k):
        out = real_skd(*a, **k)
        captured["skd"].append(out.item())
        return out

    monkeypatch.setattr(kduda.trainer, "sgd_step", guarded_sgd)
    monkeypatch.setattr(kduda.trainer, "teacher_da_loss", spy_da)
    monkeypatch.setattr(kduda.trainer, "target_kd_loss", spy_tkd)
    monkeypatch.setattr(kduda.trainer, "source_kd_loss", spy_skd)
    log = train_joint(teacher, student, pair, cfg)

    steps_per_epoch = 4  # 120 source samples / batches of 30
    worst = 0.0
    for t, rec in enumerate(log.records):
        recomposed = (1.0 - rec.beta) * rec.l_tda \
            + rec.beta * (rec.l_tkd + rec.l_skd)
        worst = max(worst, abs(rec.l_total - recomposed))
        lo = t * steps_per_epoch
        hi = lo + steps_per_epoch
        per_step = [(1.0 - rec.beta) * a + rec.beta * (b + c)
                    for a, b, c in zip(captured["tda"][lo:hi],
                                       captured["tkd"][lo:hi],
                                       captured["skd"][lo:hi])]
        worst = max(worst, abs(rec.l_total - float(np.mean(per_step))))

    ok = (clean["value"] and counts == {"da": 40, "kd": 40}
          and len(captured["tda"]) == 40 and worst <= 1e-10)
    _report(5, "gradient isolation", ok,
            f"{counts['da']}+{counts['kd']} steps bitwise clean, "
            f"worst recomposition gap {worst:.1e}")


def _headline_cfg():
    return ExperimentConfig(
        dataset=DatasetConfig(generator="blobs", n_per_domain=400, classes=3,
                              dim=2, mean_shift=3.0, scale=1.0),
        train=TrainConfig(epochs=100),
    )


def test_criterion_6_scenario_ordering(tmp_path):
    """Mean final student target accuracy over 5 seeds keeps the expected
    ordering across the four procedures on the shifted-blob task."""
    started = time.perf_counter()
    cfg = replace(_headline_cfg(),
                  scenarios=("joint", "uda_only", "uda_then_kd", "kd_then_uda"),
                  seeds=(0, 1, 2, 3, 4), output_dir=str(tmp_path))
    results = run_experiment(cfg)
    means = {}
    for scenario in cfg.scenarios:
        accs = [r.student_tgt_acc for r in results if r.scenario == scenario]
        assert len(accs) == 5
        means[scenario] = float(np.mean(accs))
    elapsed = time.perf_counter() - started

    ok = (means["joint"] >= means["uda_only"] - 0.01
          and means["joint"] > means["uda_then_kd"]
          and means["kd_then_uda"] > means["uda_then_kd"]
          and elapsed < 600.0)
    detail = ", ".join(f"{k} {v:.4f}" for k, v in means.items())
    _report(6, "scenario ordering", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_7_teacher_size_sweep(tmp_path):
    """Growing the teacher does not hurt the small student."""
    started = time.perf_counter()
    cfg = ExperimentConfig(
        dataset=DatasetConfig(generator="blobs", n_per_domain=400, classes=3,
                              dim=2, mean_shift=3.0, scale=1.0),
        train=TrainConfig(epochs=100),
        output_dir=str(tmp_path),
    )
    rows = sweep_sizes(cfg, [32, 128], [16])
    small = float(rows[0][2])
    large = float(rows[1][2])
    elapsed = time.perf_counter() - started

    ok = abs(large - small) <= 0.05 and elapsed < 900.0
    _report(7, "teacher size sweep", ok,
            f"small-teacher {small:.4f}, large-teacher {large:.4f}, "
            f"{elapsed:.0f}s")


def test_criterion_8_complexity_counts():
    """Hand-tallied parameter and MAC counts, and consistent ratio rows."""
    # (2*32+32) + (32*16+16) + (16*3+3) = 96 + 528 + 51 = 675
    # 2*32 + 32*16 + 16*3               = 64 + 512 + 48 = 624
    small = count_complexity(ModelSpec(2, (32, 16), 3))
    # (2*128+128) + (128*128+128) + (128*64+64) + (64*2+2) = 25282
    # 2*128 + 128*128 + 128*64 + 64*2                      = 24960
    big = count_complexity(ModelSpec(2, (128, 128, 64), 2))

    cfg = ExperimentConfig(student_hidden=((32, 16), (64, 32)))
    rows = report_complexity(cfg)
    t_macs = rows[0]["macs"]
    ratios_ok = all(r["mac_ratio"] == r["macs"] / t_macs for r in rows[1:])

    ok = small == (675, 624) and big == (25282, 24960) and ratios_ok
    _report(8, "complexity counts", ok,
            f"small {small}, default teacher {big}, ratios consistent: "
            f"{ratios_ok}")


def test_criterion_9_deterministic_summaries(tmp_path):
    """Two identical scenario comparisons write byte-identical summaries."""
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "data.n_per_domain = 60\n"
        "data.mean_shift = 1.5\n"
        "train.epochs = 3\n"
        "train.batch_size = 30\n"
        "train.tau = 4.0\n"
        "train.lr_da = 0.05\n"
        "train.lr_kd = 0.05\n"
        "model.teacher_hidden = 8\n"
        "model.student_hidden = 4\n"
        "experiment.scenarios = joint, uda_only\n"
        "experiment.seeds = 0, 1\n"
        f"experiment.output_dir = {tmp_path / 'runs'}\n")
    tag = load_config(str(config_path)).config_hash()
    summary = tmp_path / "runs" / f"{tag}_summary.csv"

    assert main(["scenarios", "--config", str(config_path)]) == 0
    first = summary.read_bytes()
    assert main(["scenarios", "--config", str(config_path)]) == 0
    second = summary.read_bytes()

    ok = first == second and len(first) > 0
    _report(9, "deterministic summaries", ok,
            f"{len(first)} byte summary reproduced")
