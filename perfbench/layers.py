"""Per-layer instrumentation of advlab and the per-layer metrics.

`instrument` wraps public names of the six modules (bench, imagekit,
gradnet, attacks, defences, metrics) where their callers look them up.
`pass_metrics` turns the spans of one traced pass into the per-layer
metrics listed in `PER_LAYER`; which end-to-end metric each one should
move is written in perfbench/README.md.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

import advlab.attacks as attacks
import advlab.bench.dataset as dataset
import advlab.bench.runner as runner
import advlab.defences as defences
import advlab.gradnet.network as network

from tracer import Span, Tracer, self_times

# advlab.gradnet re-exports the function `train`, which hides the module.
gtrain = importlib.import_module("advlab.gradnet.train")

MODULES = ("bench", "imagekit", "gradnet", "attacks", "defences", "metrics")
ATTACK_KINDS = ("fgsm", "pgd", "mifgsm", "deepfool", "kryptonite", "kryptonite_masked")
DEFENCE_KINDS = ("adv_train", "distill", "pixel_deflect")
CHANCE_ACCURACY = 0.6  # a defended binary classifier at or below this is at chance

# Network methods and the span each records. predict and score call
# forward, so only the outermost method call of a chain is recorded.
NET_METHODS = {
    "forward": "gradnet.forward",
    "predict": "gradnet.forward",
    "score": "gradnet.forward",
    "loss": "gradnet.forward",
    "logits": "gradnet.forward",
    "input_gradient": "gradnet.input_gradient",
    "param_gradients": "gradnet.param_gradients",
    "logit_backprop": "gradnet.logit_backprop",
}
NET_SPANS = ("gradnet.forward", "gradnet.input_gradient", "gradnet.param_gradients", "gradnet.logit_backprop")
KERNELS = ("conv_forward", "conv_backward", "maxpool_forward", "maxpool_backward")
DEFENCE_SPANS = {
    "adversarial_train": "defences.adversarial_train",
    "distill": "defences.distill",
    "pixel_deflect": "defences.pixel_deflect",
    "gradient_saliency": "defences.gradient_saliency",
}


def _per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for base in NET_SPANS:
        specs += [(f"{base}.calls", "count", "lower"), (f"{base}.rows", "count", "lower"), (f"{base}.s", "s", "lower")]
    specs += [
        ("gradnet.evaluate.s", "s", "lower"),
        ("gradnet.train.epochs_run", "count", "lower"),
        ("gradnet.train.final_accuracy", "ratio", "higher"),
    ]
    for k in KERNELS:
        for size in ("n1", "nbatch"):
            specs.append((f"gradnet.{k}.{size}.s", "s", "lower"))
    for k in ("conv_forward", "conv_backward"):
        for size in ("n1", "nbatch"):
            specs.append((f"gradnet.{k}.{size}.gflop_per_s", "GFLOP/s", "higher"))
    for a in ATTACK_KINDS:
        specs += [
            (f"attacks.{a}.s", "s", "lower"),
            (f"attacks.{a}.self_s", "s", "lower"),
            (f"attacks.{a}.grad_calls_per_sample", "count", "lower"),
            (f"attacks.{a}.success_ratio", "ratio", "higher"),
        ]
    specs += [
        ("attacks.zero_grad", "count", "lower"),
        ("attacks.deepfool.iterations_mean", "count", "lower"),
        ("imagekit.roi_mask.calls", "count", "lower"),
        ("imagekit.roi_mask.s", "s", "lower"),
        ("imagekit.roi_mask.ms_p50", "ms", "lower"),
        ("imagekit.roi_mask.ms_p99", "ms", "lower"),
        ("imagekit.roi_fallback_ratio", "ratio", "lower"),
        ("bench.synth.s", "s", "lower"),
        ("bench.synth.images_per_s", "1/s", "higher"),
        ("bench.dataset.load_s", "s", "lower"),
        ("bench.report.s", "s", "lower"),
        ("defences.adversarial_train.s", "s", "lower"),
        ("defences.adversarial_train.attack_s", "s", "lower"),
        ("defences.distill.s", "s", "lower"),
        ("defences.pixel_deflect.s", "s", "lower"),
        ("defences.gradient_saliency.s", "s", "lower"),
    ]
    specs += [(f"defences.{d}.clean_accuracy", "ratio", "higher") for d in DEFENCE_KINDS]
    specs += [("defences.at_chance", "count", "lower"), ("metrics.s", "s", "lower")]
    specs += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    specs += [("trace.wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return specs


PER_LAYER = _per_layer_specs()

# Span each metric is computed from, by metric-name prefix, for reporting
# why a metric is absent. Defence accuracies come from the report rows.
SOURCES = {
    "gradnet.evaluate": "gradnet.evaluate",
    "gradnet.train": "gradnet.train",
    "imagekit.roi": "imagekit.roi_mask",
    "bench.synth": "bench.synth",
    "bench.dataset": "bench.dataset.load",
    "bench.report": "bench.report",
    "metrics.s": "metrics",
    "defences.adversarial_train": "defences.adversarial_train",
    "attacks.zero_grad": "attacks.<kind>",
    "defences.at_chance": None,
    **{f"defences.{d}.clean_accuracy": None for d in DEFENCE_KINDS},
}


def source_span(metric: str) -> str | None:
    """The span a metric is computed from; None for report-row metrics."""
    for prefix, span in SOURCES.items():
        if metric.startswith(prefix):
            return span
    parts = metric.split(".")
    if parts[0] == "gradnet" and parts[1] in KERNELS:
        return ".".join(parts[:3])
    return ".".join(parts[:2])


# --- instrumentation ---------------------------------------------------------


def _rows(args, kwargs):
    net, x = args[0], np.asarray(args[1])
    return {"rows": 1 if x.shape == net.input_shape else int(x.shape[0])}


def _net_span(tracer: Tracer, span_name: str):
    def name(args, kwargs):
        current = tracer.current()
        if current is not None and current.name in NET_SPANS:
            return None
        return span_name

    return name


def _kernel_before(kernel: str):
    def before(args, kwargs):
        x = args[0]
        attrs = {"n": int(x.shape[0])}
        if kernel == "conv_backward":
            kh, kw, cin, _ = args[1].shape
            attrs["flops"] = 4 * x.size * kh * kw * cin  # dW and dcols matmuls
        elif kernel == "conv_forward":
            kh, kw, cin, _ = args[1].shape
            attrs["k"] = kh * kw * cin
        return attrs

    return before


def _conv_forward_after(result, attrs):
    attrs["flops"] = 2 * result[0].size * attrs.pop("k")


def _attack_name(args, kwargs):
    return f"attacks.{args[0]}"


def _attack_after(result, attrs):
    attrs["success"] = bool(result.success)
    attrs["iterations"] = int(result.iterations_used)


def _train_after(result, attrs):
    history = result[1]
    attrs["epochs"] = len(history["loss"])
    attrs["final_accuracy"] = float(history["accuracy"][-1]) if history["accuracy"] else math.nan


def instrument(tracer: Tracer) -> None:
    """Wrap the public names each module's callers resolve at call time."""
    for method, span_name in NET_METHODS.items():
        tracer.wrap(network.Network, method, _net_span(tracer, span_name), produces=[span_name], before=_rows)
    for kernel in KERNELS:
        tracer.wrap(
            network,
            kernel,
            lambda args, kwargs, k=kernel: f"gradnet.{k}." + ("n1" if args[0].shape[0] == 1 else "nbatch"),
            produces=[f"gradnet.{kernel}.n1", f"gradnet.{kernel}.nbatch"],
            before=_kernel_before(kernel),
            after=_conv_forward_after if kernel == "conv_forward" else None,
        )
    for owner, role in ((runner, "model"), (defences, "defence")):
        tracer.wrap(owner, "train", "gradnet.train", before=lambda a, k, r=role: {"role": r}, after=_train_after)
        tracer.wrap(owner, "run_attack", _attack_name, produces=[f"attacks.{a}" for a in ATTACK_KINDS], after=_attack_after)
    tracer.wrap(gtrain, "evaluate", "gradnet.evaluate")
    tracer.wrap(defences, "evaluate", "gradnet.evaluate")
    tracer.wrap(attacks, "roi_mask", "imagekit.roi_mask")
    for fn in ("lp_norm", "perturbation_percent"):
        tracer.wrap(attacks, fn, "metrics")
    for fn in ("accuracy", "roc_auc"):
        tracer.wrap(runner, fn, "metrics")
    for owner in (runner, dataset):
        tracer.wrap(owner, "generate_images", "bench.synth", before=lambda a, k: {"n": int(a[0])})
    tracer.wrap(runner, "load_dataset", "bench.dataset.load")
    for fn, span_name in DEFENCE_SPANS.items():
        tracer.wrap(runner, fn, span_name)


# --- metrics -----------------------------------------------------------------


def _sum(spans, name) -> float | None:
    picked = [s.duration for s in spans if s.name == name]
    return float(sum(picked)) if picked else None


def _ancestor(spans_all: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans_all[parent].name == name:
            return True
        parent = spans_all[parent].parent
    return False


def pass_metrics(tracer: Tracer, pass_id: str, fidelity: dict) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None marks a metric with no data."""
    all_spans = tracer.spans
    index = [i for i, s in enumerate(all_spans) if s.pass_id == pass_id]
    spans = [all_spans[i] for i in index]
    selfs = self_times(all_spans)
    out: dict[str, float | None] = {}

    for base in NET_SPANS:
        picked = [s for s in spans if s.name == base]
        out[f"{base}.calls"] = len(picked) or None
        out[f"{base}.rows"] = sum(s.attrs["rows"] for s in picked) or None
        out[f"{base}.s"] = _sum(spans, base)
    out["gradnet.evaluate.s"] = _sum(spans, "gradnet.evaluate")
    trains = [s for s in spans if s.name == "gradnet.train" and s.error is None]
    out["gradnet.train.epochs_run"] = sum(s.attrs["epochs"] for s in trains) or None
    model = [s for s in trains if s.attrs["role"] == "model"]
    out["gradnet.train.final_accuracy"] = model[0].attrs["final_accuracy"] if model else None
    for k in KERNELS:
        for size in ("n1", "nbatch"):
            name = f"gradnet.{k}.{size}"
            out[f"{name}.s"] = _sum(spans, name)
            if k.startswith("conv"):
                secs = out[f"{name}.s"]
                flops = sum(s.attrs.get("flops", 0) for s in spans if s.name == name)
                out[f"{name}.gflop_per_s"] = flops / secs / 1e9 if secs else None

    child_grad = {}
    for i, s in zip(index, spans):
        if s.name in NET_SPANS and s.parent is not None:
            child_grad.setdefault(s.parent, []).append(s)
    for a in ATTACK_KINDS:
        picked = [(i, s) for i, s in zip(index, spans) if s.name == f"attacks.{a}"]
        if not picked:
            for key in ("s", "self_s", "grad_calls_per_sample", "success_ratio"):
                out[f"attacks.{a}.{key}"] = None
            continue
        total = sum(s.duration for _, s in picked)
        grad_children = [c for i, _ in picked for c in child_grad.get(i, [])]
        done = [s for _, s in picked if s.error is None]
        out[f"attacks.{a}.s"] = total
        out[f"attacks.{a}.self_s"] = total - sum(c.duration for c in grad_children)
        out[f"attacks.{a}.grad_calls_per_sample"] = (
            sum(c.name in ("gradnet.input_gradient", "gradnet.logit_backprop") for c in grad_children) / len(picked)
        )
        out[f"attacks.{a}.success_ratio"] = sum(s.attrs["success"] for s in done) / len(done) if done else None
    attack_spans = [s for s in spans if s.name.startswith("attacks.")]
    out["attacks.zero_grad"] = sum(s.error == "ZeroGradientError" for s in attack_spans) if attack_spans else None
    deepfool = [s.attrs["iterations"] for s in spans if s.name == "attacks.deepfool" and s.error is None]
    out["attacks.deepfool.iterations_mean"] = float(np.mean(deepfool)) if deepfool else None

    roi = [s for s in spans if s.name == "imagekit.roi_mask"]
    ms = np.array([s.duration * 1e3 for s in roi])
    out["imagekit.roi_mask.calls"] = len(roi) or None
    out["imagekit.roi_mask.s"] = float(ms.sum() / 1e3) if roi else None
    out["imagekit.roi_mask.ms_p50"] = float(np.percentile(ms, 50)) if roi else None
    out["imagekit.roi_mask.ms_p99"] = float(np.percentile(ms, 99)) if roi else None
    out["imagekit.roi_fallback_ratio"] = sum(s.error is not None for s in roi) / len(roi) if roi else None

    synth = [s for s in spans if s.name == "bench.synth"]
    out["bench.synth.s"] = _sum(spans, "bench.synth")
    out["bench.synth.images_per_s"] = sum(s.attrs["n"] for s in synth) / out["bench.synth.s"] if synth else None
    out["bench.dataset.load_s"] = _sum(spans, "bench.dataset.load")
    out["bench.report.s"] = _sum(spans, "bench.report")

    for span_name in DEFENCE_SPANS.values():
        out[f"{span_name}.s"] = _sum(spans, span_name)
    inner = [s.duration for s in attack_spans if _ancestor(all_spans, s, "defences.adversarial_train")]
    out["defences.adversarial_train.attack_s"] = float(sum(inner)) if out["defences.adversarial_train.s"] else None
    for d in DEFENCE_KINDS:
        out[f"defences.{d}.clean_accuracy"] = fidelity.get(f"defences.{d}.clean_accuracy")
    defended = [fidelity[f"defences.{d}.clean_accuracy"] for d in DEFENCE_KINDS if f"defences.{d}.clean_accuracy" in fidelity]
    out["defences.at_chance"] = sum(acc <= CHANCE_ACCURACY for acc in defended) if defended else None
    out["metrics.s"] = _sum(spans, "metrics")

    for m in MODULES:
        out[f"{m}.self_s"] = float(sum(selfs[i] for i in index if all_spans[i].name.split(".")[0] == m))
    roots = [s for s in spans if s.parent is None]
    out["trace.wall_s"] = float(sum(s.duration for s in roots))
    return out


def self_time_gap(metrics: dict, wall: float) -> float:
    """|sum of per-module self times - wall| as a share of `wall`, the
    pass time the benchmark clocked itself around the traced pass."""
    total = sum(metrics[f"{m}.self_s"] for m in MODULES)
    return abs(total - wall) / wall


def unnested_spans(tracer: Tracer, pass_id: str) -> list[str]:
    """Spans of one pass that were left open or lie outside their parent."""
    bad = []
    for s in tracer.spans:
        if s.pass_id != pass_id:
            continue
        if s.end < s.start:
            bad.append(f"{s.name} left open")
        elif s.parent is not None:
            p = tracer.spans[s.parent]
            if p.pass_id != pass_id or s.start < p.start or s.end > p.end:
                bad.append(f"{s.name} outside its parent {p.name}")
    return bad
