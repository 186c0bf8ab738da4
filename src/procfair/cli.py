"""Command-line front end.

Every command writes its primary artifacts (datasets, models, reports,
sweep tables) deterministically for a given seed, plus a ``report.json``
run log carrying the resolved configuration and wall-clock timing.
Errors, malformed or unknown flags included, are emitted as one JSON object
on stderr and a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._formats import read_json, write_json, write_table
from .attribution import write_explanations_csv
from .datasets import (
    FAIR_CORRELATION_THRESHOLD,
    SPLIT_RATIO,
    SyntheticConfig,
    concat_datasets,
    generate_synthetic,
    load_csv,
    standardized_split,
    write_csv,
    write_schema,
)
from .fairness import AuditConfig, audit, dp, prediction_metrics
from .mitigation import (
    DETECTION_KERNEL,
    DETECTION_THRESHOLD,
    ModifyConfig,
    detect_unfair_features,
    modify_model,
    retrain_without,
)
from .models import MODEL_KINDS, MlpModel, TrainConfig, bce_loss, load_model, predict_labels, save_model
from .seeding import derive_seed
from .sweeps import sweep_pair_count, sweep_pool_size, sweep_sensitive_weight
from .two_sample import KernelConfig, pca_project

# Unused here; perfbench/tracing.py rebinds this name in this module.
from .attribution import sample_background  # noqa: F401

__all__ = ["main", "build_parser"]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _resolve_features(dataset, selector: str | None) -> tuple[int, ...] | None:
    if selector is None:
        return None
    names = [n.strip() for n in selector.split(",") if n.strip()]
    missing = [n for n in names if n not in dataset.feature_names]
    if missing:
        raise ValueError(f"unknown feature(s): {', '.join(missing)}")
    return tuple(dataset.feature_names.index(n) for n in names)


def _load_models(args, *extra: str):
    """Load ``--model`` and the models of the ``extra`` flags, check that
    each model's feature names are the dataset's columns at its feature
    indices, and re-derive the split that ``--model``'s document records.
    Returns the split, the models in flag order and ``--model``'s document."""
    loaded = [load_model(getattr(args, flag)) for flag in ("model", *extra)]
    models = [model for model, _ in loaded]
    doc = loaded[0][1]
    dataset = load_csv(args.data, args.schema)
    for model in models:
        for name, i in zip(model.feature_names or (), model.feature_indices):
            found = dataset.feature_names[i] if i < dataset.d else None
            if found != name:
                raise ValueError(
                    f"model feature {name!r} is read from column {i}, which is {found!r} in {args.data}"
                )
    data_split = doc.get("data_split") or {}
    ratio = float(data_split.get("ratio", SPLIT_RATIO))
    seed = int(data_split.get("seed", args.seed))
    split, _ = standardized_split(dataset, ratio, seed)
    return split, models, doc


def _audit_config(args) -> AuditConfig:
    return AuditConfig(
        n_pairs=getattr(args, "n", AuditConfig.n_pairs),  # sweep-n takes no --n
        background_size=args.background,
        n_coalitions=args.coalitions,
        kernel=KernelConfig(args.kernel, args.bandwidth),
        n_permutations=args.permutations,
        pool=getattr(args, "pool", AuditConfig.pool),
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_data(args) -> dict:
    out = _out_dir(args)
    config = SyntheticConfig(
        m=args.m,
        n_advantaged=args.n_advantaged,
        weights=tuple(args.weights),
        proxy_std=args.proxy_std,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    dataset = generate_synthetic(config)
    csv_path = out / f"{args.name}.csv"
    schema_path = out / f"{args.name}.schema.json"
    write_csv(dataset, csv_path)
    write_schema(dataset, schema_path)
    dp_value = dp(dataset.labels, dataset.advantaged_mask)
    print(f"wrote {csv_path} ({dataset.m} rows); dataset DP = {_fmt(dp_value)}")
    return {"rows": dataset.m, "dataset_dp": dp_value, "files": [csv_path.name, schema_path.name]}


def cmd_train(args) -> dict:
    out = _out_dir(args)
    dataset = load_csv(args.data, args.schema)
    split, _ = standardized_split(dataset, args.split_ratio, args.seed)
    feats = _resolve_features(dataset, args.features)
    config = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, dp_weight=args.dp_weight, seed=args.seed
    )
    model, trace = MODEL_KINDS[args.kind].fit(split.train, config, feats, args.hidden)

    metrics = prediction_metrics(model, split.test)
    X_test = split.test.features[:, model.feature_indices]
    metrics["final_loss"] = float(trace[-1]) if len(trace) else bce_loss(model, X_test, split.test.labels)
    model_path = out / f"{args.model_name}.json"
    save_model(
        model,
        model_path,
        training=config.snapshot(),
        data_split={"ratio": args.split_ratio, "seed": args.seed},
    )
    print(
        f"wrote {model_path}; accuracy = {_fmt(metrics['accuracy'])}, dp = {_fmt(metrics['dp'])}, "
        f"eo = {_fmt(metrics['eo'])}, eod = {_fmt(metrics['eod'])}"
    )
    return {"model": model_path.name, "features": list(model.feature_names), **metrics}


def cmd_audit(args) -> dict:
    out = _out_dir(args)
    split, (model,), _ = _load_models(args)
    report = audit(model, split, _audit_config(args))
    audit_doc = {"version": __version__, "model": Path(args.model).name, **report.to_dict()}
    write_json(out / "audit.json", audit_doc)
    if args.export_explanations:
        write_explanations_csv(report.gpf.explanations_1, out / "explanations_group1.csv")
        write_explanations_csv(report.gpf.explanations_2, out / "explanations_group2.csv")
    print(
        f"GPF = {_fmt(report.gpf_fae)} ({report.procedural_verdict}); "
        f"DP = {_fmt(report.dp)}, EO = {_fmt(report.eo)}, EOD = {_fmt(report.eod)}, "
        f"accuracy = {_fmt(report.accuracy)}"
    )
    return audit_doc


def _detection_config(args) -> dict:
    return {
        "n_pairs": args.n,
        "background_size": args.background,
        "n_coalitions": args.coalitions,
        "detection_kernel": args.detection_kernel,
        "kernel_bandwidth": args.bandwidth,
        "n_permutations": args.permutations,
        "beta": args.beta,
        "seed": args.seed,
    }


def _audit_and_detect(args):
    """Audit ``--model`` and detect its unfair features; returns the audit
    report, the detected features and the model document."""
    split, (model,), doc = _load_models(args)
    report = audit(model, split, _audit_config(args))
    ufs = detect_unfair_features(report, KernelConfig(args.detection_kernel, args.bandwidth), args.beta)
    return report, ufs, doc


def cmd_detect(args) -> dict:
    out = _out_dir(args)
    _, ufs, _ = _audit_and_detect(args)
    detect_doc = {
        "version": __version__,
        "model": Path(args.model).name,
        "config": _detection_config(args),
        **ufs.to_dict(),
    }
    write_json(out / "unfair_features.json", detect_doc)
    names = ", ".join(ufs.feature_names) if ufs.feature_names else "(none)"
    print(f"detected unfair features: {names}")
    return detect_doc


def cmd_mitigate(args) -> dict:
    out = _out_dir(args)
    before, ufs, doc = _audit_and_detect(args)

    if args.method == "retrain":
        result = retrain_without(before, ufs, TrainConfig.from_snapshot(doc.get("training"), args.seed))
        model_path = out / "model_retrained.json"
    else:
        config = ModifyConfig(alpha=args.alpha, tau=args.tau, learning_rate=args.lr)
        # by keyword: perfbench/tracing.py reads the step count from ``config``
        result = modify_model(before, ufs, config=config)
        model_path = out / "model_modified.json"

    save_model(result.model, model_path, training=doc.get("training"), data_split=doc.get("data_split"))
    mitigation_doc = {
        "version": __version__,
        "model": Path(args.model).name,
        "detection_config": _detection_config(args),
        "unfair_features": ufs.to_dict(),
        **result.to_dict(),
    }
    write_json(out / "mitigation.json", mitigation_doc)
    after = result.report_after
    print(
        f"{args.method}: GPF {_fmt(before.gpf_fae)} -> {_fmt(after.gpf_fae)}, "
        f"accuracy {_fmt(before.accuracy)} -> {_fmt(after.accuracy)}, "
        f"DP {_fmt(before.dp)} -> {_fmt(after.dp)}"
    )
    return mitigation_doc


def cmd_sweep_ws(args) -> dict:
    out = _out_dir(args)
    dataset = load_csv(args.data, args.schema)
    split, _ = standardized_split(dataset, args.split_ratio, args.seed)
    grid = np.linspace(0.0, args.max_ws, args.points)
    seeds = [derive_seed(args.seed, f"ws-sweep-{i}") for i in range(args.seeds)]
    feats, matrix = sweep_sensitive_weight(
        split, grid, seeds,
        TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed),
        args.fair_threshold, _audit_config(args),
    )
    scale = args.max_ws if args.max_ws > 0 else 1.0
    means = [float(scores.mean()) for scores in matrix.T]
    stds = [float(scores.std()) for scores in matrix.T]
    columns = [grid, [w / scale for w in grid.tolist()], means, stds]
    write_table(out / "sweep_ws.csv", ["w_s", "w_s_normalized", "gpf_mean", "gpf_std"], columns)
    print(f"wrote sweep_ws.csv ({len(grid)} grid points, {args.seeds} seeds)")
    return {
        "features": [dataset.feature_names[i] for i in feats],
        "grid_points": len(grid),
        "gpf_at_zero": means[0],
        "gpf_at_max": means[-1],
    }


def cmd_sweep_n(args) -> dict:
    out = _out_dir(args)
    split, (model,), _ = _load_models(args)
    n_values = [int(v) for v in args.n_values.split(",")]
    seeds = [derive_seed(args.seed, f"n-sweep-{i}") for i in range(args.seeds)]
    matrix = sweep_pair_count(model, split, n_values, seeds, _audit_config(args))
    means = [float(scores.mean()) for scores in matrix.T]
    stds = [float(scores.std()) for scores in matrix.T]
    write_table(out / "sweep_n.csv", ["n", "gpf_mean", "gpf_std"], [n_values, means, stds])
    print(f"wrote sweep_n.csv ({len(n_values)} pair counts, {args.seeds} seeds)")
    return {"n_values": n_values, "gpf_means": means}


def cmd_sweep_pool(args) -> dict:
    out = _out_dir(args)
    split, (model,), _ = _load_models(args)
    pool_sizes = [int(v) for v in args.pool_sizes.split(",")]
    seeds = [derive_seed(args.seed, f"pool-sweep-{i}") for i in range(args.seeds)]
    distances, scores = sweep_pool_size(model, split, pool_sizes, seeds, _audit_config(args))
    mean_distances = [float(column.mean()) for column in distances.T]
    columns = [
        pool_sizes,
        mean_distances,
        [float(column.mean()) for column in scores.T],
        [float(column.std()) for column in scores.T],
    ]
    write_table(out / "sweep_pool.csv", ["pool_size", "mean_pair_distance", "gpf_mean", "gpf_std"], columns)
    print(f"wrote sweep_pool.csv ({len(pool_sizes)} pool sizes, {args.seeds} seeds)")
    return {"pool_sizes": pool_sizes, "mean_distances": mean_distances}


def cmd_boundary(args) -> dict:
    if args.resolution < 1:
        raise ValueError(f"--resolution must be at least 1, got {args.resolution}")
    if args.margin < 0:
        raise ValueError(f"--margin must be at least 0, got {args.margin}")
    out = _out_dir(args)
    split, (original, modified, retrained), _ = _load_models(args, "modified", "retrained")
    full = concat_datasets(split.train, split.test)

    pca = pca_project(full.features, 2)
    low, high = pca.projected.min(axis=0), pca.projected.max(axis=0)
    margin = args.margin * (high - low)
    xs = np.linspace(low[0] - margin[0], high[0] + margin[0], args.resolution)
    ys = np.linspace(low[1] - margin[1], high[1] + margin[1], args.resolution)
    gx, gy = np.meshgrid(xs, ys)
    plane = np.column_stack([gx.ravel(), gy.ravel()])
    inputs = pca.inverse(plane)

    def grid_predictions(model):
        return predict_labels(model, inputs[:, model.feature_indices])

    preds = {
        "original": grid_predictions(original),
        "modified": grid_predictions(modified),
        "retrained": grid_predictions(retrained),
    }
    write_table(
        out / "boundary.csv",
        ["x", "y", "pred_original", "pred_modified", "pred_retrained"],
        [*plane.T, *preds.values()],
    )
    write_table(out / "boundary_points.csv", ["x", "y", "label"], [*pca.projected.T, full.labels])

    disagree_modified = float((preds["modified"] != preds["original"]).mean())
    disagree_retrained = float((preds["retrained"] != preds["original"]).mean())
    print(
        f"wrote boundary.csv ({args.resolution}x{args.resolution}); grid disagreement "
        f"vs original: modified {_fmt(disagree_modified)}, retrained {_fmt(disagree_retrained)}"
    )
    return {
        "resolution": args.resolution,
        "disagreement_modified": disagree_modified,
        "disagreement_retrained": disagree_retrained,
        "explained_variance_ratio": [float(v) for v in pca.explained_variance_ratio],
    }


# ---------------------------------------------------------------------------
# Parser


def _finite_float(text: str) -> float:
    """The type of every float flag: NaN and infinities fail as bad flags."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="global seed recorded in every output")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--config", default=None, help="JSON file of argument defaults")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV")
    parser.add_argument("--schema", required=True, help="schema sidecar JSON")


def _add_pair_count(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=AuditConfig.n_pairs, help="matched pairs per side")


def _add_audit_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--background", type=int, default=AuditConfig.background_size, help="background sample size"
    )
    parser.add_argument("--coalitions", type=int, default=AuditConfig.n_coalitions, help="coalition budget")
    parser.add_argument("--kernel", choices=("exponential", "gaussian"), default=KernelConfig.kind)
    parser.add_argument(
        "--bandwidth", type=_finite_float, default=KernelConfig.bandwidth, help="fixed kernel bandwidth"
    )
    parser.add_argument("--permutations", type=int, default=AuditConfig.n_permutations)


def _add_detection_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=_finite_float, default=DETECTION_THRESHOLD, help="per-feature p-value threshold")
    parser.add_argument("--detection-kernel", choices=("exponential", "gaussian"), default=DETECTION_KERNEL)


class _Parser(argparse.ArgumentParser):
    """Raises on a bad flag, for ``main`` to report as a JSON error object
    (argparse would print usage and exit 2), and takes flags only in full, so
    a flag a command lacks cannot pass as the prefix of one it has
    (``sweep-n --n`` for ``--n-values``); subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="procfair", description="Procedural-fairness auditing for tabular binary classifiers"
    )
    parser.add_argument("--version", action="version", version=f"procfair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic benchmark dataset")
    _add_common(p)
    p.add_argument("--m", type=int, default=SyntheticConfig.m)
    p.add_argument("--n-advantaged", type=int, default=SyntheticConfig.n_advantaged)
    p.add_argument("--weights", type=_finite_float, nargs=5, default=list(SyntheticConfig.weights))
    p.add_argument("--proxy-std", type=_finite_float, default=SyntheticConfig.proxy_std)
    p.add_argument("--noise-std", type=_finite_float, default=SyntheticConfig.noise_std)
    p.add_argument("--name", default="synthetic")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a classifier")
    _add_common(p)
    _add_data(p)
    p.add_argument("--kind", choices=tuple(MODEL_KINDS), default=MlpModel.kind)
    p.add_argument("--features", default=None, help="comma-separated feature names (default: all)")
    p.add_argument(
        "--hidden", type=int, default=None, help="MLP hidden units, at least 1 (default: 32, 64 if d > 18)"
    )
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=_finite_float, default=TrainConfig.learning_rate)
    p.add_argument(
        "--dp-weight", type=_finite_float, default=TrainConfig.dp_weight,
        help="weight of the DP term in the loss; a negative weight rewards the group gap",
    )
    p.add_argument("--split-ratio", type=_finite_float, default=SPLIT_RATIO)
    p.add_argument("--model-name", default="model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="audit a trained model")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", required=True)
    _add_pair_count(p)
    _add_audit_knobs(p)
    p.add_argument("--pool", choices=("test", "full"), default=AuditConfig.pool)
    p.add_argument("--export-explanations", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("detect", help="detect the features causing procedural unfairness")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", required=True)
    _add_pair_count(p)
    _add_audit_knobs(p)
    _add_detection_knobs(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("mitigate", help="improve procedural fairness")
    _add_common(p)
    _add_data(p)
    p.add_argument("method", choices=("retrain", "modify"))
    p.add_argument("--model", required=True)
    _add_pair_count(p)
    _add_audit_knobs(p)
    _add_detection_knobs(p)
    p.add_argument("--alpha", type=_finite_float, default=ModifyConfig.alpha, help="explanation-loss weight")
    p.add_argument("--tau", type=int, default=ModifyConfig.tau, help="modification steps")
    p.add_argument("--lr", type=_finite_float, default=ModifyConfig.learning_rate)
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("sweep-ws", help="sweep the sensitive weight of a logistic model")
    _add_common(p)
    _add_data(p)
    _add_pair_count(p)
    _add_audit_knobs(p)
    p.add_argument("--max-ws", type=_finite_float, default=5.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--fair-threshold", type=_finite_float, default=FAIR_CORRELATION_THRESHOLD)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=_finite_float, default=TrainConfig.learning_rate)
    p.add_argument("--split-ratio", type=_finite_float, default=SPLIT_RATIO)
    p.set_defaults(func=cmd_sweep_ws)

    p = sub.add_parser("sweep-n", help="sweep the number of matched pairs")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", required=True)
    _add_audit_knobs(p)
    p.add_argument("--n-values", default="10,20,50,100,200,500")
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("sweep-pool", help="sweep the pool size used for pair selection")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", required=True)
    _add_pair_count(p)
    _add_audit_knobs(p)
    p.add_argument("--pool-sizes", required=True, help="comma-separated pool sizes")
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=cmd_sweep_pool)

    p = sub.add_parser("boundary", help="export PCA-plane decision grids for three models")
    _add_common(p)
    _add_data(p)
    p.add_argument("--model", required=True, help="original model")
    p.add_argument("--modified", required=True)
    p.add_argument("--retrained", required=True)
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--margin", type=_finite_float, default=0.1, help="bounding-box margin fraction, at least 0")
    p.set_defaults(func=cmd_boundary)

    return parser


def _inject_config(argv: list[str]) -> list[str]:
    """Splice ``--config`` (or ``--config=PATH``) file entries in as defaults;
    explicit flags win."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 == len(argv):
                raise ValueError("--config needs a JSON file path")
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token[len("--config=") :]
    if path is None:
        return argv
    tokens: list[str] = []
    for key, value in read_json(path).items():
        if value is None or value is False:
            continue  # null and false leave the flag at its default
        tokens.append("--" + str(key).replace("_", "-"))
        if isinstance(value, list):
            tokens.extend(str(v) for v in value)
        elif value is not True:
            tokens.append(str(value))
    return [argv[0]] + tokens + argv[1:]


def _fail(command: str | None, exc: Exception) -> int:
    print(json.dumps({"command": command, "error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = argv[0] if argv and not argv[0].startswith("-") else None
    try:
        if command is not None:
            argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
    except (OSError, ValueError, argparse.ArgumentError) as exc:
        return _fail(command, exc)
    started = time.time()
    try:
        results = args.func(args)
    except Exception as exc:
        return _fail(args.command, exc)
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func",)}
    write_json(
        Path(args.out) / "report.json",
        {
            "version": __version__,
            "command": args.command,
            "config": config,
            "results": results,
            "timing": time.time() - started,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
