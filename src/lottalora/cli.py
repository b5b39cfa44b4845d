"""Command-line entry point.

Commands: train, sweep, metalora, seedgate, pack, unpack, verify, cost,
rankstar, betastats.  Every command that writes files also writes a
manifest.json with the fully resolved configuration and seeds, sufficient
to re-run identically.  Errors exit nonzero with a machine-readable
category on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from . import artifact as artifact_mod
from .cost import ARCHS, cost_report, rank_star
from .data import load_mnist, make_partition
from .errors import ConfigError, DataError, LottaError
from .initfam import InitFamily
from .model import BackboneSpec, ModelConfig, build_model
from .train import (
    RunMetrics,
    TrainConfig,
    beta_summary,
    seed_gated_train,
    train_run,
    write_metrics_csv,
)

EXIT_CODES = {
    "usage": 2,
    "config": 3,
    "data": 4,
    "parse": 4,
    "format": 5,
    "integrity": 6,
    "incompatibility": 7,
    "run": 8,
    "error": 1,
}


# -- config plumbing -----------------------------------------------------------


def _parse_family_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--family-param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError as err:
            raise ConfigError(f"--family-param {key}: not a number: {value!r}") from err
    return params


def _resolve_family(args) -> InitFamily:
    params = _parse_family_params(getattr(args, "family_param", None))
    scaling = getattr(args, "family_scaling", None)
    return InitFamily(args.family, params, scaling)


def _resolve_data_dir(args) -> str:
    path = getattr(args, "data_dir", None) or os.environ.get("LOTTALORA_DATA_DIR")
    if not path:
        raise DataError("no MNIST directory: pass --data-dir or set LOTTALORA_DATA_DIR")
    return path


def _parse_resample(text: str) -> tuple[str, int]:
    if text == "static":
        return "static", 2
    if text == "epoch":
        return "per_epoch", 2
    if text.startswith("batch:"):
        return "per_batch", int(text.split(":", 1)[1])
    if text.startswith("micro:"):
        return "microbatch", int(text.split(":", 1)[1])
    raise ConfigError(f"bad --resample {text!r}; expected static|epoch|batch:k|micro:k")


def _apply_config_file(args: argparse.Namespace) -> None:
    """Flat JSON config; dotted family.* keys feed --family-param; explicit
    command-line flags win over file values."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as err:  # covers UnicodeDecodeError and JSONDecodeError
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(config).__name__}")
    actions = {action.dest: action for action in args._parser._actions}
    for key, value in config.items():
        if key.startswith("family."):
            args.family_param = list(getattr(args, "family_param", []) or [])
            args.family_param.append(f"{key.split('.', 1)[1]}={value}")
            continue
        dest = key.replace("-", "_").replace(".", "_")
        if not hasattr(args, dest):
            raise ConfigError(f"unknown config key {key!r}")
        action = actions.get(dest)
        if action is not None and action.type is not None:
            # the same conversion the flag's command-line text goes through
            try:
                value = action.type(str(value))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"config key {key!r}: invalid value {value!r}") from err
        if action is not None and action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        if getattr(args, dest) == args._parser.get_default(dest):
            setattr(args, dest, value)


def _model_config(args) -> ModelConfig:
    scaling = "rank_stabilized" if args.scaling == "rslora" else "standard"
    return ModelConfig(
        preset=args.preset,
        rank=args.rank,
        alpha=args.alpha,
        scaling_mode=scaling,
        head_mode=args.head,
        dropout=args.dropout,
        layernorm=args.layernorm,
        mode="full_training" if getattr(args, "full", False) else "lottalora",
        zero_scaffold=getattr(args, "zero_scaffold", False),
        b_init=getattr(args, "b_init", "zeros"),
    )


def _train_config(args, resample="static", resample_k=2) -> TrainConfig:
    return TrainConfig(
        lr=args.lr,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        epochs=args.epochs,
        resample=resample,
        resample_k=resample_k,
    )


def _write_manifest(out_dir: str, command: str, resolved: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": command, "resolved": resolved, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_summary(out_dir: str, metrics: RunMetrics, task: dict) -> None:
    summary = {"task": task, **metrics.summary()}
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


# -- parallel sweep machinery -----------------------------------------------------

_WORKER_DATA = {}


def _worker_init(data_dir: str):
    _WORKER_DATA["mnist"] = load_mnist(data_dir)


def run_single(task: dict, datasets=None) -> dict:
    """One training run described by a flat task dict (picklable)."""
    if datasets is None:
        datasets = _WORKER_DATA["mnist"]
    train_ds, test_ds = datasets
    cfg = ModelConfig.from_dict(task["model"])
    family = InitFamily.from_dict(task["family"])
    spec = BackboneSpec.from_config(cfg, task["seed"], family)
    tcfg = TrainConfig(**task["train"])
    metrics = train_run(cfg, spec, tcfg, train_ds, test_ds)
    result = {
        "task": task,
        "final_test_accuracy": metrics.final_test_accuracy,
        "final_test_loss": metrics.final_test_loss,
        "final_betas": metrics.final_betas,
        "best_epoch": metrics.best_epoch,
        "wall_time": metrics.wall_time,
        "epochs": metrics.epochs,
    }
    out_dir = task.get("out_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(metrics, os.path.join(out_dir, "metrics.csv"))
        _write_summary(out_dir, metrics, task)
    return result


def run_grid(tasks: list[dict], jobs: int, data_dir: str) -> list[dict]:
    """Run a task grid, up to ``jobs`` processes; results in task order.

    Workers are spawned with single-threaded BLAS so parallel runs do not
    oversubscribe each other; each worker loads the dataset once.
    """
    if jobs <= 1 or len(tasks) <= 1:
        datasets = load_mnist(data_dir)
        return [run_single(task, datasets) for task in tasks]
    saved = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        saved[var] = os.environ.get(var)
        os.environ[var] = "1"
    try:
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=get_context("spawn"),
            initializer=_worker_init,
            initargs=(data_dir,),
        ) as pool:
            return list(pool.map(run_single, tasks))
    finally:
        for var, old in saved.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old


def _task(args, model_cfg: ModelConfig, family: InitFamily, seed: int, train_cfg: TrainConfig, out_dir=None) -> dict:
    return {
        "model": model_cfg.to_dict(),
        "family": family.to_dict(),
        "seed": seed,
        "train": train_cfg.to_dict(),
        "out_dir": out_dir,
    }


# -- commands ----------------------------------------------------------------------


def cmd_train(args) -> int:
    data_dir = _resolve_data_dir(args)
    family = _resolve_family(args)
    model_cfg = _model_config(args)
    resample, k = _parse_resample(args.resample)
    train_cfg = _train_config(args, resample, k)
    datasets = load_mnist(data_dir)
    task = _task(args, model_cfg, family, args.seed, train_cfg, out_dir=args.out_dir)

    cfg = ModelConfig.from_dict(task["model"])
    spec = BackboneSpec.from_config(cfg, args.seed, family)
    metrics = train_run(cfg, spec, train_cfg, datasets[0], datasets[1])

    os.makedirs(args.out_dir, exist_ok=True)
    write_metrics_csv(metrics, os.path.join(args.out_dir, "metrics.csv"))
    _write_summary(args.out_dir, metrics, task)
    _write_manifest(args.out_dir, "train", task)
    blob = artifact_mod.pack(
        metrics.model,
        extra={
            "final_test_accuracy": metrics.final_test_accuracy,
            "final_test_loss": metrics.final_test_loss,
        },
    )
    artifact_mod.save(os.path.join(args.out_dir, "model.ltlr"), blob)
    print(json.dumps({"final_test_accuracy": metrics.final_test_accuracy, "out_dir": args.out_dir}))
    return 0


def _grid_tasks(args, families, seeds, ranks, out_root) -> list[dict]:
    resample, k = _parse_resample(args.resample)
    tasks = []
    for fam_name in families:
        family = InitFamily(fam_name) if isinstance(fam_name, str) else fam_name
        for rank in ranks:
            for seed in seeds:
                model_cfg = ModelConfig.from_dict({**_model_config(args).to_dict(), "rank": rank})
                tag = f"{model_cfg.preset}_{family.name}_r{rank}_s{seed}_{resample}"
                tasks.append(
                    _task(args, model_cfg, family, seed, _train_config(args, resample, k),
                          out_dir=os.path.join(out_root, "runs", tag))
                )
    return tasks


def cmd_sweep(args) -> int:
    data_dir = _resolve_data_dir(args)
    seeds = [int(s) for s in args.seeds.split(",")]
    ranks = [int(r) for r in args.ranks.split(",")]
    families = args.families.split(",") if args.families else [args.family]
    if args.families:
        tasks = _grid_tasks(args, families, seeds, ranks, args.out_dir)
    else:
        tasks = _grid_tasks(args, [_resolve_family(args)], seeds, ranks, args.out_dir)
    results = run_grid(tasks, args.jobs, data_dir)
    _write_manifest(args.out_dir, "sweep", {"tasks": tasks})
    with open(os.path.join(args.out_dir, "sweep_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(json.dumps([
        {"tag": os.path.basename(r["task"]["out_dir"]), "acc": r["final_test_accuracy"]} for r in results
    ], indent=2))
    return 0


def cmd_metalora(args) -> int:
    data_dir = _resolve_data_dir(args)
    seeds = [int(s) for s in args.seeds.split(",")]
    ranks = [int(r) for r in args.ranks.split(",")]
    tasks = []
    for schedule in args.schedules.split(","):
        resample, k = _parse_resample(schedule)
        for rank in ranks:
            for seed in seeds:
                model_cfg = ModelConfig.from_dict({**_model_config(args).to_dict(), "rank": rank})
                tag = f"{model_cfg.preset}_r{rank}_s{seed}_{schedule.replace(':', '')}"
                tasks.append(
                    _task(args, model_cfg, _resolve_family(args), seed,
                          _train_config(args, resample, k),
                          out_dir=os.path.join(args.out_dir, "runs", tag))
                )
    results = run_grid(tasks, args.jobs, data_dir)
    _write_manifest(args.out_dir, "metalora", {"tasks": tasks})
    with open(os.path.join(args.out_dir, "metalora_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    table = {}
    for r in results:
        key = f"{r['task']['train']['resample']}_r{r['task']['model']['rank']}"
        table.setdefault(key, []).append(r["final_test_accuracy"])
    print(json.dumps({k: float(np.mean(v)) for k, v in table.items()}, indent=2, sort_keys=True))
    return 0


def cmd_seedgate(args) -> int:
    data_dir = _resolve_data_dir(args)
    groups = [set(int(d) for d in g.split(",")) for g in args.groups.split(";")]
    seeds = [int(s) for s in args.seeds.split(",")]
    partition = make_partition(groups, seeds, ooc_mode=args.ooc)
    model_cfg = _model_config(args)
    train_cfg = _train_config(args)
    train_ds, test_ds = load_mnist(data_dir)
    result = seed_gated_train(partition, model_cfg, train_cfg, train_ds, test_ds,
                              family=_resolve_family(args))
    payload = {
        "groups": [sorted(g) for g in groups],
        "seeds": seeds,
        "ooc_mode": args.ooc,
        "assigned_accuracy": result.assigned_accuracy,
        "non_assigned_accuracy": result.non_assigned_accuracy,
        "ooc_digit0_rate": result.ooc_digit0_rate,
        "confusion": [c.tolist() for c in result.confusion],
    }
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "seedgate.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    _write_manifest(args.out_dir, "seedgate", {
        "model": model_cfg.to_dict(), "train": train_cfg.to_dict(),
        "groups": [sorted(g) for g in groups], "seeds": seeds, "ooc": args.ooc,
    })
    print(json.dumps({
        "assigned_accuracy": result.assigned_accuracy,
        "non_assigned_accuracy": result.non_assigned_accuracy,
        "ooc_digit0_rate": result.ooc_digit0_rate,
    }, indent=2))
    return 0


def cmd_pack(args) -> int:
    family = _resolve_family(args)
    cfg = _model_config(args)
    model = build_model(cfg, BackboneSpec.from_config(cfg, args.seed, family))
    blob = artifact_mod.pack(model)
    artifact_mod.save(args.output, blob)
    print(json.dumps({"written": args.output, "bytes": len(blob)}))
    return 0


def cmd_unpack(args) -> int:
    header, tensors = artifact_mod.unpack(artifact_mod.load(args.artifact))
    print(json.dumps({
        "header": header,
        "tensors": {k: list(v.shape) for k, v in tensors.items()},
    }, indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    from .errors import IntegrityError
    from .train import evaluate

    data_dir = _resolve_data_dir(args)
    header, tensors = artifact_mod.unpack(artifact_mod.load(args.artifact))
    model = artifact_mod.reconstruct(header, tensors)
    _, test_ds = load_mnist(data_dir)
    loss, acc = evaluate(model, test_ds)
    recorded = header.get("extra", {}).get("final_test_accuracy")
    if recorded is not None and acc != recorded:
        raise IntegrityError(
            f"reconstructed accuracy {acc} differs from recorded {recorded}"
        )
    print(json.dumps({"test_accuracy": acc, "test_loss": loss, "recorded": recorded, "verified": recorded is not None}))
    return 0


def cmd_cost(args) -> int:
    if args.arch not in ARCHS:
        raise ConfigError(f"unknown arch {args.arch!r}; expected one of {sorted(ARCHS)}")
    report = cost_report(ARCHS[args.arch], args.rank, m_tokens=args.tokens)
    d = report.to_dict()
    rows = [
        ("total params", f"{d['total_params']:,}"),
        ("internal (full)", f"{d['internal_full']:,}"),
        ("lora internal", f"{d['lora_internal']:,}"),
        ("flop ratio", f"{d['flop_ratio']:.4f}"),
        ("mem ratio", f"{d['mem_ratio']:.4f}"),
        ("dist fp16", f"{d['dist_mib']['fp16']:.1f} MiB"),
        ("dist int4", f"{d['dist_mib']['int4_grouped']:.1f} MiB"),
        ("dist lottalora", f"{d['dist_mib']['lottalora']:.1f} MiB"),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    print(json.dumps(d, sort_keys=True))
    return 0


def cmd_rankstar(args) -> int:
    with open(args.losses, "r", encoding="utf-8") as fh:
        losses = {int(k): float(v) for k, v in json.load(fh).items()}
    try:
        result = rank_star(losses, args.full, args.eps)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    print(json.dumps({"rank_star": result}))
    return 0


def cmd_betastats(args) -> int:
    collected = []
    for path in args.summaries:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        runs = payload if isinstance(payload, list) else [payload]
        for run in runs:
            betas = run.get("final_betas")
            if betas:
                collected.append(betas)
    stats = beta_summary(collected)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


# -- parser -------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--preset", default="medium", choices=["tiny", "small", "medium", "large"])
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--scaling", default="standard", choices=["standard", "rslora"])
    p.add_argument("--family", default="normal")
    p.add_argument("--family-param", action="append", metavar="K=V")
    p.add_argument("--family-scaling", default=None, choices=["fan_in", "explicit"])
    p.add_argument("--head", default="full", choices=["full", "lora", "lora_bias"])
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--layernorm", action="store_true")
    p.add_argument("--full", action="store_true", help="fully trained baseline (no frozen backbone)")
    p.add_argument("--zero-scaffold", action="store_true")
    p.add_argument("--b-init", default="zeros", choices=["zeros", "kaiming"],
                   help="adapter B init; use kaiming with --zero-scaffold")


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-2)
    p.add_argument("--resample", default="static", help="static|epoch|batch:k|micro:k")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--config", default=None, help="flat JSON config; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lottalora")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="one training run; writes metrics, summary, artifact")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train, _parser=p)

    p = sub.add_parser("sweep", help="preset x rank x family x seed grid")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--ranks", default="8")
    p.add_argument("--seeds", default="42")
    p.add_argument("--families", default=None, help="comma list; default params per family")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep, _parser=p)

    p = sub.add_parser("metalora", help="scaffold resampling schedule grid")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--schedules", default="static,epoch,batch:2,micro:4")
    p.add_argument("--ranks", default="2,4,8")
    p.add_argument("--seeds", default="42")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_metalora, _parser=p)

    p = sub.add_parser("seedgate", help="shared adapter across label partitions")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--groups", default="1,2,3;4,5,6;7,8,9")
    p.add_argument("--seeds", default="42,43,44")
    p.add_argument("--ooc", action="store_true")
    p.set_defaults(func=cmd_seedgate, _parser=p)

    p = sub.add_parser("pack", help="pack a fresh (untrained) model from flags")
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default="model.ltlr")
    p.add_argument("--config", default=None, help="flat JSON config; flags override")
    p.set_defaults(func=cmd_pack, _parser=p)

    p = sub.add_parser("unpack", help="print an artifact's header and tensor shapes")
    p.add_argument("artifact")
    p.set_defaults(func=cmd_unpack, _parser=p)

    p = sub.add_parser("verify", help="reconstruct an artifact and re-evaluate")
    p.add_argument("artifact")
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_verify, _parser=p)

    p = sub.add_parser("cost", help="closed-form cost analytics")
    p.add_argument("--arch", default="900M")
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--tokens", type=float, default=None)
    p.set_defaults(func=cmd_cost, _parser=p)

    p = sub.add_parser("rankstar", help="minimum sufficient rank from a loss table")
    p.add_argument("--losses", required=True, help="JSON file mapping rank -> loss")
    p.add_argument("--full", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_rankstar, _parser=p)

    p = sub.add_parser("betastats", help="aggregate backbone-gain stats from run summaries")
    p.add_argument("summaries", nargs="+")
    p.set_defaults(func=cmd_betastats, _parser=p)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        return args.func(args)
    except LottaError as err:
        print(json.dumps({"error": err.category, "message": str(err)}), file=sys.stderr)
        return EXIT_CODES.get(err.category, 1)
    except OSError as err:
        print(json.dumps({"error": "data", "message": str(err)}), file=sys.stderr)
        return EXIT_CODES["data"]


def main() -> None:
    sys.exit(run())
