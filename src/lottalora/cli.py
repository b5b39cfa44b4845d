"""Command-line entry point.

Commands: train, sweep, metalora, seedgate, pack, unpack, verify, cost,
rankstar, betastats.  Every command that writes files also writes a
manifest.json with the fully resolved configuration and seeds, sufficient
to re-run identically.  Errors exit nonzero with a machine-readable
category on stderr.  ``EXIT_CODES`` maps every ``LottaError`` category to
its exit code: usage 2, config 3, data 4, parse 4, format 5, integrity 6,
incompatibility 7, run 8, dimension 9, error 1 (and an unexpected
exception exits 1 too).  An ``OSError`` exits as data (4).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from multiprocessing import get_context

import numpy as np

from . import artifact as artifact_mod
from .cost import ARCHS, cost_report, rank_star
from .data import load_mnist, make_partition
from .errors import ConfigError, DataError, FormatError, IntegrityError, LottaError, RunError, real
from .initfam import SCALINGS, InitFamily
from .layers import B_INITS
from .model import HEAD_MODES, PRESETS, BackboneSpec, ModelConfig, build_model
from .prng import check_seed
from .train import (
    RunMetrics,
    TrainConfig,
    beta_summary,
    evaluate,
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
    "dimension": 9,
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


def _resolve_family(args, name: str) -> InitFamily:
    return InitFamily(name, _parse_family_params(args.family_param), args.family_scaling)


def _resolve_data_dir(args) -> str:
    path = args.data_dir or os.environ.get("LOTTALORA_DATA_DIR")
    if not path:
        raise DataError("no MNIST directory: pass --data-dir or set LOTTALORA_DATA_DIR")
    return path


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigError(f"{what}: not an integer: {text!r}") from err


def _parse_resample(text: str) -> tuple[str, int]:
    if text == "static":
        return "static", TrainConfig.resample_k
    if text == "epoch":
        return "per_epoch", TrainConfig.resample_k
    for prefix, kind in (("batch:", "per_batch"), ("micro:", "microbatch")):
        if text.startswith(prefix):
            return kind, _parse_int(text[len(prefix):], f"schedule {text!r}")
    raise ConfigError(f"bad schedule {text!r}; expected static|epoch|batch:k|micro:k")


def _int_list(text: str) -> list[int]:
    return [int(item) for item in text.split(",")]


_JSON_TYPES = {dict: "object", list: "list"}


def _read_json(path: str, what: str, kinds: tuple = (dict,)):
    """The JSON value in ``path``; a ConfigError unless it parses to one of ``kinds``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except ValueError as err:  # covers UnicodeDecodeError and JSONDecodeError
            raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(value, kinds):
        expected = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise ConfigError(f"{what} {path} must hold a JSON {expected}, got {type(value).__name__}")
    return value


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """Read a flat JSON config as parser defaults; dotted family.* keys feed
    --family-param.  A typed flag's value goes through the flag's type; any
    other value must have its flag's JSON kind: a boolean for a store_true
    flag, a list of strings for --family-param, a string otherwise."""
    config = _read_json(path, "config file")
    # --config and --help name no setting, so they are unknown keys too
    actions = {action.dest: action for action in parser._actions if action.dest not in ("config", "help")}
    defaults = {}
    for key, value in config.items():
        if key.startswith("family."):
            defaults.setdefault("family_param", []).append(f"{key.split('.', 1)[1]}={value}")
            continue
        dest = key.replace("-", "_").replace(".", "_")
        action = actions.get(dest)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if action.type is not None:
            # the same conversion the flag's command-line text goes through
            try:
                value = action.type(str(value))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"config key {key!r}: invalid value {value!r}") from err
        elif action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r}: expected true or false, got {value!r}")
        elif isinstance(action, argparse._AppendAction):
            if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
                raise ConfigError(f"config key {key!r}: expected a list of strings, got {value!r}")
            value = defaults.get(dest, []) + value  # keeps the family.* keys read before it
        elif not isinstance(value, str):
            raise ConfigError(f"config key {key!r}: expected a string, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        defaults[dest] = value
    return defaults


def _model_config(args, rank: int) -> ModelConfig:
    scaling = "rank_stabilized" if args.scaling == "rslora" else "standard"
    return ModelConfig(
        preset=args.preset,
        rank=rank,
        alpha=args.alpha,
        scaling_mode=scaling,
        head_mode=args.head,
        dropout=args.dropout,
        layernorm=args.layernorm,
        mode="full_training" if args.full else "lottalora",
        zero_scaffold=args.zero_scaffold,
        b_init=args.b_init,
    )


def _train_config(args, resample=TrainConfig.resample, resample_k=TrainConfig.resample_k) -> TrainConfig:
    return TrainConfig(
        lr=args.lr,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        epochs=args.epochs,
        resample=resample,
        resample_k=resample_k,
    )


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _write_manifest(out_dir: str, command: str, resolved: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": command, "resolved": resolved, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _task(model_cfg: ModelConfig, family: InitFamily, seed: int, train_cfg: TrainConfig, out_dir=None) -> dict:
    # the seed is checked here, so a grid refuses a bad one before any cell runs
    return {
        "model": asdict(model_cfg),
        "family": asdict(family),
        "seed": check_seed(seed),
        "train": asdict(train_cfg),
        "out_dir": out_dir,
    }


# -- runs and grids -----------------------------------------------------------------


def _train_task(task: dict, datasets) -> RunMetrics:
    """Train one flat task dict; writes metrics.csv and summary.json to its
    out_dir when it has one."""
    cfg = ModelConfig(**task["model"])
    spec = BackboneSpec.from_config(cfg, task["seed"], InitFamily.from_dict(task["family"]))
    metrics = train_run(cfg, spec, TrainConfig(**task["train"]), *datasets)
    out_dir = task.get("out_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(metrics, os.path.join(out_dir, "metrics.csv"))
        _write_json(os.path.join(out_dir, "summary.json"), {"task": task, **metrics.summary()})
    return metrics


@functools.lru_cache(maxsize=1)
def _worker_datasets(data_dir: str):
    return load_mnist(data_dir)


def run_single(task: dict, data_dir: str) -> dict:
    """One grid cell, run in a pool worker.  A cell that raises a LottaError
    is reported as failed instead of aborting the grid; a data error is not
    a cell failure and propagates."""
    datasets = _worker_datasets(data_dir)
    try:
        metrics = _train_task(task, datasets)
    except DataError:
        raise
    except LottaError as err:
        return {"task": task, "status": f"failed:{err.category}", "message": str(err)}
    return {"task": task, "status": "ok", **metrics.summary()}


def run_grid(tasks: list[dict], jobs: int, data_dir: str) -> list[dict]:
    """Run a task grid in up to ``jobs`` spawned processes, one cell per
    worker call; results in task order.  ``jobs`` below 1 is a ConfigError.

    Every cell runs in a worker with single-threaded BLAS, whatever
    ``jobs`` is, so a grid's numbers do not depend on it and parallel
    workers do not oversubscribe each other.  Workers are spawned, so a
    script that calls this needs the ``if __name__ == "__main__"`` guard.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    saved = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        saved[var] = os.environ.get(var)
        os.environ[var] = "1"
    try:
        with ProcessPoolExecutor(
            max_workers=max(1, min(jobs, len(tasks))), mp_context=get_context("spawn"),
        ) as pool:
            return list(pool.map(run_single, tasks, [data_dir] * len(tasks)))
    finally:
        for var, old in saved.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old


# -- commands ----------------------------------------------------------------------


def cmd_train(args) -> int:
    resample, k = _parse_resample(args.resample)
    task = _task(_model_config(args, args.rank), _resolve_family(args, args.family), args.seed,
                 _train_config(args, resample, k), out_dir=args.out_dir)
    metrics = _train_task(task, load_mnist(_resolve_data_dir(args)))
    _write_manifest(args.out_dir, "train", task)
    # a resampled run ends on its last redraw, but the artifact carries the
    # seed's build-time scaffold, so only a static run's test numbers are
    # reproducible from the artifact and recorded for ``verify``
    extra = {}
    if resample == "static":
        extra = {"final_test_accuracy": metrics.final_test_accuracy, "final_test_loss": metrics.final_test_loss}
    blob = artifact_mod.pack(metrics.model, extra=extra)
    artifact_mod.save(os.path.join(args.out_dir, "model.ltlr"), blob)
    print(json.dumps({"final_test_accuracy": metrics.final_test_accuracy, "out_dir": args.out_dir}))
    return 0


def cmd_grid(args) -> int:
    """families x schedules x ranks x seeds; ``sweep`` and ``metalora``
    differ only in their defaults."""
    families = [_resolve_family(args, name) for name in (args.families or args.family).split(",")]
    tasks, keys = [], []
    for family in families:
        for schedule in args.schedules.split(","):
            kind, k = _parse_resample(schedule)
            train_cfg = _train_config(args, kind, k)
            # run dirs and table keys name the parsed schedule: batch:2 and batch:02 are one cell
            name = {"per_epoch": "epoch", "per_batch": f"batch{k}", "microbatch": f"micro{k}"}.get(kind, kind)
            for rank in args.ranks:
                model_cfg = _model_config(args, rank)
                key = f"{family.name}_{name}_r{rank}" if len(families) > 1 else f"{name}_r{rank}"
                for seed in args.seeds:
                    run_dir = os.path.join(args.out_dir, "runs", f"{args.preset}_{family.name}_r{rank}_s{seed}_{name}")
                    if any(task["out_dir"] == run_dir for task in tasks):
                        raise ConfigError(f"the grid names run dir {run_dir} twice: a family, schedule, "
                                          "rank or seed is repeated")
                    tasks.append(_task(model_cfg, family, seed, train_cfg, out_dir=run_dir))
                    keys.append(key)
    results = run_grid(tasks, args.jobs, _resolve_data_dir(args))
    _write_manifest(args.out_dir, args.command, {"tasks": tasks})
    summary_path = os.path.join(args.out_dir, f"{args.command}_summary.json")
    _write_json(summary_path, results)
    table = {}
    for key, r in zip(keys, results):
        if r["status"] == "ok":
            table.setdefault(key, []).append(r["final_test_accuracy"])
    print(json.dumps({k: float(np.mean(v)) for k, v in table.items()}, indent=2, sort_keys=True))
    failed = sum(r["status"] != "ok" for r in results)
    if failed:
        raise RunError(f"{failed} of {len(results)} grid cells failed; see {summary_path}")
    return 0


def cmd_seedgate(args) -> int:
    groups = [{_parse_int(d, "--groups") for d in g.split(",")} for g in args.groups.split(";")]
    partition = make_partition(groups, args.seeds, ooc_mode=args.ooc)
    model_cfg = _model_config(args, args.rank)
    train_cfg = _train_config(args)
    train_ds, test_ds = load_mnist(_resolve_data_dir(args))
    result = seed_gated_train(partition, model_cfg, train_cfg, train_ds, test_ds,
                              family=_resolve_family(args, args.family))
    payload = {
        "groups": [sorted(g) for g in groups],
        "seeds": args.seeds,
        "ooc_mode": args.ooc,
        "assigned_accuracy": result.assigned_accuracy,
        "non_assigned_accuracy": result.non_assigned_accuracy,
        "ooc_digit0_rate": result.ooc_digit0_rate,
        "confusion": [c.tolist() for c in result.confusion],
    }
    _write_manifest(args.out_dir, "seedgate", {
        "model": asdict(model_cfg), "train": asdict(train_cfg),
        "groups": [sorted(g) for g in groups], "seeds": args.seeds, "ooc": args.ooc,
    })
    _write_json(os.path.join(args.out_dir, "seedgate.json"), payload)
    print(json.dumps({k: payload[k] for k in ("assigned_accuracy", "non_assigned_accuracy", "ooc_digit0_rate")},
                     indent=2))
    return 0


def cmd_pack(args) -> int:
    cfg = _model_config(args, args.rank)
    model = build_model(cfg, BackboneSpec.from_config(cfg, args.seed, _resolve_family(args, args.family)))
    blob = artifact_mod.pack(model)
    artifact_mod.save(args.output, blob)
    print(json.dumps({"written": args.output, "bytes": len(blob)}))
    return 0


def cmd_unpack(args) -> int:
    blob = artifact_mod.load(args.artifact)
    header, tensors, sizes = artifact_mod.read(blob)
    print(json.dumps({
        "header": header,
        "tensors": {k: list(v.shape) for k, v in tensors.items()},
        **sizes,
    }, indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    data_dir = _resolve_data_dir(args)
    header, tensors = artifact_mod.unpack(artifact_mod.load(args.artifact))
    recorded = header.get("extra", {}).get("final_test_accuracy")
    if recorded is not None and not real(recorded):
        raise FormatError(f"recorded final_test_accuracy is not a number: {recorded!r}")
    model = artifact_mod.reconstruct(header, tensors)
    _, test_ds = load_mnist(data_dir)
    loss, acc = evaluate(model, test_ds)
    if recorded is not None and acc != recorded:
        raise IntegrityError(
            f"reconstructed accuracy {acc} differs from recorded {recorded}"
        )
    print(json.dumps({"test_accuracy": acc, "test_loss": loss, "recorded": recorded, "verified": recorded is not None}))
    return 0


def cmd_cost(args) -> int:
    if args.arch not in ARCHS:
        raise ConfigError(f"unknown arch {args.arch!r}; expected one of {sorted(ARCHS)}")
    d = cost_report(ARCHS[args.arch], args.rank, m_tokens=args.tokens)
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
    table = _read_json(args.losses, "loss table")
    losses = {}
    for key, value in table.items():
        rank = _parse_int(key, f"loss table {args.losses}: rank")
        if rank in losses:
            raise ConfigError(f"loss table {args.losses}: rank {rank} is named twice")
        losses[rank] = value
    print(json.dumps({"rank_star": rank_star(losses, args.full, args.eps)}))
    return 0


def cmd_betastats(args) -> int:
    collected = []
    for path in args.summaries:
        payload = _read_json(path, "summary file", (dict, list))
        runs = payload if isinstance(payload, list) else [payload]
        for run in runs:
            if not isinstance(run, dict):
                raise ConfigError(f"summary file {path}: a run must be a JSON object, got {type(run).__name__}")
            if run.get("final_betas") is not None:
                collected.append(run["final_betas"])
    stats = beta_summary(collected)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


# -- parser -------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser, rank: bool = True):
    p.add_argument("--preset", default=ModelConfig.preset, choices=list(PRESETS))
    if rank:
        p.add_argument("--rank", type=int, default=ModelConfig.rank)
    p.add_argument("--alpha", type=float, default=ModelConfig.alpha)
    p.add_argument("--scaling", default="standard", choices=["standard", "rslora"])
    p.add_argument("--family", default=BackboneSpec(seed=0).family.name)
    p.add_argument("--family-param", action="append", metavar="K=V")
    p.add_argument("--family-scaling", default=None, choices=SCALINGS)
    p.add_argument("--head", default=ModelConfig.head_mode, choices=HEAD_MODES)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--layernorm", action="store_true")
    p.add_argument("--full", action="store_true", help="fully trained baseline (no frozen backbone)")
    p.add_argument("--zero-scaffold", action="store_true")
    p.add_argument("--b-init", default=ModelConfig.b_init, choices=B_INITS,
                   help="adapter B init; use kaiming with --zero-scaffold")
    p.add_argument("--config", default=None, help="flat JSON config; flags override")


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--out-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lottalora")
    # no abbreviations: a removed flag such as sweep's --seed must not
    # silently turn into a prefix match (--seeds)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("train", help="one training run; writes metrics, summary, artifact")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--resample", default="static", help="static|epoch|batch:k|micro:k")
    p.set_defaults(func=cmd_train, _parser=p)

    for name, help_text, schedules, ranks in (
        ("sweep", "family x rank x seed grid", "static", "8"),
        ("metalora", "scaffold resampling schedule grid", "static,epoch,batch:2,micro:4", "2,4,8"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_model_flags(p, rank=False)
        _add_train_flags(p)
        p.add_argument("--families", default=None, help="comma list; default: --family")
        p.add_argument("--schedules", default=schedules, help="comma list of static|epoch|batch:k|micro:k")
        p.add_argument("--ranks", type=_int_list, default=ranks)
        p.add_argument("--seeds", type=_int_list, default="42")
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(func=cmd_grid, _parser=p)

    p = sub.add_parser("seedgate", help="shared adapter across label partitions")
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--groups", default="1,2,3;4,5,6;7,8,9")
    p.add_argument("--seeds", type=_int_list, default="42,43,44")
    p.add_argument("--ooc", action="store_true")
    p.set_defaults(func=cmd_seedgate, _parser=p)

    p = sub.add_parser("pack", help="pack a fresh (untrained) model from flags")
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default="model.ltlr")
    p.set_defaults(func=cmd_pack, _parser=p)

    p = sub.add_parser("unpack", help="print an artifact's header, tensor shapes, format version and sizes")
    p.add_argument("artifact")
    p.set_defaults(func=cmd_unpack)

    p = sub.add_parser("verify", help="reconstruct an artifact and re-evaluate")
    p.add_argument("artifact")
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cost", help="closed-form cost analytics")
    p.add_argument("--arch", default="900M")
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--tokens", type=float, default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("rankstar", help="minimum sufficient rank from a loss table")
    p.add_argument("--losses", required=True,
                   help="JSON file mapping rank -> loss; use test error (1 - accuracy): the test loss of "
                        "the best-val model is not monotone in rank and can name a rank below rank*")
    p.add_argument("--full", type=float, required=True,
                   help="the fully trained run's value in the table's units (its test error)")
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_rankstar)

    p = sub.add_parser("betastats", help="aggregate backbone-gain stats from run summaries")
    p.add_argument("summaries", nargs="+")
    p.set_defaults(func=cmd_betastats)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # file values become the subcommand's defaults, so every flag
            # given on the command line wins over them
            args._parser.set_defaults(**_config_defaults(args._parser, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except LottaError as err:
        print(json.dumps({"error": err.category, "message": str(err)}), file=sys.stderr)
        return EXIT_CODES.get(err.category, 1)
    except OSError as err:
        print(json.dumps({"error": "data", "message": str(err)}), file=sys.stderr)
        return EXIT_CODES["data"]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
