"""Command line entry point: gen / pretrain / finetune / evaluate / gradcheck.

Exit codes: 0 success, 1 check failure, 2 configuration or input error,
3 runtime numeric failure. Every command takes --config (JSON file whose
keys mirror the flag names, each checked against the command's flags and
their types); explicit flags win over the file, the file wins over the
defaults declared with each flag. The fully resolved configuration is echoed
into the run directory as config.json.

Datasets are split 80/10/10 into train/val/test by user (first-appearance
order), never by window, so overlapping windows of one user cannot leak
across splits. `finetune` on the train split scores the val split after
each epoch.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import synth
from .errors import (
    ConfigError,
    ContractError,
    IntegrityError,
    NumericError,
    SchemaError,
    UnsupportedVersionError,
)
from .masking import MaskConfig
from .model import ModelConfig, param_specs
from .schema import (
    CsvColumns,
    FeatureSchema,
    Windows,
    group_rows_by_user,
    infer_schema,
    load_roles,
    make_windows,
    read_columns,
    split_users,
)
# re-exported for callers that look it up here: the benchmark tracer wraps cli.read_csv
from .schema import read_csv  # noqa: F401
from .synth import SynthConfig
from .tensor import use_dtype, grad_check
from .training import (
    Checkpoint,
    TrainConfig,
    evaluate,
    finetune,
    load_checkpoint,
    masked_batch,
    mdm_loss,
    pretrain,
    save_checkpoint,
)

# glibc <malloc.h> parameters: bytes kept mapped above the top of the heap when it is trimmed,
# and the most malloc arenas threads may spread over
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 16 << 20
_M_ARENA_MAX = -8

# Errors of the input a command was given; any other exception is a bug and escapes with a traceback
_CONFIG_ERRORS = (ConfigError, SchemaError, ContractError, IntegrityError,
                  UnsupportedVersionError, FileNotFoundError, IsADirectoryError, NotADirectoryError)

# The user splits --split names: split_users' three in its order, then every user
_SPLITS = ("train", "val", "test", "all")


def _options(command: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The flags of a command that a config file may set and config.json echoes, by key."""
    return {a.dest: a for a in command._actions if a.option_strings and a.dest not in ("help", "config")}


def _check_config_entry(path: str, key: str, value, actions: dict) -> None:
    """ConfigError naming `path` and `key` unless the command has that flag and `value` fits it.

    A flag of type int takes a JSON integer, one of type float any JSON
    number, and any other flag a string (one of its choices, if it has them);
    true and false are not numbers. null is taken only where the flag's
    default is null.
    """
    if key not in actions:
        raise ConfigError(f"{path}: unknown key {key!r} for this command")
    action = actions[key]
    if value is None and action.default is None:
        return
    if action.type is int:
        ok, wanted = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        ok, wanted = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, wanted = isinstance(value, str), "a string"
    if ok and action.choices is not None and value not in action.choices:
        ok, wanted = False, f"one of {list(action.choices)}"
    if not ok:
        raise ConfigError(f"{path}: {key!r} must be {wanted}, got {json.dumps(value)}")


def _config_entries(path: str, command: argparse.ArgumentParser) -> dict:
    """The entries of the JSON config file `path`, each checked against the flags of `command`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{path}: config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    actions = _options(command)
    for key, value in cfg.items():
        _check_config_entry(path, key, value, actions)
    return cfg


def _echo_config(out_dir: Path, args: argparse.Namespace) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump({"command": args.command,
                   **{key: getattr(args, key) for key in _options(args.command_parser)}}, fh, indent=2)


def _out_dir(path: str) -> Path:
    """The run directory, refused before any input is read if it or a parent is a file."""
    out = Path(path)
    for at in (out, *out.parents):
        if at.exists():
            if not at.is_dir():
                raise ConfigError(f"--out {out}: {at} exists and is not a directory")
            break
    return out


def _write_metrics(out_dir: Path, records: list[dict]) -> None:
    with open(out_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _write_run(out: Path, args: argparse.Namespace, schema: FeatureSchema, ckpt: Checkpoint,
               records: list[dict]) -> None:
    """The run directory of a training command: schema, checkpoint, metrics and config echo."""
    out.mkdir(parents=True, exist_ok=True)
    schema.save(out / "schema.json")
    save_checkpoint(ckpt, out / "ckpt.bin")
    _write_metrics(out, records)
    _echo_config(out, args)


def _split_user_sets(log: CsvColumns, splits: list[str]) -> list[set[str]]:
    """The users of each named split (one of _SPLITS)."""
    named = dict(zip(_SPLITS, (*split_users(log.users), log.users)))
    return [set(named[split]) for split in splits]


def _windows_for_users(log: CsvColumns, schema: FeatureSchema, user_sets: list[set[str]],
                       window: int, stride: int, mode: str) -> list[Windows]:
    """Windows of each disjoint user set, encoded together in one pass over their rows."""
    grouped = group_rows_by_user(log.header, log, schema, users=set().union(*user_sets))
    windows = make_windows(schema, log.header, grouped, window=window, stride=stride, mode=mode)
    in_set = [np.array([u in users for u in windows.user_names], dtype=bool) for users in user_sets]
    return [windows[user_in_set[windows.user_codes]] for user_in_set in in_set]


def _read_windows(path: Path, schema: FeatureSchema, splits: list[str], window: int, stride: int,
                  mode: str) -> list[Windows]:
    """Windows of each named user split from one streamed read of `path`."""
    log = read_columns(path, schema=schema)
    return _windows_for_users(log, schema, _split_user_sets(log, splits), window, stride, mode)


def _check_input_flags(args: argparse.Namespace) -> None:
    """Refuse a missing --data, and a --window or --stride below 1, before any input is read."""
    if args.data is None:
        raise ConfigError("--data is required")
    for name in ("window", "stride"):
        if getattr(args, name) < 1:
            raise ConfigError(f"{name} (--{name}) must be >= 1, got {getattr(args, name)}")


def _require_windows(samples: Windows, split: str, window: int) -> None:
    if not samples:
        raise ConfigError(f"the {split} split yields no window: none of its users has "
                          f"--window {window} rows")


def _pretrain_windows(path: Path, roles: dict, split: str, window: int,
                      stride: int) -> tuple[FeatureSchema, Windows]:
    """The schema of a user split and its pretraining windows, from one streamed read of `path`."""
    log = read_columns(path, roles=roles)
    user_sets = _split_user_sets(log, [split])
    schema = infer_schema(path, roles, include_users=user_sets[0], parsed=log)
    (samples,) = _windows_for_users(log, schema, user_sets, window, stride, "pretrain")
    return schema, samples


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    scfg = SynthConfig(
        n_users=args.users, rows_per_user=args.rows, fraud_rate=args.fraud_rate,
        label_noise=args.noise, seed=args.seed, n_merchants=args.merchants,
        n_categories=args.categories, n_cities=args.cities,
        amount_mu=args.amount_mu, amount_sigma=args.amount_sigma,
    )
    out = Path(args.out)
    csv_path, manifest_path = synth.generate(scfg, out)
    _echo_config(out, args)
    print(f"wrote {csv_path} and {manifest_path}")
    return 0


def _model_config(args) -> ModelConfig:
    return ModelConfig(d_model=args.d_model, n_heads=args.heads, kernel_size=args.kernel,
                       n_blocks=args.blocks, ffn_mult=args.ffn_mult, dropout=args.dropout)


def cmd_pretrain(args) -> int:
    _check_input_flags(args)
    if args.p_field == 0 and args.p_row == 0:
        raise ConfigError("--p-field 0 and --p-row 0 leave the reconstruction loss without targets")
    if args.mask_seed is None:
        args.mask_seed = args.seed
    mcfg = _model_config(args)
    tcfg = TrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                       learning_rate=args.lr, seed=args.seed, mode="pretrain")
    mask_cfg = MaskConfig(p_field=args.p_field, p_row=args.p_row, seed=args.mask_seed)
    out = _out_dir(args.out)
    data = Path(args.data)
    roles_path = Path(args.roles) if args.roles else data.parent / "roles.json"
    schema, samples = _pretrain_windows(data, load_roles(roles_path), args.split, args.window,
                                        args.stride)
    _require_windows(samples, args.split, args.window)
    ckpt, records = pretrain(samples, schema, mcfg, tcfg, mask_cfg)
    _write_run(out, args, schema, ckpt, records)
    last = records[-1] if records else {"loss": float("nan")}
    print(f"pretrained on {len(samples)} windows; final epoch: {json.dumps(last)}")
    return 0


def _load_ckpt_and_schema(args) -> tuple[Checkpoint, FeatureSchema]:
    if args.ckpt is None:
        raise ConfigError("--ckpt is required")
    ckpt_path = Path(args.ckpt)
    ckpt = load_checkpoint(ckpt_path)
    schema_path = Path(args.schema) if args.schema else ckpt_path.parent / "schema.json"
    schema = FeatureSchema.load(schema_path)
    if ckpt.schema_digest != schema.digest():
        raise ConfigError(
            f"schema digest mismatch: checkpoint {ckpt.schema_digest[:12]}... vs "
            f"{schema_path} {schema.digest()[:12]}..."
        )
    # a re-signed file can hold any parameters; they must be exactly those its model is built from
    head = "classify" if "clf.w" in ckpt.params else "pretrain"
    expected = {name: shape for name, (shape, _) in param_specs(schema, ckpt.model_config, head).items()}
    if {name: a.shape for name, a in ckpt.params.items()} != expected:
        raise IntegrityError(f"{ckpt_path}: parameters do not match the {head} model of its "
                             f"model_config and schema")
    return ckpt, schema


def cmd_finetune(args) -> int:
    _check_input_flags(args)
    tcfg = TrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                       learning_rate=args.lr, seed=args.seed, mode=args.mode)
    out = _out_dir(args.out)
    ckpt, schema = _load_ckpt_and_schema(args)
    # on the train split, the val split's windows are scored after each epoch
    splits = [args.split, "val"] if args.split == "train" else [args.split]
    samples, *val = _read_windows(Path(args.data), schema, splits, args.window,
                                  args.stride, "downstream")
    _require_windows(samples, args.split, args.window)
    val_samples = val[0] if val else None
    tuned, records = finetune(ckpt, samples, schema, tcfg, val_samples=val_samples)
    _write_run(out, args, schema, tuned, records)
    last = records[-1] if records else {}
    validated = f", validating on {len(val_samples)}" if val_samples else ""
    print(f"finetuned ({args.mode}) on {len(samples)} windows{validated}; "
          f"final epoch: {json.dumps(last)}")
    return 0


def cmd_evaluate(args) -> int:
    _check_input_flags(args)
    out = _out_dir(args.out) if args.out else None
    ckpt, schema = _load_ckpt_and_schema(args)
    (samples,) = _read_windows(Path(args.data), schema, [args.split], args.window,
                               args.stride, "downstream")
    _require_windows(samples, args.split, args.window)
    result = evaluate(ckpt, samples, schema)
    print(f"F1 {result['f1']:.4f} precision {result['precision']:.4f} "
          f"recall {result['recall']:.4f} AUROC {result['auroc']:.4f} "
          f"(n={result['n']}, positives={result['positives']})")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_metrics(out, [result])
        _echo_config(out, args)
    return 0


def build_gradcheck_problem(seed: int):
    """Tiny end-to-end reconstruction loss on synthetic data, for checking."""
    from .model import forward_mdm, init_params

    with tempfile.TemporaryDirectory() as tmp:
        # labels are irrelevant to the reconstruction loss; rate 0 keeps tiny
        # datasets from tripping the reachability check
        scfg = SynthConfig(n_users=3, rows_per_user=12, fraud_rate=0.0,
                           label_noise=0.0, seed=seed, n_merchants=6,
                           n_categories=4, n_cities=4)
        csv_path, _ = synth.generate(scfg, tmp)
        roles = synth.default_roles()
        log = read_columns(csv_path, roles=roles)
        schema = infer_schema(csv_path, roles, parsed=log)
        grouped = group_rows_by_user(log.header, log, schema)
        samples = make_windows(schema, log.header, grouped, window=6, stride=6,
                               mode="pretrain", float_dtype=np.float64)
    mcfg = ModelConfig(d_model=12, n_heads=2, kernel_size=3, n_blocks=1,
                       ffn_mult=2, dropout=0.0)
    mask_cfg = MaskConfig(p_field=0.3, p_row=0.15, seed=seed)
    batch = masked_batch(samples[:2], schema, mask_cfg, epoch=0, sample_indices=[0, 1])
    params = init_params(schema, mcfg, seed=seed, head="pretrain")

    def build_loss(p):
        preds, reg = forward_mdm(batch, p, mcfg, schema, dropout_rng=None)
        return mdm_loss(preds, batch, reg, schema)

    return build_loss, params


def cmd_gradcheck(args) -> int:
    with use_dtype("float64"):
        build_loss, params = build_gradcheck_problem(args.seed)
        report = grad_check(build_loss, params, h=args.h, tol=args.tol,
                            max_coords=args.max_coords, seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Every flag with its default: the dataclass field's where the flag feeds a library config."""
    parser = argparse.ArgumentParser(
        prog="tabaconv",
        description="Tabular time-series pretraining and fraud classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic labeled transaction CSV")
    gen.add_argument("--config", help="JSON config file (flags override it)")
    gen.add_argument("--users", type=int, default=SynthConfig.n_users, help="number of users")
    gen.add_argument("--rows", type=int, default=SynthConfig.rows_per_user, help="rows per user")
    gen.add_argument("--fraud-rate", type=float, default=SynthConfig.fraud_rate,
                     help="target rule rate (pre-noise)")
    gen.add_argument("--noise", type=float, default=SynthConfig.label_noise,
                     help="label flip probability")
    gen.add_argument("--seed", type=int, default=SynthConfig.seed, help="generator seed")
    gen.add_argument("--merchants", type=int, default=SynthConfig.n_merchants,
                     help="merchant vocabulary size")
    gen.add_argument("--categories", type=int, default=SynthConfig.n_categories,
                     help="category vocabulary size")
    gen.add_argument("--cities", type=int, default=SynthConfig.n_cities, help="city vocabulary size")
    gen.add_argument("--amount-mu", type=float, default=SynthConfig.amount_mu,
                     help="log-amount mean")
    gen.add_argument("--amount-sigma", type=float, default=SynthConfig.amount_sigma,
                     help="log-amount std")
    gen.add_argument("--out", default="data", help="output directory")
    gen.set_defaults(func=cmd_gen)

    pre = sub.add_parser("pretrain", help="infer schema, window the data, run reconstruction pretraining")
    pre.add_argument("--config")
    pre.add_argument("--data", help="input CSV")
    pre.add_argument("--roles", help="role config JSON (default: roles.json next to the data)")
    pre.add_argument("--out", default="runs/pretrain", help="run directory")
    pre.add_argument("--split", choices=_SPLITS, default="train", help="user split to train on")
    pre.add_argument("--window", type=int, default=10, help="window length")
    pre.add_argument("--stride", type=int, default=5, help="window stride")
    pre.add_argument("--p-field", type=float, default=MaskConfig.p_field, help="field mask probability")
    pre.add_argument("--p-row", type=float, default=MaskConfig.p_row, help="row mask probability")
    pre.add_argument("--mask-seed", type=int, help="masking seed")  # default: --seed
    pre.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    pre.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    pre.add_argument("--lr", type=float, default=TrainConfig.learning_rate, help="learning rate")
    pre.add_argument("--seed", type=int, default=TrainConfig.seed, help="training/init seed")
    pre.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    pre.add_argument("--heads", type=int, default=ModelConfig.n_heads)
    pre.add_argument("--kernel", type=int, default=ModelConfig.kernel_size,
                     help="conv kernel size (odd)")
    pre.add_argument("--blocks", type=int, default=ModelConfig.n_blocks, help="encoder blocks")
    pre.add_argument("--ffn-mult", type=int, default=ModelConfig.ffn_mult)
    pre.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    pre.set_defaults(func=cmd_pretrain)

    fin = sub.add_parser("finetune", help="train the binary classifier from a checkpoint (or scratch)")
    fin.add_argument("--config")
    fin.add_argument("--ckpt", help="pretraining checkpoint")
    fin.add_argument("--data", help="labeled CSV")
    fin.add_argument("--schema", help="schema JSON (default: schema.json next to the checkpoint)")
    fin.add_argument("--out", default="runs/finetune", help="run directory")
    fin.add_argument("--split", choices=_SPLITS, default="train")
    fin.add_argument("--mode", choices=["finetune", "scratch"], default="finetune")
    fin.add_argument("--window", type=int, default=10)
    fin.add_argument("--stride", type=int, default=10)
    fin.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    fin.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    fin.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    fin.add_argument("--seed", type=int, default=TrainConfig.seed)
    fin.set_defaults(func=cmd_finetune)

    ev = sub.add_parser("evaluate", help="report F1/precision/recall on a user split")
    ev.add_argument("--config")
    ev.add_argument("--ckpt", help="finetuned checkpoint")
    ev.add_argument("--data", help="labeled CSV")
    ev.add_argument("--schema", help="schema JSON (default: schema.json next to the checkpoint)")
    ev.add_argument("--out", help="optional directory for a metrics record")
    ev.add_argument("--split", choices=_SPLITS, default="test")
    ev.add_argument("--window", type=int, default=10)
    ev.add_argument("--stride", type=int, default=10)
    ev.set_defaults(func=cmd_evaluate)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the whole model (float64)")
    gc.add_argument("--config")
    gc.add_argument("--tol", type=float, default=1e-4, help="max relative error")
    gc.add_argument("--h", type=float, default=1e-5, help="finite difference step")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--max-coords", type=int, default=64, help="coordinates checked per parameter")
    gc.set_defaults(func=cmd_gradcheck)

    for command in sub.choices.values():  # the parser whose defaults a config file replaces
        command.set_defaults(command_parser=command)
    return parser


def _pad_heap_top() -> None:
    """Keep 16 MiB mapped above the heap top and every thread on one malloc arena,
    through glibc `mallopt`; a no-op without it.

    A training step frees its activations at the top of the heap. With
    glibc's default pad they are trimmed off after every step and the next
    forward faults them back in: tens of thousands of minor page faults per
    pretraining epoch, a count that shifts with the heap layout. Results do
    not change. A 4 MiB pad did not remove the faults; 64 MiB removed no more.

    The scoring threads of `predict_proba` would each get an arena of their
    own, whose pages add to the peak RSS; with one arena they reuse the
    main heap's freed blocks.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _pad_heap_top()
    try:
        if args.config is not None:
            # the file's entries replace the declared defaults; parsing again lets explicit flags win
            args.command_parser.set_defaults(**_config_entries(args.config, args.command_parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
