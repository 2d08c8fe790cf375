"""tabaconv benchmark: drives the `tabaconv` commands in-process and reports JSON.

    python3 benchmarks/run.py --workload pretrain --seed 0 --seconds 20 --trace 0

Workloads (see benchmarks/README.md for why each exists):

  pretrain  gen 200 users x 200 rows, then timed `tabaconv pretrain --epochs 1`
  finetune  same log; set-up `pretrain --epochs 0`; timed
            `tabaconv finetune --mode finetune --epochs 1`
  score     set-up trains a classifier on an 80 x 100 log, generates a
            500 x 100 log from another seed; timed `tabaconv evaluate --split all`

One client, one process, closed loop: set-up runs N_SETUPS times in a child
interpreter (prepare.py), then the timed command is issued again and again,
each after the previous one returned, until --seconds have passed. Every
command's output is checked. `--trace 0` prints the end-to-end metrics;
`--trace 1` alternates untraced and traced commands and prints the
per-layer metrics of the traced ones (tracer.py). The last stdout line is
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
run manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracer  # benchmarks/tracer.py; imports no tabaconv module until it is entered

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

N_SETUPS = 3  # set-ups per run; setup_s is their median
SETUP_TIMEOUT_S = 120
FRAUD_RATE, NOISE = "0.05", "0.05"
BIG_LOG_SEED_OFFSET = 100_000  # the score log comes from another generator seed
PRETRAIN_WINDOW, PRETRAIN_STRIDE = 10, 5  # tabaconv pretrain defaults
DOWNSTREAM_WINDOW, DOWNSTREAM_STRIDE = 10, 10  # tabaconv finetune/evaluate defaults
# One BLAS thread: a second one burns ~0.7 of a core on pretrain for no wall-time gain and
# doubles the exposure to other tenants, which made run-to-run spread about twice as wide.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (users, rows per user) of each generated log.
SIZES = {
    "full": {"log": (200, 200), "small": (80, 100), "big": (500, 100)},
    "tiny": {"log": (20, 40), "small": (20, 40), "big": (30, 40)},
}

END_TO_END_UNITS = {"setup_s": "s", "windows_per_s": "windows/s", "peak_rss_mb": "MiB",
                    "loss": "nats"}
PER_LAYER_UNITS = {**tracer.metric_units(), "synth.generate.s": "s",
                   "process.cpu_wall_ratio": "ratio", "trace.overhead_s": "s"}


@dataclass
class Command:
    """One `tabaconv` invocation plus what the benchmark expects of its output."""

    argv: list[str]
    out: Path                      # directory (gen: data dir) the command writes
    data: Path | None = None       # CSV it reads
    split: str = "train"
    window: int = DOWNSTREAM_WINDOW
    stride: int = DOWNSTREAM_STRIDE
    epochs: int = 0
    rows: int = 0                  # gen: rows it must write

    @property
    def kind(self) -> str:
        return self.argv[0]


def gen(users: int, rows: int, seed: int, out: Path) -> Command:
    return Command(["gen", "--users", str(users), "--rows", str(rows), "--fraud-rate", FRAUD_RATE,
                    "--noise", NOISE, "--seed", str(seed), "--out", str(out)],
                   out, rows=users * rows)


def pretrain(data: Path, out: Path, epochs: int) -> Command:
    return Command(["pretrain", "--data", str(data), "--epochs", str(epochs), "--out", str(out)],
                   out, data, window=PRETRAIN_WINDOW, stride=PRETRAIN_STRIDE, epochs=epochs)


def finetune(ckpt_dir: Path, data: Path, out: Path, epochs: int) -> Command:
    return Command(["finetune", "--ckpt", str(ckpt_dir / "ckpt.bin"), "--data", str(data),
                    "--mode", "finetune", "--epochs", str(epochs), "--out", str(out)],
                   out, data, epochs=epochs)


def evaluate(ckpt_dir: Path, data: Path, out: Path, split: str) -> Command:
    return Command(["evaluate", "--ckpt", str(ckpt_dir / "ckpt.bin"), "--schema",
                    str(ckpt_dir / "schema.json"), "--data", str(data), "--split", split,
                    "--out", str(out)], out, data, split=split)


@dataclass
class Plan:
    setup: list[Command]
    timed: Callable[[Path], Command]  # the timed command, writing into the given directory
    loss_from: Path | None  # set-up run dir whose metrics.jsonl gives `loss`; None: the timed command
    info: Callable[[Path, Path], Command] | None = None  # untimed follow-up on the last timed run


def plan_for(workload: str, seed: int, size: str, base: Path) -> Plan:
    sizes = SIZES[size]
    if workload == "pretrain":
        log = base / "log" / "transactions.csv"
        return Plan([gen(*sizes["log"], seed, log.parent)],
                    lambda out: pretrain(log, out, epochs=1), None)
    if workload == "finetune":
        log = base / "log" / "transactions.csv"
        return Plan([gen(*sizes["log"], seed, log.parent), pretrain(log, base / "pre", epochs=0)],
                    lambda out: finetune(base / "pre", log, out, epochs=1), None,
                    info=lambda run, out: evaluate(run, log, out, "test"))
    if workload == "score":
        small = base / "small" / "transactions.csv"
        big = base / "big" / "transactions.csv"
        return Plan([gen(*sizes["small"], seed, small.parent),
                     pretrain(small, base / "pre", epochs=0),
                     finetune(base / "pre", small, base / "clf", epochs=1),
                     gen(*sizes["big"], seed + BIG_LOG_SEED_OFFSET, big.parent)],
                    lambda out: evaluate(base / "clf", big, out, "all"), base / "clf")
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks command outputs against counts the benchmark makes from the CSV itself."""

    def __init__(self, window_count, load_checkpoint):
        self.window_count = window_count  # tabaconv.schema.window_count
        self.load_checkpoint = load_checkpoint  # tabaconv.training.load_checkpoint
        self._logs: dict[Path, dict[str, list[int]]] = {}

    def labels_by_user(self, data: Path) -> dict[str, list[int]]:
        """Each user's labels in timestamp order; users in first-appearance order."""
        if data not in self._logs:
            roles = json.loads((data.parent / "roles.json").read_text(encoding="utf-8"))
            kinds = roles["columns"]
            ts_col = next(c for c, k in kinds.items() if k == "timestamp")
            label_col = next(c for c, k in kinds.items() if k == "label")
            users: dict[str, list[tuple[int, int]]] = {}
            with open(data, encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                u, t, lab = header.index(roles["user"]), header.index(ts_col), header.index(label_col)
                for row in reader:
                    users.setdefault(row[u], []).append((int(row[t]), int(row[lab])))
            self._logs[data] = {user: [lab for _, lab in sorted(rows, key=lambda r: r[0])]
                                for user, rows in users.items()}
        return self._logs[data]

    def expected(self, cmd: Command) -> tuple[int, int]:
        """(windows, positive windows) the command must see on its user split."""
        users = self.labels_by_user(cmd.data)
        names = list(users)
        n_train, n_val = int(len(names) * 0.8), int(len(names) * 0.1)
        chosen = {"train": names[:n_train], "val": names[n_train:n_train + n_val],
                  "test": names[n_train + n_val:], "all": names}[cmd.split]
        windows = sum(self.window_count(len(users[u]), cmd.window, cmd.stride) for u in chosen)
        positives = sum(any(users[u][s:s + cmd.window])
                        for u in chosen
                        for s in range(0, len(users[u]) - cmd.window + 1, cmd.stride))
        return windows, positives

    def problems(self, cmd: Command, rc: int, stdout: str) -> list[str]:
        """Empty when the command's outputs are correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return self._problems(cmd, stdout)
        except Exception as exc:  # a missing or unreadable output is a failed check
            return [f"{type(exc).__name__}: {exc}"]

    def _problems(self, cmd: Command, stdout: str) -> list[str]:
        found = []
        if cmd.kind == "gen":
            with open(cmd.out / "transactions.csv", encoding="utf-8", newline="") as fh:
                n_rows = sum(1 for _ in csv.reader(fh)) - 1
            if n_rows != cmd.rows:
                found.append(f"gen wrote {n_rows} rows, expected {cmd.rows}")
            return found
        windows, positives = self.expected(cmd)
        if cmd.kind == "evaluate":
            record = read_records(cmd.out)[0]
            if (record["n"], record["positives"]) != (windows, positives):
                found.append(f"evaluate n={record['n']} positives={record['positives']}, "
                             f"expected {windows}/{positives}")
            if not 0.0 <= record["f1"] <= 1.0:
                found.append(f"evaluate f1 {record['f1']} outside [0, 1]")
            return found
        match = re.search(r" on (\d+) windows", stdout)
        if match is None or int(match.group(1)) != windows:
            found.append(f"{cmd.kind} reported {match and match.group(1)} windows, expected {windows}")
        records = read_records(cmd.out)
        if len(records) != cmd.epochs:
            found.append(f"{len(records)} epoch records, expected {cmd.epochs}")
        if not all(math.isfinite(r["loss"]) for r in records):
            found.append(f"non-finite loss in {[r['loss'] for r in records]}")
        self.load_checkpoint(cmd.out / "ckpt.bin")
        return found


def read_records(run_dir: Path) -> list[dict]:
    text = (run_dir / "metrics.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line]


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, cli, checker: Checker):
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def record(self, cmd: Command, rc: int, stdout: str) -> bool:
        self.attempted += 1
        problems = self.checker.problems(cmd, rc, stdout)
        if problems:
            self.failed += 1
            print(f"check failed: {' '.join(cmd.argv)}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def run(self, cmd: Command) -> tuple[bool, float, float]:
        """Run in-process; returns (outputs correct, wall seconds, CPU seconds)."""
        buf = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(cmd.argv)
        except Exception:  # a crash is a failed command, not a crashed benchmark
            traceback.print_exc()
            rc = -1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return self.record(cmd, rc, buf.getvalue()), wall, cpu

    def setup(self, plan: Plan, trace: bool) -> tuple[bool, float, float]:
        """Run the plan's set-up in a child interpreter; returns (ok, wall s, generate s)."""
        spec = {"commands": [c.argv for c in plan.setup], "trace": trace}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "prepare.py"), json.dumps(spec)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess([], -1, "", f"set-up took over {SETUP_TIMEOUT_S} s\n")
        wall = time.perf_counter() - start
        sys.stderr.write(proc.stderr)
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.attempted += 1
            self.failed += 1
            print(f"set-up child exited {proc.returncode} without a report", file=sys.stderr)
            return False, wall, 0.0
        ok = proc.returncode == 0 and len(report["commands"]) == len(plan.setup)
        for cmd, res in zip(plan.setup, report["commands"]):
            ok = self.record(cmd, res["rc"], res["stdout"]) and ok
        return ok, wall, report["generate_s"]


def run_workload(args, work: Path, runner: Runner) -> dict[str, float] | None:
    setup_walls, generate_s = [], []
    for i in range(N_SETUPS):
        plan = plan_for(args.workload, args.seed, args.size, work / f"setup{i}")
        ok, wall, gen_s = runner.setup(plan, bool(args.trace))
        if not ok:
            return None
        setup_walls.append(wall)
        generate_s.append(gen_s)

    template = plan.timed(work / "run")
    windows = runner.checker.expected(template)[0] * max(template.epochs, 1)
    csv_rows = sum(len(v) for v in runner.checker.labels_by_user(template.data).values())

    plain_walls, plain_cpu, rates, traced_walls, layer_runs = [], [], [], [], []
    peak_rss_mb = None
    reference = None
    last_out = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            cmd = plan.timed(work / f"run{i}")
            i += 1
            if traced:
                with tracer.Tracer() as spans:
                    ok, wall, cpu = runner.run(cmd)
                traced_walls.append(wall)
                layer_runs.append(tracer.summarise(spans, csv_rows))
            else:
                ok, wall, cpu = runner.run(cmd)
                print(f"{cmd.kind} #{i}: {wall:.3f} s wall, {cpu:.3f} s CPU", file=sys.stderr)
                plain_walls.append(wall)
                plain_cpu.append(cpu / wall)
                rates.append(windows / wall)
                if peak_rss_mb is None:  # imports plus one command, as in a fresh CLI process
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if ok:
                # every repeat, traced or not, must reproduce the first one's records exactly
                result = read_records(cmd.out)
                if reference is None:
                    reference = result
                elif result != reference:
                    runner.failed += 1
                    print(f"outcome of {cmd.out.name} differs from the first run: "
                          f"{result} vs {reference}", file=sys.stderr)
            if last_out is not None:
                shutil.rmtree(last_out, ignore_errors=True)
            last_out = cmd.out
        if time.perf_counter() >= deadline:
            break

    if reference is None:
        return None
    if plan.info is not None:
        report_info(plan.info(last_out, work / "info"), runner)

    if args.trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in tracer.metric_units()}
        metrics["synth.generate.s"] = statistics.median(generate_s)
        metrics["process.cpu_wall_ratio"] = statistics.median(plain_cpu)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        return metrics
    return {
        "setup_s": statistics.median(setup_walls),
        "windows_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb,
        "loss": read_records(plan.loss_from or last_out)[-1]["loss"],
    }


def report_info(cmd: Command, runner: Runner) -> None:
    """Test-split F1 of the fine-tuned classifier next to predicting every window positive."""
    ok, _, _ = runner.run(cmd)
    if not ok:
        return
    record = read_records(cmd.out)[0]
    n, pos = record["n"], record["positives"]
    print(f"info: finetune test F1 {record['f1']:.4f} vs all-positive F1 "
          f"{2 * pos / (pos + n):.4f} (n={n}, positives={pos})")


# ---------------------------------------------------------------------------
# manifest and entry point
# ---------------------------------------------------------------------------


def manifest(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # older numpy has no mode="dicts"
        blas = {"name": "unknown", "version": "unknown"}
    commit = None
    if (ROOT / ".git").exists():  # the benchmark may also run from an exported tree
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "log_seeds": [args.seed, args.seed + BIG_LOG_SEED_OFFSET],
        "n_setups": N_SETUPS, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "git_commit": commit,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pretrain", "finetune", "score"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads; set-up children inherit it
        os.environ.setdefault(var, "1")
    if not (SRC / "tabaconv" / "__init__.py").is_file():
        print(f"error: {SRC / 'tabaconv'} not found; run from a tabaconv source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from tabaconv import cli
    from tabaconv.schema import window_count
    from tabaconv.training import load_checkpoint

    runner = Runner(cli, Checker(window_count, load_checkpoint))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        metrics = run_workload(args, work, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = metrics is not None and runner.failed == 0
    print("manifest: " + json.dumps(manifest(args, np)))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        if metrics is not None else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
