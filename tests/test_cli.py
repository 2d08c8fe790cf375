"""Tests for the command line interface and its exit-code contract."""

import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tabaconv.cli import main


def run(argv):
    return main(argv)


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["gen", "--help"],
        ["pretrain", "--help"],
        ["finetune", "--help"],
        ["evaluate", "--help"],
        ["gradcheck", "--help"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


class TestGen:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert run(["gen", "--users", "3", "--rows", "10", "--seed", "7", "--out", str(out)]) == 0
        assert (out / "transactions.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "roles.json").exists()
        assert json.loads((out / "config.json").read_text())["seed"] == 7

    def test_invalid_fraud_rate_exits_two(self, tmp_path):
        rc = run(["gen", "--users", "3", "--rows", "10", "--fraud-rate", "1.5",
                  "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_same_flags_produce_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gen", "--users", "4", "--rows", "12", "--seed", "3", "--out", str(out)]) == 0
        ha = hashlib.sha256((a / "transactions.csv").read_bytes()).hexdigest()
        hb = hashlib.sha256((b / "transactions.csv").read_bytes()).hexdigest()
        assert ha == hb


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen + pretrain once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    data = root / "data"
    assert main(["gen", "--users", "10", "--rows", "40", "--seed", "0", "--out", str(data)]) == 0
    pre = root / "pre"
    rc = main(["pretrain", "--data", str(data / "transactions.csv"), "--out", str(pre),
               "--epochs", "1", "--d-model", "16", "--heads", "2", "--batch-size", "16",
               "--window", "8", "--stride", "4"])
    assert rc == 0
    return {"root": root, "data": data, "pre": pre}


class TestPretrain:
    def test_outputs_present(self, pipeline):
        pre = pipeline["pre"]
        assert (pre / "ckpt.bin").exists()
        assert (pre / "schema.json").exists()
        lines = (pre / "metrics.jsonl").read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert {"epoch", "loss", "masked_cat_acc", "masked_cont_mse",
                "grad_norm_mean", "grad_norm_max", "clipped_frac"} == set(rec)
        config = json.loads((pre / "config.json").read_text())
        assert config["command"] == "pretrain"
        assert config["window"] == 8

    def test_degenerate_masking_exits_two(self, pipeline, tmp_path, capsys):
        rc = main(["pretrain", "--data", str(pipeline["data"] / "transactions.csv"),
                   "--out", str(tmp_path / "p"), "--p-field", "0", "--p-row", "0"])
        assert rc == 2

    def test_missing_data_exits_two(self, tmp_path):
        rc = main(["pretrain", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "p")])
        assert rc == 2

    def test_reads_the_csv_once(self, pipeline, tmp_path, monkeypatch):
        import builtins

        data = str(pipeline["data"] / "transactions.csv")
        reads = []

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == data:
                reads.append(file)
            return original(file, *args, **kwargs)

        original = builtins.open
        monkeypatch.setattr(builtins, "open", counting_open)
        rc = main(["pretrain", "--data", data, "--out", str(tmp_path / "p"), "--epochs", "0"])
        assert rc == 0 and len(reads) == 1

    def test_paper_defaults(self):
        from tabaconv.cli import _PRETRAIN_DEFAULTS

        assert _PRETRAIN_DEFAULTS["window"] == 10 and _PRETRAIN_DEFAULTS["stride"] == 5
        assert _PRETRAIN_DEFAULTS["p_field"] == 0.30 and _PRETRAIN_DEFAULTS["p_row"] == 0.15


class TestFinetuneEvaluate:
    def test_finetune_then_evaluate(self, pipeline, capsys):
        root = pipeline["root"]
        fin = root / "fin"
        rc = main(["finetune", "--ckpt", str(pipeline["pre"] / "ckpt.bin"),
                   "--data", str(pipeline["data"] / "transactions.csv"), "--out", str(fin),
                   "--epochs", "1", "--batch-size", "16", "--window", "8", "--stride", "8"])
        assert rc == 0
        assert (fin / "ckpt.bin").exists()
        capsys.readouterr()
        rc = main(["evaluate", "--ckpt", str(fin / "ckpt.bin"),
                   "--data", str(pipeline["data"] / "transactions.csv"),
                   "--split", "test", "--window", "8", "--stride", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("F1 ")
        assert "precision" in out and "recall" in out

    def test_validates_on_the_val_split(self, pipeline, tmp_path, capsys):
        common = ["--data", str(pipeline["data"] / "transactions.csv"), "--window", "8",
                  "--stride", "8"]
        rc = main(["finetune", "--ckpt", str(pipeline["pre"] / "ckpt.bin"), *common,
                   "--out", str(tmp_path / "fin"), "--epochs", "2", "--batch-size", "16"])
        assert rc == 0
        # 10 users x 40 rows: 8 train users and 1 val user, 5 windows each
        match = re.search(r" on (\d+) windows", capsys.readouterr().out)
        assert int(match.group(1)) == 40
        last = json.loads((tmp_path / "fin" / "metrics.jsonl").read_text().splitlines()[-1])
        assert main(["evaluate", "--ckpt", str(tmp_path / "fin" / "ckpt.bin"), *common,
                     "--split", "val", "--out", str(tmp_path / "ev")]) == 0
        result = json.loads((tmp_path / "ev" / "metrics.jsonl").read_text())
        assert result["n"] == 5
        assert {k: last[f"val_{k}"] for k in ("f1", "precision", "recall")} == \
            {k: result[k] for k in ("f1", "precision", "recall")}

    def test_no_val_pass_off_the_train_split(self, pipeline, tmp_path):
        rc = main(["finetune", "--ckpt", str(pipeline["pre"] / "ckpt.bin"),
                   "--data", str(pipeline["data"] / "transactions.csv"), "--split", "test",
                   "--out", str(tmp_path / "fin"), "--epochs", "1", "--window", "8", "--stride", "8"])
        assert rc == 0
        record = json.loads((tmp_path / "fin" / "metrics.jsonl").read_text())
        assert not any(k.startswith("val_") for k in record)

    def test_scratch_mode(self, pipeline, tmp_path):
        rc = main(["finetune", "--ckpt", str(pipeline["pre"] / "ckpt.bin"),
                   "--data", str(pipeline["data"] / "transactions.csv"),
                   "--out", str(tmp_path / "scratch"), "--mode", "scratch",
                   "--epochs", "1", "--batch-size", "16", "--window", "8", "--stride", "8"])
        assert rc == 0

    def test_schema_digest_mismatch_exits_two(self, pipeline, tmp_path):
        other = tmp_path / "other_data"
        assert main(["gen", "--users", "6", "--rows", "30", "--seed", "99", "--out", str(other)]) == 0
        pre2 = tmp_path / "pre2"
        assert main(["pretrain", "--data", str(other / "transactions.csv"), "--out", str(pre2),
                     "--epochs", "1", "--d-model", "16", "--heads", "2", "--window", "8",
                     "--stride", "4"]) == 0
        rc = main(["finetune", "--ckpt", str(pipeline["pre"] / "ckpt.bin"),
                   "--schema", str(pre2 / "schema.json"),
                   "--data", str(pipeline["data"] / "transactions.csv"),
                   "--out", str(tmp_path / "f"), "--epochs", "1"])
        assert rc == 2

    def test_evaluate_missing_ckpt_exits_two(self, pipeline, tmp_path):
        rc = main(["evaluate", "--ckpt", str(tmp_path / "missing.bin"),
                   "--data", str(pipeline["data"] / "transactions.csv")])
        assert rc == 2


class TestGradcheck:
    def test_default_seed_passes(self, capsys):
        assert main(["gradcheck", "--max-coords", "6"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_seed_independence(self):
        assert main(["gradcheck", "--max-coords", "4", "--seed", "1"]) == 0
        assert main(["gradcheck", "--max-coords", "4", "--seed", "2"]) == 0

    def test_impossible_tolerance_fails_with_one(self, capsys):
        assert main(["gradcheck", "--max-coords", "4", "--tol", "1e-12"]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.fixture(scope="module")
def classifier(tmp_path_factory):
    """A tiny classifier whose schema comes from a clean log; no training steps."""
    root = tmp_path_factory.mktemp("cli_classifier")
    data = root / "data"
    assert main(["gen", "--users", "6", "--rows", "30", "--seed", "2", "--out", str(data)]) == 0
    common = ["--data", str(data / "transactions.csv"), "--epochs", "0", "--window", "5"]
    assert main(["pretrain", *common, "--out", str(root / "pre"), "--d-model", "8",
                 "--heads", "2"]) == 0
    assert main(["finetune", *common, "--ckpt", str(root / "pre" / "ckpt.bin"),
                 "--out", str(root / "fin")]) == 0
    return {"data": data, "fin": root / "fin"}


class TestEvaluateBadCells:
    """`evaluate` on a log with one bad cell exits 2 with a one-line error."""

    def evaluate_with(self, classifier, tmp_path, column, value):
        import csv as _csv

        with open(classifier["data"] / "transactions.csv", newline="") as fh:
            rows = list(_csv.reader(fh))
        rows[40][rows[0].index(column)] = value  # a row of the second user
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            _csv.writer(fh).writerows(rows)
        return main(["evaluate", "--ckpt", str(classifier["fin"] / "ckpt.bin"), "--data", str(path),
                     "--split", "all", "--window", "5", "--stride", "5"])

    @pytest.mark.parametrize("column,value,message", [
        ("ts", "12345678901234567890", "unsupported year"),   # past int64
        ("ts", "253402300800", "unsupported year 10000"),
        ("ts", "-62135596801", "unsupported year 0"),
        ("amount", "twelve", "could not convert"),
        ("amount", "inf", "user 'u0001': non-finite value in continuous column 'amount' at row"),
        ("label", "2", "user 'u0001': label '2' in column 'label' at row"),
        ("label", "-1", "user 'u0001': label '-1' in column 'label' at row"),
        ("label", "3000000000", "user 'u0001': label '3000000000' in column 'label' at row"),
        ("label", "x", "user 'u0001': label 'x' in column 'label' at row"),
    ])
    def test_exits_two(self, classifier, tmp_path, capsys, column, value, message):
        assert self.evaluate_with(classifier, tmp_path, column, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_numeric_failure_exits_three(pipeline, monkeypatch, capsys):
    from tabaconv import cli
    from tabaconv.errors import NumericError

    def explode(*args, **kwargs):
        raise NumericError("training loss is non-finite: nan")

    monkeypatch.setattr(cli, "pretrain", explode)
    rc = main(["pretrain", "--data", str(pipeline["data"] / "transactions.csv"),
               "--out", str(pipeline["root"] / "nan_run")])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_config_file_overridden_by_flags(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"users": 3, "rows": 7, "seed": 5}))
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg_file), "--rows", "9", "--out", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["users"] == 3     # from file
    assert echoed["rows"] == 9      # flag wins
    assert echoed["seed"] == 5
    import csv as _csv

    with open(out / "transactions.csv", newline="") as fh:
        rows = list(_csv.reader(fh))[1:]
    assert len(rows) == 3 * 9


SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env(**extra):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Counts every mallopt call made through ctypes, then imports the package and runs one command.
RECORD_MALLOPT = """
import ctypes, sys
calls = []

class Recorder(ctypes.CDLL):
    def __getattr__(self, name):
        func = super().__getattr__(name)
        if name != "mallopt":
            return func
        def mallopt(*args):
            calls.append(args)
            return func(*args)
        return mallopt

ctypes.CDLL = Recorder
import tabaconv, tabaconv.cli, tabaconv.training
print(calls)
assert tabaconv.cli.main(["gen", "--users", "2", "--rows", "4", "--out", sys.argv[1]]) == 0
print(calls)
"""


class TestHeapTopPad:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_only_main_calls_mallopt(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", RECORD_MALLOPT, str(tmp_path / "gen")],
                              env=subprocess_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        after_import, after_main = lines[0], lines[-1]
        assert after_import == "[]"
        assert after_main == f"[(-2, {16 << 20})]"  # M_TOP_PAD, 16 MiB

    @staticmethod
    def library_without_mallopt(name):
        return types.SimpleNamespace()

    @staticmethod
    def no_library(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("fake_cdll", ["library_without_mallopt", "no_library"])
    def test_main_runs_without_mallopt(self, fake_cdll, tmp_path, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", getattr(self, fake_cdll))
        out = tmp_path / "data"
        assert run(["gen", "--users", "2", "--rows", "4", "--out", str(out)]) == 0
        assert (out / "transactions.csv").exists()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap-top pad is a glibc mallopt")
    @pytest.mark.parametrize("env", [{}, {"MALLOC_TRIM_THRESHOLD_": "131072"}],
                             ids=["default", "fixed_trim_threshold"])
    def test_extra_epoch_keeps_step_memory_resident(self, env, tmp_path):
        """Minor page faults of a second pretraining epoch, per step, in a fresh process.

        Without the pad, glibc trims each step's freed activations off the heap
        top and the next forward faults them back in: 1300-1600 faults per
        step on this log, against under 1 with the pad. The second case pins
        glibc's trim threshold at its default value, so that no earlier
        allocation can raise it; under the dynamic threshold, whether the heap
        is trimmed depends on its layout.
        """
        data = tmp_path / "data"
        assert run(["gen", "--users", "40", "--rows", "60", "--seed", "3", "--out", str(data)]) == 0
        steps_per_epoch = 11  # 352 training windows at batch 32

        def minor_faults(epochs):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            proc = subprocess.run(
                [sys.executable, "-m", "tabaconv.cli", "pretrain", "--data",
                 str(data / "transactions.csv"), "--epochs", str(epochs),
                 "--out", str(tmp_path / f"pre{epochs}")],
                env=subprocess_env(**env), capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            assert "pretrained on 352 windows" in proc.stdout
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        per_step = (minor_faults(2) - minor_faults(1)) / steps_per_epoch
        assert per_step < 100, f"{per_step:.0f} minor page faults per step of the second epoch"


# Peak RSS (KiB) after the imports, then after the CLI's ingest of argv[2] for argv[1]'s command.
# A process's ru_maxrss starts at its parent's peak, here the test runner's, so the
# measurement runs in a child forked after the imports: that one's starts at the imports' peak.
INGEST_PEAK = """
import os, resource, sys
from pathlib import Path
from tabaconv import cli, schema, synth

command, data = sys.argv[1], Path(sys.argv[2])
trained = schema.FeatureSchema.load(sys.argv[3])
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if command == "pretrain":
    _, samples = cli._pretrain_windows(data, synth.default_roles(), "all", 10, 5)
else:
    (samples,) = cli._read_windows(data, trained, ["all"], 10, 10, "downstream")
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, len(samples), flush=True)
os._exit(0)
"""


class TestIngestMemory:
    @pytest.fixture(scope="class")
    def log(self, tmp_path_factory):
        from tabaconv import synth
        from tabaconv.schema import infer_schema

        root = tmp_path_factory.mktemp("ingest")
        cfg = synth.SynthConfig(n_users=200, rows_per_user=200, seed=5, fraud_rate=0.05)
        csv_path, _ = synth.generate(cfg, root)
        infer_schema(csv_path, synth.default_roles()).save(root / "schema.json")
        return csv_path, root / "schema.json", cfg.n_users * cfg.rows_per_user

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="peak RSS as glibc's allocator grows it")
    @pytest.mark.parametrize("command,windows", [("pretrain", 7800), ("evaluate", 4000)])
    def test_peak_growth_per_row(self, log, command, windows):
        """The streamed ingest holds per-column arrays, never the whole log as strings.

        On this 40,000-row log the peak grew by 400-450 bytes per row over the
        resident size after the imports, and by about 1,200 when the reader
        first held every row as a list of cells.
        """
        csv_path, schema_path, n_rows = log
        proc = subprocess.run([sys.executable, "-c", INGEST_PEAK, command, str(csv_path),
                               str(schema_path)],
                              env=subprocess_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        before, after, made = map(int, proc.stdout.split())
        assert made == windows
        per_row = (after - before) * 1024 / n_rows
        assert per_row < 800, f"{per_row:.0f} bytes of peak RSS per ingested row"
