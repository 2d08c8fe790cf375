"""Tests for the command line interface and its exit-code contract."""

import ctypes
import hashlib
import json
import math
import os
import platform
import re
import resource
import struct
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tabaconv.cli import main
from tabaconv.training import MAX_SCORING_WORKERS


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

    @pytest.mark.parametrize("flag,value", [
        ("--merchants", "0"), ("--categories", "0"), ("--cities", "0"), ("--amount-sigma", "-1"),
        ("--amount-sigma", "inf"), ("--amount-mu", "nan"), ("--seed", "-1"), ("--amount-mu", "800"),
    ])
    def test_bad_generator_setting_exits_two_naming_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run(["gen", "--users", "3", "--rows", "10", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"({flag})" in err and "Traceback" not in err
        assert not out.exists()

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
        err = capsys.readouterr().err
        assert err.startswith("error: --p-field 0 and --p-row 0 leave the reconstruction loss")

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

    @pytest.mark.parametrize("command,flag,value", [("pretrain", "--mask-seed", "-1"),
                                                    ("pretrain", "--seed", "-3"),
                                                    ("finetune", "--seed", "-1")])
    def test_negative_seed_exits_two_before_any_input_is_read(self, pipeline, tmp_path, monkeypatch,
                                                              capsys, command, flag, value):
        from tabaconv import cli

        reads = []
        for reader in ("read_columns", "load_checkpoint"):
            monkeypatch.setattr(cli, reader, lambda *args, **kwargs: reads.append(args))
        argv = [command, "--data", str(pipeline["data"] / "transactions.csv"),
                "--out", str(tmp_path / "p"), flag, value]
        if command == "finetune":
            argv += ["--ckpt", str(pipeline["pre"] / "ckpt.bin")]
        assert main(argv) == 2
        assert reads == []
        err = capsys.readouterr().err
        assert flag in err and value in err and "expected non-negative integer" not in err

    @pytest.mark.parametrize("flag,value", [("--heads", "0"), ("--d-model", "0"), ("--d-model", "1"),
                                            ("--ffn-mult", "0"), ("--kernel", "-1")])
    def test_zero_width_model_exits_two_before_any_input_is_read(self, pipeline, tmp_path, monkeypatch,
                                                                 capsys, flag, value):
        from tabaconv import cli

        reads = []
        monkeypatch.setattr(cli, "read_columns", lambda *args, **kwargs: reads.append(args))
        assert main(["pretrain", "--data", str(pipeline["data"] / "transactions.csv"),
                     "--out", str(tmp_path / "p"), flag, value]) == 2
        assert reads == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and f"got {value}" in err

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_two_before_any_input_is_read(
            self, pipeline, tmp_path, monkeypatch, capsys, command, value):
        from tabaconv import cli

        reads = []
        for reader in ("read_columns", "load_checkpoint"):
            monkeypatch.setattr(cli, reader, lambda *args, **kwargs: reads.append(args))
        argv = [command, "--data", str(pipeline["data"] / "transactions.csv"),
                "--out", str(tmp_path / "p"), "--lr", value, "--epochs", "1"]
        if command == "finetune":
            argv += ["--ckpt", str(pipeline["pre"] / "ckpt.bin")]
        assert main(argv) == 2
        assert reads == [] and not (tmp_path / "p" / "ckpt.bin").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--lr" in err and value in err

    @pytest.mark.parametrize("text", ['"user columns"', '{"user": "user_id", "columns": 5}',
                                      '{"user": 3, "columns": {}}', '{"user": "user_id", "columns": {"ts": 1}}',
                                      '["user", "columns"]', '{"user": '])
    def test_malformed_roles_exit_two_naming_the_file(self, pipeline, tmp_path, capsys, text):
        roles = tmp_path / "roles.json"
        roles.write_text(text)
        assert main(["pretrain", "--data", str(pipeline["data"] / "transactions.csv"),
                     "--roles", str(roles), "--out", str(tmp_path / "p"), "--epochs", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(roles) in err and "Traceback" not in err

    def test_paper_defaults(self):
        from tabaconv.cli import build_parser

        args = build_parser().parse_args(["pretrain"])
        assert args.window == 10 and args.stride == 5
        assert args.p_field == 0.30 and args.p_row == 0.15


@pytest.mark.parametrize("command,library,keys", [
    ("pretrain", "make_windows", ["window", "stride"]),
    ("gradcheck", "grad_check", ["tol", "h", "max_coords", "seed"]),
])
def test_literal_defaults_are_the_library_defaults(command, library, keys):
    """A flag whose default the parser writes out defaults as the library function it feeds does."""
    import inspect

    from tabaconv import cli

    args = vars(cli.build_parser().parse_args([command]))
    params = inspect.signature(getattr(cli, library)).parameters
    assert {key: args[key] for key in keys} == {key: params[key].default for key in keys}


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
        scores = ("f1", "precision", "recall", "auroc", "predicted_positive_rate")
        assert set(result) == {*scores, "n", "positives"}
        assert {k: last[f"val_{k}"] for k in scores} == {k: result[k] for k in scores}

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

    @pytest.mark.parametrize("flag,value", [("--h", "0"), ("--h", "-1e-5"), ("--h", "nan"),
                                            ("--tol", "0"), ("--tol", "inf"),
                                            ("--max-coords", "0"), ("--max-coords", "-1")])
    def test_bad_argument_exits_two_before_any_loss_is_built(self, monkeypatch, capsys, flag, value):
        from tabaconv import cli

        built = []
        monkeypatch.setattr(cli, "build_gradcheck_problem",
                            lambda seed: (lambda p: built.append(p), {}))
        assert main(["gradcheck", f"{flag}={value}"]) == 2  # "=" lets argparse take "-1e-5"
        assert built == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "PASS" not in err


class TestNoWindows:
    """A split that yields no window of --window rows is refused, not trained or scored on."""

    def test_pretrain(self, pipeline, tmp_path, capsys):
        assert main(["pretrain", "--data", str(pipeline["data"] / "transactions.csv"),
                     "--out", str(tmp_path / "p"), "--window", "41"]) == 2
        err = capsys.readouterr().err
        assert "train split yields no window" in err and "--window 41" in err
        assert not (tmp_path / "p" / "ckpt.bin").exists()
        assert not (tmp_path / "p").exists()

    def test_finetune(self, pipeline, tmp_path, capsys):
        assert main(["finetune", "--ckpt", str(pipeline["pre"] / "ckpt.bin"),
                     "--data", str(pipeline["data"] / "transactions.csv"), "--split", "all",
                     "--out", str(tmp_path / "f"), "--window", "41"]) == 2
        err = capsys.readouterr().err
        assert "all split yields no window" in err and "--window 41" in err
        assert not (tmp_path / "f" / "ckpt.bin").exists()
        assert not (tmp_path / "f").exists()

    def test_evaluate(self, classifier, tmp_path, capsys):
        assert main(["evaluate", "--ckpt", str(classifier["fin"] / "ckpt.bin"),
                     "--data", str(classifier["data"] / "transactions.csv"),
                     "--out", str(tmp_path / "e"), "--window", "31"]) == 2
        err = capsys.readouterr().err
        assert "test split yields no window" in err and "--window 31" in err
        assert not (tmp_path / "e" / "metrics.jsonl").exists()
        assert not (tmp_path / "e").exists()

    def test_an_empty_val_split_is_allowed(self, tmp_path):
        data = tmp_path / "data"
        assert main(["gen", "--users", "4", "--rows", "12", "--out", str(data)]) == 0  # 3/0/1 users
        common = ["--data", str(data / "transactions.csv"), "--window", "5", "--epochs", "1"]
        assert main(["pretrain", *common, "--out", str(tmp_path / "p"), "--d-model", "8",
                     "--heads", "2"]) == 0
        assert main(["finetune", *common, "--ckpt", str(tmp_path / "p" / "ckpt.bin"),
                     "--out", str(tmp_path / "f")]) == 0
        record = json.loads((tmp_path / "f" / "metrics.jsonl").read_text())
        assert not any(k.startswith("val_") for k in record)


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


class TestMalformedJson:
    """A schema or config file that is not what the program writes exits 2 naming the file and key."""

    def evaluate_with_schema(self, classifier, path):
        return main(["evaluate", "--ckpt", str(classifier["fin"] / "ckpt.bin"), "--schema", str(path),
                     "--data", str(classifier["data"] / "transactions.csv"), "--window", "5"])

    @pytest.mark.parametrize("edit,message", [
        (lambda s: [s], "schema must be a JSON object, got list"),
        (lambda s: {**s, "fields": 5}, "key 'fields' has the wrong type: 5"),
        (lambda s: {**s, "version": "1"}, "key 'version' has the wrong type: \"1\""),
        (lambda s: {**s, "version": True}, "key 'version' has the wrong type: true"),
        (lambda s: {k: v for k, v in s.items() if k != "fields"}, "missing key 'fields'"),
        (lambda s: {**s, "fields": [5]}, "fields[0] must be a JSON object, got 5"),
        (lambda s: {**s, "fields": [{**s["fields"][0], "kind": "colour"}]}, "fields[0]: key 'kind'"),
        (lambda s: {**s, "fields": [{k: v for k, v in s["fields"][0].items() if k != "std"}]},
         "fields[0]: missing key 'std'"),
        (lambda s: {**s, "fields": [{"name": "m", "kind": "categorical", "vocab": [["a", "2"]],
                                     "mean": None, "std": None}]}, "fields[0]: key 'vocab'"),
        (lambda s: {**s, "fields": [{"name": "m", "kind": "continuous", "vocab": None,
                                     "mean": None, "std": 1.0}]}, "fields[0]: keys 'mean' and 'std'"),
        (lambda s: {**s, "timestamp_format": "unix"}, "key 'timestamp_format'"),
        (lambda s: {**s, "fields": [{**f, "vocab": [[f["vocab"][0][0], 99]] + f["vocab"][1:]} if f["vocab"]
                                    else f for f in s["fields"]]}, "key 'vocab' has token id 99 outside"),
    ], ids=["list", "fields_number", "version_string", "version_bool", "no_fields", "field_number",
            "unknown_kind", "field_without_std", "vocab_string_id", "continuous_without_mean",
            "unknown_timestamp_format", "vocab_id_beyond_table"])
    def test_bad_schema_exits_two(self, classifier, tmp_path, capsys, edit, message):
        schema = json.loads((classifier["fin"] / "schema.json").read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(schema)))
        assert self.evaluate_with_schema(classifier, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("cut", [0, 1, 40])
    def test_truncated_schema_exits_two(self, classifier, tmp_path, capsys, cut):
        text = (classifier["fin"] / "schema.json").read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(text[:cut])
        assert self.evaluate_with_schema(classifier, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: schema is not valid JSON")

    def test_schema_not_utf8_exits_two(self, classifier, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"version": "\xff"}')
        assert self.evaluate_with_schema(classifier, bad) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: schema is not UTF-8")

    def test_good_schema_still_loads(self, classifier, tmp_path, capsys):
        copy = tmp_path / "schema.json"
        copy.write_text((classifier["fin"] / "schema.json").read_text())
        assert self.evaluate_with_schema(classifier, copy) == 0

    @pytest.mark.parametrize("text", ["{not json", "", b"\xff\xfe"])
    def test_config_not_json_exits_two(self, classifier, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        rc = main(["evaluate", "--config", str(cfg), "--ckpt", str(classifier["fin"] / "ckpt.bin"),
                   "--data", str(classifier["data"] / "transactions.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: config file is not valid JSON") and "Traceback" not in err


# Runs one command in a child, on one allowed CPU when argv[1] is "1"; prints the allowed CPU
# count, the largest scoring pool opened (0 for none) and the threads alive once it returned.
PINNED_COMMAND = """
import os, sys, threading
from tabaconv import cli, training

if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
pools = [0]

class Recording(training.ThreadPoolExecutor):
    def __init__(self, max_workers):
        pools.append(max_workers)
        super().__init__(max_workers)

training.ThreadPoolExecutor = Recording
rc = cli.main(sys.argv[2:])
print(len(os.sched_getaffinity(0)), max(pools), threading.active_count())
sys.exit(rc)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_evaluate_is_byte_identical_on_one_cpu_and_on_all(classifier, tmp_path):
    outputs = []
    for cpus in ("1", "all"):
        out = tmp_path / cpus
        proc = subprocess.run(
            [sys.executable, "-c", PINNED_COMMAND, cpus, "evaluate", "--ckpt",
             str(classifier["fin"] / "ckpt.bin"), "--data", str(classifier["data"] / "transactions.csv"),
             "--split", "all", "--window", "5", "--stride", "1", "--out", str(out)],
            env=subprocess_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        allowed, pool, alive = map(int, proc.stdout.split()[-3:])
        assert "n=156" in proc.stdout  # 6 users x 26 windows: three batches of 64
        workers = min(allowed, MAX_SCORING_WORKERS, 3)  # the child runs one BLAS thread
        assert pool == (workers if workers > 1 else 0) and alive == 1
        if cpus == "1":
            assert allowed == 1
        outputs.append((out / "metrics.jsonl").read_bytes())
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("error", [ValueError("internal"), KeyError("internal")])
def test_internal_error_escapes_main(pipeline, monkeypatch, error):
    """A bug is not an input error: it is not turned into exit 2."""
    from tabaconv import cli

    def explode(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "pretrain", explode)
    with pytest.raises(type(error), match="internal"):
        main(["pretrain", "--data", str(pipeline["data"] / "transactions.csv"),
              "--out", str(pipeline["root"] / "bug_run")])


@pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate"])
@pytest.mark.parametrize("out", ["file", "file/run"])
def test_out_that_cannot_be_a_directory_exits_two_before_any_input_is_read(
        pipeline, tmp_path, monkeypatch, capsys, command, out):
    from tabaconv import cli

    calls = []
    for name in ("read_columns", "load_checkpoint", "load_roles", "pretrain", "finetune", "evaluate"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
    (tmp_path / "file").write_text("not a directory")
    argv = [command, "--data", str(pipeline["data"] / "transactions.csv"), "--out", str(tmp_path / out)]
    if command != "pretrain":
        argv += ["--ckpt", str(pipeline["pre"] / "ckpt.bin")]
    assert main(argv) == 2
    assert calls == [] and (tmp_path / "file").read_text() == "not a directory"
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "file") in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["pretrain", "finetune", "evaluate"])
@pytest.mark.parametrize("flag,value", [("--window", "0"), ("--stride", "0"), ("--stride", "-2")])
def test_window_or_stride_below_one_exits_two_before_any_input_is_read(
        pipeline, tmp_path, monkeypatch, capsys, command, flag, value):
    from tabaconv import cli

    reads = []
    for reader in ("read_columns", "load_checkpoint"):
        monkeypatch.setattr(cli, reader, lambda *args, **kwargs: reads.append(args))
    argv = [command, "--data", str(pipeline["data"] / "transactions.csv"), "--out", str(tmp_path / "o"),
            f"{flag}={value}"]  # "=" lets argparse take "-2"
    if command != "pretrain":
        argv += ["--ckpt", str(pipeline["pre"] / "ckpt.bin")]
    assert main(argv) == 2
    assert reads == [] and not (tmp_path / "o").exists()
    assert capsys.readouterr().err == f"error: {flag[2:]} ({flag}) must be >= 1, got {value}\n"


@pytest.mark.parametrize("command,flag,value", [
    ("gen", "--users", "0"), ("gen", "--rows", "0"), ("gen", "--fraud-rate", "1.5"), ("gen", "--noise", "-0.1"),
    ("pretrain", "--p-field", "1.5"), ("pretrain", "--p-row", "-0.5"), ("pretrain", "--dropout", "1.0"),
    ("pretrain", "--heads", "3"), ("pretrain", "--kernel", "4"), ("pretrain", "--d-model", "7"),
    ("pretrain", "--blocks", "-1"), ("pretrain", "--batch-size", "0"),
    ("pretrain", "--epochs", "-1"), ("finetune", "--batch-size", "0"), ("finetune", "--epochs", "-1"),
])
def test_bad_config_value_exits_two_naming_its_flag_before_any_input_is_read(
        pipeline, tmp_path, monkeypatch, capsys, command, flag, value):
    from tabaconv import cli

    reads = []
    for reader in ("read_columns", "load_checkpoint"):
        monkeypatch.setattr(cli, reader, lambda *args, **kwargs: reads.append(args))
    argv = [command, f"{flag}={value}", "--out", str(tmp_path / "o")]  # "=" lets argparse take "-1"
    if command != "gen":
        argv += ["--data", str(pipeline["data"] / "transactions.csv")]
    if command == "finetune":
        argv += ["--ckpt", str(pipeline["pre"] / "ckpt.bin")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"({flag})" in err and f"{value}\n" in err
    assert reads == [] and not (tmp_path / "o").exists()


def test_impossible_iso_date_in_a_training_row_exits_two(pipeline, tmp_path, capsys):
    import csv as _csv
    import datetime as dt

    with open(pipeline["data"] / "transactions.csv", newline="") as fh:
        rows = list(_csv.reader(fh))
    ts = rows[0].index("ts")
    for row in rows[1:]:
        row[ts] = dt.datetime.fromtimestamp(int(row[ts]), dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    rows[5][ts] = "2021-02-29T00:00:00Z"  # a row of the first user, who is in the train split
    path = tmp_path / "iso.csv"
    with open(path, "w", newline="") as fh:
        _csv.writer(fh).writerows(rows)
    assert main(["pretrain", "--data", str(path), "--roles", str(pipeline["data"] / "roles.json"),
                 "--out", str(tmp_path / "p"), "--epochs", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 1 unparseable timestamp(s) in column 'ts', rows: 4\n"
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("argv", [
    ["pretrain", "--roles", "{dir}"],
    ["pretrain", "--config", "{dir}"],
    ["evaluate", "--ckpt", "{dir}"],
    ["evaluate", "--ckpt", "{ckpt}", "--schema", "{dir}"],
], ids=["roles", "config", "ckpt", "schema"])
def test_directory_as_input_file_exits_two_naming_it(pipeline, tmp_path, capsys, argv):
    fill = {"dir": str(tmp_path), "ckpt": str(pipeline["pre"] / "ckpt.bin")}
    rc = main([arg.format(**fill) for arg in argv]
              + ["--data", str(pipeline["data"] / "transactions.csv"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit", ["drop_first", "transpose_first"])
def test_resigned_checkpoint_with_other_parameters_exits_two(pipeline, tmp_path, capsys, edit):
    """A valid trailer does not make the parameters those of the checkpoint's own model."""
    blob = (pipeline["pre"] / "ckpt.bin").read_bytes()
    (meta_len,) = struct.unpack_from("<I", blob, 9)
    meta = json.loads(blob[13 : 13 + meta_len])
    arrays = blob[13 + meta_len : -32]
    _, dtype, shape = meta["params"][0]
    if edit == "drop_first":
        del meta["params"][0]
        arrays = arrays[math.prod(shape) * (4 if dtype == "float32" else 8):]
    else:
        meta["params"][0][2] = shape[::-1]
    raw = json.dumps(meta).encode("utf-8")
    body = blob[:9] + struct.pack("<I", len(raw)) + raw + arrays
    crafted = tmp_path / "ckpt.bin"
    crafted.write_bytes(body + hashlib.sha256(body).digest())
    rc = main(["finetune", "--ckpt", str(crafted), "--schema", str(pipeline["pre"] / "schema.json"),
               "--data", str(pipeline["data"] / "transactions.csv"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {crafted}: parameters do not match") and "Traceback" not in err


def test_csv_not_utf8_exits_two_naming_it(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes((pipeline["data"] / "transactions.csv").read_bytes().replace(b",web,", b",w\xffb,", 1))
    rc = main(["pretrain", "--data", str(bad), "--roles", str(pipeline["data"] / "roles.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: CSV is not UTF-8 text")


def test_config_file_overridden_by_flags(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"users": 3, "rows": 7, "seed": 5, "cities": 4}))
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg_file), "--rows", "9", "--cities", "10", "--out", str(out)]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["users"] == 3     # from file
    assert echoed["rows"] == 9      # flag wins
    assert echoed["cities"] == 10   # even when it gives the default value
    assert echoed["seed"] == 5
    import csv as _csv

    with open(out / "transactions.csv", newline="") as fh:
        rows = list(_csv.reader(fh))[1:]
    assert len(rows) == 3 * 9


class TestConfigFile:
    """Every entry of a --config file must name a flag of the command and fit its type."""

    @pytest.mark.parametrize("entry,message", [
        ({"learning_rat": 0.5}, "unknown key 'learning_rat'"),
        ({"config": "other.json"}, "unknown key 'config'"),  # not the file itself,
        ({"func": "evaluate"}, "unknown key 'func'"),         # nor the parser's dispatch
        ({"command": "evaluate"}, "unknown key 'command'"),
        ({"epochs": "1"}, "'epochs' must be an integer, got \"1\""),
        ({"epochs": True}, "'epochs' must be an integer, got true"),
        ({"batch_size": 2.5}, "'batch_size' must be an integer, got 2.5"),
        ({"lr": "0.1"}, "'lr' must be a number"),
        ({"p_field": False}, "'p_field' must be a number, got false"),
        ({"epochs": None}, "'epochs' must be an integer, got null"),
        ({"out": 5}, "'out' must be a string"),
        ({"split": "everyone"}, "'split' must be one of"),
    ], ids=["unknown_key", "config_key", "func_key", "command_key", "string_for_int", "bool_for_int",
            "float_for_int", "string_for_number", "bool_for_number", "null_for_int", "number_for_string",
            "not_a_choice"])
    def test_bad_entry_exits_two_before_any_input_is_read(self, pipeline, tmp_path, monkeypatch,
                                                          capsys, entry, message):
        from tabaconv import cli

        reads = []
        monkeypatch.setattr(cli, "read_columns", lambda *args, **kwargs: reads.append(args))
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(entry))
        rc = main(["pretrain", "--config", str(cfg_file), "--data",
                   str(pipeline["data"] / "transactions.csv"), "--out", str(tmp_path / "p")])
        assert rc == 2 and reads == []
        err = capsys.readouterr().err
        assert f"error: {cfg_file}: " in err and message in err
        assert not (tmp_path / "p").exists()

    def test_integers_for_numbers_and_null_defaults_accepted(self, pipeline, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lr": 1, "p_field": 0, "mask_seed": None, "split": "all",
                                        "epochs": 0}))
        out = tmp_path / "p"
        assert main(["pretrain", "--config", str(cfg_file), "--data",
                     str(pipeline["data"] / "transactions.csv"), "--out", str(out)]) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["lr"] == 1 and echoed["mask_seed"] == echoed["seed"] and echoed["split"] == "all"

    def test_each_command_checks_its_own_keys(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 1}))  # a pretrain key, not a gen one
        assert main(["gen", "--config", str(cfg_file), "--out", str(tmp_path / "g")]) == 2
        assert "unknown key 'epochs'" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


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
        assert after_main == f"[(-2, {16 << 20}), (-8, 1)]"  # M_TOP_PAD 16 MiB, M_ARENA_MAX 1

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
