"""Set-up child of the benchmark: runs one run's set-up commands in a fresh interpreter.

    python3 benchmarks/prepare.py '{"commands": [["gen", ...], ...], "trace": false}'

The parent times this whole process, so `setup_s` covers interpreter
start, importing tabaconv, generating the inputs and the set-up commands.
Running set-up in its own process also keeps the generator's memory out
of the parent's peak RSS, which must measure the timed command alone.
The last line of stdout is a JSON object: each command's exit code and
captured stdout, and (when tracing) the seconds spent in synth.generate.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(spec: dict) -> None:
    from tabaconv import cli, synth

    generate_s = []
    if spec["trace"]:
        generate = synth.generate

        def timed_generate(*args, **kwargs):
            start = time.perf_counter()
            try:
                return generate(*args, **kwargs)
            finally:
                generate_s.append(time.perf_counter() - start)

        synth.generate = timed_generate  # cmd_gen looks it up as synth.generate
    results = []
    for argv in spec["commands"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        results.append({"rc": rc, "stdout": buf.getvalue()})
        if rc != 0:
            break
    print(json.dumps({"commands": results, "generate_s": sum(generate_s)}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
