"""Set-up time of a fresh process: import the CLI, then load and validate
every input file of a workload the way `mpp` reads them.

    python3 bench/setup_probe.py DIR/manifest.json

prints {"setup_s": ..., "kernel_s": ...}: the set-up time, and the time of
the calibration kernel (see calibration.py) run right after it.  Only what
the measurement needs is imported before it, so importing mpp.cli costs what
it costs a user's fresh process.
"""

from __future__ import annotations

import json
import os
import sys
import time

FILE_FLAGS = ("--t", "--partition", "--from-t", "--to-t")


def setup(manifest) -> tuple[float, object]:
    """Import the CLI and load and validate every input file, as `mpp` reads
    them.  Returns the elapsed time and the imported CLI module."""
    t0 = time.perf_counter()
    from mpp import cli, jsonio
    from mpp.poset import validate

    posets = {}
    for argv in manifest["queries"]:
        path = argv[1]
        if path not in posets:
            with open(path, encoding="utf-8") as fh:
                posets[path] = jsonio.poset_from_json(json.load(fh))
            problems = validate(posets[path])
            if problems:
                raise SystemExit(f"invalid input {path}: {problems}")
        for flag in FILE_FLAGS:
            if flag in argv and argv[argv.index(flag) + 1] != "generic":
                with open(argv[argv.index(flag) + 1], encoding="utf-8") as fh:
                    data = json.load(fh)
                if flag == "--partition":
                    jsonio.partition_from_json(data, posets[path])
                else:
                    jsonio.parameter_from_json(data, posets[path])
    elapsed = time.perf_counter() - t0
    src = os.path.realpath("src")
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"mpp was imported from {cli.__file__}, not from {src}")
    return elapsed, cli


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        seconds, _ = setup(json.load(fh))
    from calibration import kernel_seconds
    kernel = sorted(kernel_seconds() for _ in range(5))[2]
    print(json.dumps({"setup_s": seconds, "kernel_s": kernel}))
