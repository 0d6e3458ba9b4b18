"""The benchmark's tracer (bench/tracing.py) wraps functions of `mpp` by name.
Installing it here makes a rename or removal of a traced function fail the
tests, instead of the traced benchmark run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import mpp.cli
import mpp.family
import mpp.poset
from mpp.jsonio import poset_to_json

from conftest import make_ex52

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("mpp_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls(tmp_path, capsys):
    tracing = _load_tracing()
    path = tmp_path / "ex52.json"
    path.write_text(json.dumps(poset_to_json(make_ex52())))
    originals = (mpp.family.hrep_general, mpp.poset.validate, mpp.cli._emit)
    tracer = tracing.Tracer()
    tracer.install()  # a KeyError here names a traced function that is gone
    try:
        assert mpp.family.hrep_general is not originals[0]
        assert mpp.cli.main(["vertices", str(path), "--t", "generic"]) == 0
    finally:
        tracer.uninstall()
    assert (mpp.family.hrep_general, mpp.poset.validate, mpp.cli._emit) == originals
    capsys.readouterr()
    calls = {layer: s[0] for layer, s in tracer.stats.items()}
    # one vertices query: the poset is validated once, one H-rep, one DD
    assert calls["poset.validate"] == 1
    assert calls["family.hrep"] == 1
    assert calls["geometry.vertices"] == 1
    assert calls["jsonio.emit"] >= 1
