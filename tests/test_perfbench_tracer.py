"""The benchmark's tracer rebinds treesum functions by name; deleting or
renaming one of them must fail here, not only under ``--trace 1``."""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import treesum.scenario as scenario_mod

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_targets(tracer_mod):
    """(span name, owner, attribute) for every traced function and method."""
    out = [
        (name, importlib.import_module(f"treesum.{home}"), attr)
        for home, attr, name, _ in tracer_mod.FUNCTIONS
    ]
    for home, cls_name, attr, name, _ in tracer_mod.METHODS:
        cls = getattr(importlib.import_module(f"treesum.{home}"), cls_name)
        out.append((name, cls, attr))
    return out


def test_tracer_binds_every_traced_name_and_restores_it():
    tracer_mod = load_tracer()
    targets = traced_targets(tracer_mod)
    originals = {name: vars(owner)[attr] for name, owner, attr in targets}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for name, owner, attr in targets:
            assert vars(owner)[attr] is not originals[name], name
        scn = scenario_mod.load_bundled("silver-meager")
        assert scenario_mod.run(scn).passed
        # only a tamper reads a meager cover's allowed words
        tamper = scenario_mod.Tamper("meager", 1, 0)
        tampered = replace(
            scn, requests=tuple(replace(r, tamper=tamper) for r in scn.requests)
        )
        report = scenario_mod.run(tampered)
        rows = tracer_mod.aggregate(tracer.take())
    finally:
        tracer.uninstall()
    for name, owner, attr in targets:
        assert vars(owner)[attr] is originals[name], name
    cert = report.data["requests"][0]["witnesses"][0]["certificate"]
    assert cert["failed_blocks"] == [[1, 0]]
    for name in ("oracle.nfold_body_sum", "oracle.pattern_nfold",
                 "oracle.certify_request", "covers.allowed"):
        assert rows[name]["calls"] > 0, name
