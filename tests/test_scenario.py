from __future__ import annotations

import inspect
import json
import typing
from dataclasses import replace
from pathlib import Path

import pytest

import treesum.constructions as constructions_mod
import treesum.oracle as oracle_mod
import treesum.scenario as scenario_mod
from treesum.cli import EXIT_INPUT, main
from treesum.bits import Block, Point, restrict
from treesum.covers import (
    ECover,
    MeagerCover,
    NullCover,
    SmallCover,
)
from treesum.oracle import BudgetExceeded
from treesum.scenario import (
    RunFlags,
    ScenarioError,
    bundled_scenario_names,
    list_ops,
    load_bundled,
    load_scenario,
    parse_scenario,
    render_report,
    run,
)
from treesum.trees import SilverTree

from test_oracle import meager_member

GOLDEN_NAMES = (
    "chain-simplify",
    "meager-null-combo",
    "perfect-e",
    "perfect-meager",
    "perfect-null",
    "perfect-small",
    "silver-e",
    "silver-meager",
    "silver-null",
    "silver-small",
    "splitting-e",
    "splitting-meager",
    "splitting-null",
)


def golden_doc(name: str) -> dict:
    root = Path(__file__).resolve().parents[1] / "src" / "treesum" / "scenarios"
    return json.loads((root / f"{name}.json").read_text(encoding="utf-8"))


def write_scenario(tmp_path: Path, doc: dict, name: str = "case.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MINIMAL = {
    "name": "minimal",
    "horizon": 4,
    "partitions": {"fine": {"lengths": [2, 2]}},
    "points": {"xF": "1010", "xT": "0110"},
    "index_sets": {"A": [0, 2]},
    "trees": {"T": {"kind": "silver", "x": "xT", "free": "A"}},
    "covers": {"F": {"kind": "meager", "x": "xF", "partition": "fine",
                      "threshold": 0}},
    "requests": [{"op": "shrink_silver_meager", "cover": "F", "tree": "T"}],
}


class TestLoading:
    def test_bundled_names(self):
        assert bundled_scenario_names() == GOLDEN_NAMES

    def test_minimal_round_trip(self, tmp_path):
        scn = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert scn.name == "minimal"
        assert scn.horizon == 4
        assert isinstance(scn.trees["T"], SilverTree)
        assert isinstance(scn.covers["F"], MeagerCover)
        assert scn.requests[0].op == "shrink_silver_meager"

    def test_bundled_cover_kinds(self):
        scn = load_bundled("silver-null")
        assert isinstance(scn.covers["S1"], SmallCover)
        assert isinstance(scn.covers["N"], NullCover)
        scn = load_bundled("silver-e")
        assert isinstance(scn.covers["E"], ECover)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"horizon": 4,\n  "bad" }', encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"line 2, column 9"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_unresolved_references(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["requests"][0]["tree"] = "ghost"
        with pytest.raises(ScenarioError, match="unresolved tree reference 'ghost'"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = json.loads(json.dumps(MINIMAL))
        doc["covers"]["F"]["partition"] = "ghost"
        with pytest.raises(ScenarioError, match="unresolved partition reference"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = json.loads(json.dumps(MINIMAL))
        doc["trees"]["T"]["x"] = "ghost"
        with pytest.raises(ScenarioError, match="unresolved point reference"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_horizon_mismatches(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["partitions"]["fine"]["lengths"] = [2, 3]
        with pytest.raises(ScenarioError, match="horizon mismatch"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = json.loads(json.dumps(MINIMAL))
        doc["points"]["xF"] = "10100"
        with pytest.raises(ScenarioError, match="horizon mismatch"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = json.loads(json.dumps(MINIMAL))
        doc["trees"]["T"] = {"kind": "prefix", "leaves": ["101"]}
        with pytest.raises(ScenarioError, match="horizon mismatch"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_word_block_mismatch(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["covers"]["S"] = {"kind": "small", "partition": "fine",
                               "patterns": [["101"], ["00"]]}
        with pytest.raises(ScenarioError, match=r"word '101' has length 3"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_names(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["requests"][0]["op"] = "shrink_everything"
        with pytest.raises(ScenarioError, match="unknown operation name"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = json.loads(json.dumps(MINIMAL))
        doc["covers"]["F"]["kind"] = "huge"
        with pytest.raises(ScenarioError, match="unknown cover kind"):
            load_scenario(write_scenario(tmp_path, doc))
        doc = json.loads(json.dumps(MINIMAL))
        doc["trees"]["T"]["kind"] = "bonsai"
        with pytest.raises(ScenarioError, match="unknown tree kind"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_request_kind_check(self, tmp_path):
        # a small cover is not accepted where a meager cover is required
        doc = json.loads(json.dumps(MINIMAL))
        doc["covers"]["S"] = {"kind": "small", "partition": "fine",
                               "patterns": [["10"], ["01"]]}
        doc["requests"][0]["cover"] = "S"
        with pytest.raises(ScenarioError, match="not a MeagerCover"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_index_set_range_check(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["index_sets"]["A"] = [0, 9]
        with pytest.raises(ScenarioError, match="out of range"):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("horizon, spec, message", [
        (4, {"kind": "prefix", "leaves": []}, "tree 'T': no leaves given"),
        (21, {"kind": "full"}, "tree 'T': refusing to materialize 2^21 leaves"),
    ], ids=["prefix-no-leaves", "full-past-the-cap"])
    def test_unbuildable_tree_is_a_named_error(self, horizon, spec, message):
        doc = {"name": "tree", "horizon": horizon, "trees": {"T": spec},
               "requests": [{"op": "shrink_perfect_meager", "cover": "F",
                             "tree": "T"}]}
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert str(exc.value) == message

    def test_empty_requests_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["requests"] = []
        with pytest.raises(ScenarioError, match="no requests"):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda d: d["requests"][0].update(folds=["x"]),
                     "request 0: folds must be", id="folds-not-int"),
        pytest.param(lambda d: d["requests"][0].update(folds=[-1]),
                     "request 0: folds must be", id="folds-negative"),
        pytest.param(lambda d: d["requests"][0].update(folds=[]),
                     "request 0: folds must be", id="folds-empty"),
        pytest.param(lambda d: d["requests"][0].update(folds=3),
                     "request 0: folds must be", id="folds-not-list"),
        pytest.param(lambda d: d.update(horizon="abc"),
                     "bad horizon 'abc'", id="horizon-not-int"),
        pytest.param(lambda d: d.update(requests=["x"]),
                     "request 0: expected an object", id="request-not-object"),
        pytest.param(lambda d: d["trees"].update(t=5),
                     "tree 't': expected an object", id="tree-not-object"),
        pytest.param(lambda d: d["covers"].update(c=5),
                     "cover 'c': expected an object", id="cover-not-object"),
        pytest.param(lambda d: d.update(index_sets={"A": ["x"]}),
                     "index set 'A': expected a list of integer coordinates",
                     id="index-set-not-int"),
        pytest.param(lambda d: d.update(requests=5),
                     "section 'requests': expected a list",
                     id="requests-not-list"),
        pytest.param(lambda d: d.update(trees=[1]),
                     "section 'trees': expected an object",
                     id="trees-not-object"),
        pytest.param(lambda d: (
            d["trees"].update(P={"kind": "full"}),
            d["requests"].append({"op": "shrink_perfect_meager", "cover": "F",
                                  "tree": "P", "uniform": "false"}),
        ), "request 1: uniform must be true or false, got 'false'",
            id="uniform-not-bool"),
        pytest.param(lambda d: d["trees"].update(t={"kind": "prefix", "leaves": []}),
                     "tree 't': no leaves given", id="prefix-tree-no-leaves"),
        pytest.param(lambda d: d.update(
            horizon=21, partitions={}, points={}, trees={"t": {"kind": "full"}},
        ), "tree 't': refusing to materialize 2^21 leaves",
            id="full-tree-too-wide"),
        pytest.param(lambda d: d.update(index_sets={"A": [1.5]}),
                     "index set 'A': expected a list of integer coordinates",
                     id="index-set-fraction"),
        pytest.param(lambda d: d.update(index_sets={"A": ["3"]}),
                     "index set 'A': expected a list of integer coordinates",
                     id="index-set-string"),
        pytest.param(lambda d: d.update(index_sets={"A": [True]}),
                     "index set 'A': expected a list of integer coordinates",
                     id="index-set-bool"),
        pytest.param(lambda d: d.update(horizon=12.9),
                     "bad horizon 12.9", id="horizon-fraction"),
        pytest.param(lambda d: d.update(horizon="12"),
                     "bad horizon '12'", id="horizon-string"),
        pytest.param(lambda d: d.update(horizon=True),
                     "bad horizon True", id="horizon-bool"),
        pytest.param(lambda d: d["covers"]["F"].update(threshold=1.5),
                     "cover 'F': bad threshold 1.5", id="threshold-fraction"),
        pytest.param(lambda d: d["covers"]["F"].update(threshold=True),
                     "cover 'F': bad threshold True", id="threshold-bool"),
        pytest.param(lambda d: d["covers"]["F"].update(threshold="2"),
                     "cover 'F': bad threshold '2'", id="threshold-string"),
        pytest.param(lambda d: d["covers"].update(E={
            "kind": "e", "partition": "fine", "threshold": 2.0,
            "patterns": [["00"]] * 6,
        }), "cover 'E': bad threshold 2.0", id="e-threshold-float"),
        pytest.param(lambda d: d["partitions"]["fine"].update(
            lengths=[2, 2, 2, 2, 1.5, 2.5],
        ), "partition 'fine': bad length 1.5", id="length-fraction"),
        pytest.param(lambda d: d["partitions"]["fine"].update(
            lengths=[2, 2, 2, 2, 2, 1, True],
        ), "partition 'fine': bad length True", id="length-bool"),
        pytest.param(lambda d: d["partitions"].update(
            fine={"blocks": [[0, "2"], [2, 12]]},
        ), "partition 'fine': bad block bound '2'", id="block-string"),
        pytest.param(lambda d: d["partitions"].update(
            fine={"blocks": [[0, 2.0], [2, 12]]},
        ), "partition 'fine': bad block bound 2.0", id="block-float"),
        pytest.param(lambda d: d["requests"][0].update(
            tamper={"bundle": "meager", "fold": "1", "block": 2},
        ), "request 0: bad tamper fold '1'", id="tamper-fold-string"),
        pytest.param(lambda d: d["requests"][0].update(
            tamper={"bundle": "meager", "fold": 1, "block": 2.7},
        ), "request 0: bad tamper block 2.7", id="tamper-block-fraction"),
        pytest.param(lambda d: d.update(name=None),
                     "bad name None: expected a string", id="name-null"),
        pytest.param(lambda d: d["requests"][0].update(
            tamper={"bundle": 1, "fold": 1, "block": 2},
        ), "request 0: bad tamper bundle 1: expected a string",
            id="tamper-bundle-int"),
        pytest.param(lambda d: d["requests"][0].update(tamper=[1]),
                     "request 0: bad tamper spec [1]: expected an object",
                     id="tamper-not-object"),
        pytest.param(lambda d: (
            d["covers"].update(golden_doc("chain-simplify")["covers"]),
            d["requests"].insert(0, {"op": "simplify_e_cover", "chain": "C",
                                     "folds": [0, 1]}),
        ), "request 0: simplify_e_cover takes no folds, so no 'folds'",
            id="folds-on-chain"),
        pytest.param(lambda d: (
            d["covers"].update(golden_doc("chain-simplify")["covers"]),
            d["requests"].insert(0, {"op": "simplify_e_cover", "chain": "C",
                                     "tamper": {"bundle": "e", "fold": 0,
                                                "block": 0}}),
        ), "request 0: simplify_e_cover takes no folds, so no 'tamper'",
            id="tamper-on-chain"),
        pytest.param(lambda d: (
            d["partitions"].update(unit={"lengths": [1] * 12}),
            d["covers"].update(S={"kind": "small", "partition": "unit",
                                  "patterns": ["01"] + [["1"]] * 11}),
        ), "cover 'S': block 0 patterns must be a list of 0/1 strings, "
           "got '01'", id="patterns-string"),
        pytest.param(lambda d: d["covers"].update(C={
            "kind": "chain", "stages": [{"nodes": "0", "measure": "1/2"}],
        }), "cover 'C' stage 0: nodes must be a list of 0/1 strings, got '0'",
            id="chain-nodes-string"),
        pytest.param(lambda d: d["covers"].update(C={
            "kind": "chain", "stages": "x",
        }), "cover 'C': stages must be a list of stage objects, got 'x'",
            id="chain-stages-string"),
        pytest.param(lambda d: d["covers"].update(C={
            "kind": "chain", "stages": ["x"],
        }), "cover 'C' stage 0: expected an object with 'nodes' and "
           "'measure', got 'x'", id="chain-stage-string"),
        pytest.param(lambda d: d["covers"].update(C={
            "kind": "chain", "stages": [1],
        }), "cover 'C' stage 0: expected an object with 'nodes' and "
           "'measure', got 1", id="chain-stage-int"),
        pytest.param(lambda d: d["covers"].update(C={
            "kind": "chain", "stages": [{"nodes": ["0"]}],
        }), "cover 'C' stage 0: missing 'measure'", id="chain-stage-no-measure"),
        pytest.param(lambda d: d["covers"].update(C={
            "kind": "chain", "stages": [{"measure": "1/4"}],
        }), "cover 'C' stage 0: missing 'nodes'", id="chain-stage-no-nodes"),
        pytest.param(lambda d: d["trees"]["T"].update(x=["x"]),
                     "tree 'T': unresolved point reference ['x']",
                     id="tree-point-not-string"),
        pytest.param(lambda d: d["requests"][0].update(cover=["F"]),
                     "request 0: unresolved cover reference ['F']",
                     id="request-cover-not-string"),
        pytest.param(lambda d: d["requests"][0].update(op=["shrink_mn"]),
                     "request 0: unknown operation name ['shrink_mn']",
                     id="op-not-string"),
    ])
    def test_malformed_field_is_an_input_error(self, tmp_path, capsys,
                                               mutate, message):
        doc = golden_doc("silver-meager")
        mutate(doc)
        code = main(["run", str(write_scenario(tmp_path, doc))])
        assert code == EXIT_INPUT
        assert f"error: {message}" in capsys.readouterr().err

    def test_bad_rational_in_chain(self):
        doc = golden_doc("chain-simplify")
        doc["covers"]["C"]["stages"][0]["measure"] = "one eighth"
        with pytest.raises(ScenarioError, match="bad rational"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_every_replaced_field_is_a_named_error_or_runs(self, name):
        # each field of the document, at any depth, replaced in turn by
        # each value of SWEEP_VALUES: loading and running either succeed
        # or raise ScenarioError, never another exception
        doc = golden_doc(name)
        flags = RunFlags(deterministic=True, exhaustive=False)
        escaped = []
        for path in field_paths(doc):
            for value in SWEEP_VALUES:
                try:
                    run(parse_scenario(json.dumps(with_field(doc, path, value))),
                        flags)
                except ScenarioError:
                    pass
                except Exception as err:
                    escaped.append((path, value, repr(err)))
        assert not escaped


SWEEP_VALUES = (
    None, True, 0, -1, 2.0, "zz", [], ["x"], {}, {"a": 1}, [[0, 1]], "0101",
    10**6,
)


def field_paths(node, prefix: tuple = ()):
    """The key path of every value below the document root, outer first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def with_field(doc: dict, path: tuple, value) -> dict:
    """A copy of the document with the field at `path` set to `value`."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestRunning:
    def test_all_goldens_pass(self):
        flags = RunFlags(deterministic=True)
        for name in GOLDEN_NAMES:
            report = run(load_bundled(name), flags)
            assert report.passed, name
            assert report.data["scenario"] == name

    def test_deterministic_reports_are_byte_identical(self):
        flags = RunFlags(deterministic=True)
        scn = load_bundled("silver-meager")
        first = render_report(run(scn, flags))
        second = render_report(run(scn, flags))
        assert first == second
        assert "generated_at" not in first

    def test_default_run_carries_timestamp_and_timings(self):
        report = run(load_bundled("silver-meager"))
        assert "generated_at" in report.data
        assert "timing_ms" in report.data["requests"][0]

    def test_exhaustive_respects_horizon_cap(self):
        scn = load_bundled("silver-meager")
        capped = run(scn, RunFlags(horizon_cap=10, deterministic=True))
        w = capped.data["requests"][0]["witnesses"][0]
        assert "exhaustive" not in w
        assert capped.passed

    def test_no_exhaustive_flag(self):
        scn = load_bundled("silver-e")
        report = run(scn, RunFlags(exhaustive=False, deterministic=True))
        w = report.data["requests"][0]["witnesses"][0]
        assert "exhaustive" not in w

    def test_exhaustive_past_the_default_cap(self, monkeypatch):
        # unit blocks at horizon 18 and meager threshold 14: past the default
        # cap of 14 the oracle only runs when the cap is raised
        horizon = 18
        doc = {
            "name": "silver-18",
            "horizon": horizon,
            "partitions": {"unit": {"lengths": [1] * horizon}},
            "points": {"xF": "011010011101001011", "xT": "110100101100101101"},
            "index_sets": {"A": list(range(0, horizon, 2))},
            "trees": {"T": {"kind": "silver", "x": "xT", "free": "A"}},
            "covers": {"F": {"kind": "meager", "x": "xF", "partition": "unit",
                             "threshold": 14}},
            "requests": [{"op": "shrink_silver_meager", "cover": "F",
                          "tree": "T"}],
        }
        scn = parse_scenario(json.dumps(doc))
        flags = RunFlags(horizon_cap=horizon, deterministic=True)
        assert RunFlags().horizon_cap == 14
        w = run(scn, RunFlags(deterministic=True)).data["requests"][0]
        assert "exhaustive" not in w["witnesses"][0]

        report = run(scn, flags)
        w = report.data["requests"][0]["witnesses"][0]
        assert report.passed
        assert w["exhaustive"] == {"0": True, "1": True, "2": True, "3": True}
        assert "exhaustive_counterexamples" not in w

        # the same witnesses with every coarse block consulted must fail
        shrink = scenario_mod.shrink_silver_meager

        def lowered(*args):
            result = shrink(*args)
            req = result.witnesses[0]
            per_fold = tuple(
                (b, replace(cover, threshold=0)) for b, cover in req.per_fold
            )
            return replace(result, witnesses=(replace(req, per_fold=per_fold),))

        monkeypatch.setattr(scenario_mod, "shrink_silver_meager", lowered)
        report = run(scn, flags)
        w = report.data["requests"][0]["witnesses"][0]
        assert not report.passed
        assert not w["certificate"]["passed"]
        assert set(w["certificate"]["thresholds"].values()) == {0}
        failed = sorted(b for b, ok in w["exhaustive"].items() if not ok)
        assert failed
        assert sorted(w["exhaustive_counterexamples"]) == failed
        result = lowered(scn.covers["F"], scn.trees["T"], (0, 1, 2, 3))
        for b in failed:
            found = w["exhaustive_counterexamples"][b]
            point = Point.from_bits(found["point"])
            moved = point ^ Point.from_bits(found["sum"])
            lo, hi = found["block"]
            assert meager_member(scn.covers["F"], moved)
            witness = dict(result.witnesses[0].per_fold)[int(b)]
            assert restrict(point, Block(lo, hi)) == restrict(
                witness.xF, Block(lo, hi)
            )
            assert not meager_member(witness, point)
        assert render_report(report) == render_report(run(scn, flags))

    def test_certificates_never_materialize_meager_targets(self, monkeypatch):
        # a meager block is checked against its one forbidden word, by the
        # certificate and the exhaustive oracle alike; the complement
        # `allowed` is 2^L - 1 words and must never be built
        def refuse(self, n):
            raise AssertionError("meager target words materialized")

        monkeypatch.setattr(MeagerCover, "allowed", refuse)
        exhausted = set()
        for name in bundled_scenario_names():
            report = run(load_bundled(name), RunFlags(deterministic=True))
            assert report.passed, name
            exhausted |= {
                w["kind"] for r in report.data["requests"]
                for w in r.get("witnesses", ()) if "exhaustive" in w
            }
        assert "meager" in exhausted

    def test_each_point_set_is_built_once(self, monkeypatch):
        # one exhaustive pass per request: the source once per horizon and
        # each distinct witness once, however many folds share them
        built = []
        point_set = oracle_mod._point_set

        def record(cover, width):
            built.append((cover, width))
            return point_set(cover, width)

        monkeypatch.setattr(oracle_mod, "_point_set", record)
        report = run(load_bundled("silver-meager"), RunFlags(deterministic=True))
        assert report.passed
        assert len(built) == 3
        assert len(set(built)) == 3

    def test_request_folds_override_flags(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["requests"][0]["folds"] = [0, 1]
        scn = load_scenario(write_scenario(tmp_path, doc))
        report = run(scn, RunFlags(folds=(0, 1, 2, 3), deterministic=True))
        w = report.data["requests"][0]["witnesses"][0]
        assert [c["fold"] for c in w["covers"]] == [0, 1]

    def test_budget_exceeded_is_per_request(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise BudgetExceeded("simulated")

        monkeypatch.setattr(scenario_mod, "certify_request", explode)
        doc = json.loads(json.dumps(MINIMAL))
        doc["requests"].append(dict(doc["requests"][0]))
        scn = load_scenario(write_scenario(tmp_path, doc))
        report = run(scn, RunFlags(deterministic=True))
        assert not report.passed
        assert len(report.data["requests"]) == 2
        for entry in report.data["requests"]:
            assert "oracle budget exceeded" in entry["witnesses"][0]["error"]

    def test_budget_exceeded_during_build(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise BudgetExceeded("simulated")

        monkeypatch.setattr(scenario_mod, "shrink_silver_meager", explode)
        scn = load_scenario(write_scenario(tmp_path, dict(MINIMAL)))
        report = run(scn, RunFlags(deterministic=True))
        assert not report.passed
        assert "oracle budget exceeded" in report.data["requests"][0]["error"]

    def test_construction_precondition_is_an_input_error(self):
        doc = golden_doc("perfect-e")
        doc["trees"]["Q"] = {"kind": "prefix", "leaves": ["0" * 12]}
        with pytest.raises(ScenarioError, match=r"request 0 \(shrink_perfect_e\): "
                           "input tree is not perfect"):
            run(parse_scenario(json.dumps(doc)), RunFlags(deterministic=True))
        doc = golden_doc("meager-null-combo")
        doc["requests"][0]["kind"] = "perfect"
        with pytest.raises(ScenarioError, match=r"request 0 \(shrink_mn\): "
                           "perfect kind needs an explicit prefix tree"):
            run(parse_scenario(json.dumps(doc)), RunFlags(deterministic=True))

    def test_chain_report_shape(self):
        report = run(load_bundled("chain-simplify"), RunFlags(deterministic=True))
        cover = report.data["requests"][0]["cover"]
        assert cover["blocks"] == [[0, 3], [3, 6], [6, 9], [9, 12]]
        assert cover["pattern_counts"] == [1, 2, 2, 2]
        assert cover["max_density"] == "1/4"
        assert cover["audit_passed"]

    def test_combo_report_targets_final_tree(self):
        report = run(load_bundled("meager-null-combo"), RunFlags(deterministic=True))
        entry = report.data["requests"][0]
        assert entry["tree"]["free"] == [0]
        assert [w["label"] for w in entry["witnesses"]] == [
            "meager", "small-1", "small-2"]
        assert all(w["certificate"]["passed"] for w in entry["witnesses"])


class TestTamper:
    def test_tamper_flips_certificate(self):
        doc = golden_doc("silver-meager")
        doc["requests"][0]["tamper"] = {"bundle": "meager", "fold": 1, "block": 2}
        scn = parse_scenario(json.dumps(doc))
        report = run(scn, RunFlags(deterministic=True))
        assert not report.passed
        w = report.data["requests"][0]["witnesses"][0]
        assert w["tampered"]
        assert not w["certificate"]["passed"]
        assert [1, 2] in w["certificate"]["failed_blocks"]
        # the untouched covers would pass the oracle, so it skips the bundle
        assert "exhaustive" not in w

    def test_every_golden_witness_is_tamperable(self):
        # drop one pattern from one consulted block of each certificate
        # bundle: the certificate must flip to fail every time
        flags = RunFlags(exhaustive=False, deterministic=True)
        for name in GOLDEN_NAMES:
            if name == "chain-simplify":
                continue
            clean = run(load_bundled(name), flags)
            entry = clean.data["requests"][0]
            for w in entry["witnesses"]:
                thresholds = {
                    int(b): t
                    for b, t in w["certificate"]["thresholds"].items()
                }
                checks = w["certificate"]["checks"]
                blocks = (checks + sum(thresholds.values())) // len(thresholds)
                fold, block = next(
                    (b, thr) for b, thr in sorted(thresholds.items())
                    if thr < blocks
                )
                doc = golden_doc(name)
                doc["requests"][0]["tamper"] = {
                    "bundle": w["label"], "fold": fold, "block": block}
                report = run(parse_scenario(json.dumps(doc)), flags)
                tampered = [
                    v for v in report.data["requests"][0]["witnesses"]
                    if v["label"] == w["label"]][0]
                assert not tampered["certificate"]["passed"], (name, w["label"])
                assert not report.passed

    def test_tamper_below_threshold_is_an_input_error(self):
        doc = golden_doc("perfect-meager")
        doc["requests"][0]["tamper"] = {"bundle": "meager", "fold": 3, "block": 0}
        scn = parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match="below the fold 3 threshold"):
            run(scn, RunFlags(deterministic=True))

    def test_tamper_unknown_bundle(self):
        doc = golden_doc("silver-meager")
        doc["requests"][0]["tamper"] = {"bundle": "ghost", "fold": 0, "block": 0}
        scn = parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match="unknown bundle 'ghost'"):
            run(scn, RunFlags(deterministic=True))


class TestOps:
    def test_list_ops_is_sorted_and_complete(self):
        ops = list_ops()
        assert ops == tuple(sorted(ops))
        assert len(ops) == 13
        assert "shrink_silver_meager" in ops
        assert "simplify_e_cover" in ops

    def test_op_table_matches_construction_signatures(self):
        for op, args in scenario_mod._OPS.items():
            fn = getattr(constructions_mod, op)
            params = list(inspect.signature(fn, eval_str=True).parameters.values())
            positional = [p for p in params if p.default is inspect.Parameter.empty]
            assert len(args) <= len(params), op
            assert len(positional) <= len(args), op
            for arg, param in zip(args, params):
                if isinstance(arg, str):
                    assert param.name == arg, op
                else:
                    _, want = arg
                    want = want if isinstance(want, tuple) else (want,)
                    got = typing.get_args(param.annotation) or (param.annotation,)
                    assert set(got) == set(want), (op, param.name)

    def test_point_source_is_the_op_input_cover(self):
        kinds = set()
        for name in GOLDEN_NAMES:
            for req in load_bundled(name).requests:
                names = [a if isinstance(a, str) else a[0]
                         for a in scenario_mod._OPS[req.op]]
                result = getattr(constructions_mod, req.op)(*(
                    RunFlags.folds if n == "folds" else req.args[n]
                    for n in names
                ))
                if isinstance(result, ECover):
                    continue
                source = req.args["meager" if req.op == "shrink_mn" else "cover"]
                for bundle in result.witnesses:
                    kinds.add(bundle.kind)
                    if bundle.kind == "small":
                        assert bundle.point_source is None, (name, req.op)
                    else:
                        assert bundle.point_source is source, (name, req.op)
        assert kinds == {"meager", "small", "e"}
