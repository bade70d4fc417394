from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treesum.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "treesum" / "scenarios"


def golden(name: str) -> str:
    return str(SCENARIOS / f"{name}.json")


def run_perfect_meager(tmp_path, horizon, lengths, splits, tamper=None, flags=()):
    """`treesum run` on one shrink_perfect_meager request in a child process
    under a 2 GB address-space limit, so a regression fails the test instead
    of exhausting the host's memory.  The input tree has one leaf per subset
    of `splits`, set to 1 there and 0 elsewhere: 32 leaves for 5 splits."""
    resource = pytest.importorskip("resource")
    leaves = [
        "".join("1" if c in chosen else "0" for c in range(horizon))
        for k in range(len(splits) + 1)
        for chosen in itertools.combinations(splits, k)
    ]
    request = {"op": "shrink_perfect_meager", "cover": "F", "tree": "T"}
    if tamper:
        request["tamper"] = tamper
    doc = {
        "name": f"perfect-meager-{horizon}",
        "horizon": horizon,
        "partitions": {"fine": {"lengths": lengths}},
        "points": {"xF": "01" * (horizon // 2)},
        "trees": {"T": {"kind": "prefix", "leaves": leaves}},
        "covers": {"F": {"kind": "meager", "x": "xF",
                         "partition": "fine", "threshold": 0}},
        "requests": [request],
    }
    path = tmp_path / "perfect-meager.json"
    path.write_text(json.dumps(doc))
    limit = 2 << 30
    return subprocess.run(
        [sys.executable, "-m", "treesum", "run", "--deterministic", *flags,
         str(path)],
        env=dict(os.environ, PYTHONPATH=str(SCENARIOS.parents[1])),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (limit, limit)
        ),
    )


class TestRunVerb:
    def test_pass_exits_zero_and_prints_report(self, capsys):
        code = main(["run", golden("silver-meager"), "--deterministic"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        report = json.loads(out)
        assert report["passed"]
        assert report["scenario"] == "silver-meager"

    def test_deterministic_output_is_byte_identical(self, capsys):
        main(["run", golden("silver-e"), "--deterministic"])
        first = capsys.readouterr().out
        main(["run", golden("silver-e"), "--deterministic"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_writes_file_and_prints_summary(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["run", golden("splitting-null"), "--deterministic",
                     "--out", str(target)])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert out.strip() == "splitting-null: pass"
        assert json.loads(target.read_text())["passed"]

    def test_tampered_scenario_exits_one(self, tmp_path, capsys):
        doc = json.loads(Path(golden("silver-meager")).read_text())
        doc["requests"][0]["tamper"] = {"bundle": "meager", "fold": 0,
                                         "block": 1}
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path), "--deterministic"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_FAIL
        assert not report["passed"]

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "parse error at line 1" in err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.json")])
        assert code == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, field, value", [
        ("trees", "T", "x", ["x"]),
        ("requests", 0, "cover", ["F"]),
        ("requests", 0, "op", ["shrink_mn"]),
    ], ids=["tree-point", "request-cover", "request-op"])
    def test_non_string_name_exits_two_without_traceback(
        self, tmp_path, section, key, field, value
    ):
        doc = json.loads(Path(golden("silver-meager")).read_text())
        doc[section][key][field] = value
        path = tmp_path / "list-name.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "treesum", "run", str(path)],
            env=dict(os.environ, PYTHONPATH=str(SCENARIOS.parents[1])),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_INPUT
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and repr(value) in proc.stderr

    def test_unresolved_reference_exits_two(self, tmp_path, capsys):
        doc = json.loads(Path(golden("silver-meager")).read_text())
        doc["requests"][0]["cover"] = "ghost"
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        assert code == EXIT_INPUT
        assert "unresolved" in capsys.readouterr().err

    def test_fold_flag_variants(self, capsys):
        code = main(["run", golden("silver-meager"), "--folds", "0..1",
                     "--deterministic"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        folds = [c["fold"] for c in
                 report["requests"][0]["witnesses"][0]["covers"]]
        assert folds == [0, 1]
        code = main(["run", golden("silver-meager"), "--folds", "0,2",
                     "--deterministic"])
        report = json.loads(capsys.readouterr().out)
        folds = [c["fold"] for c in
                 report["requests"][0]["witnesses"][0]["covers"]]
        assert folds == [0, 2]

    def test_bad_fold_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", golden("silver-meager"), "--folds", "three"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--horizon-cap", "-3", "bad horizon cap '-3'",
                     id="horizon-cap-negative"),
        pytest.param("--horizon-cap", "0", "bad horizon cap '0'",
                     id="horizon-cap-zero"),
        pytest.param("--folds", "3..1",
                     "bad fold range '3..1'; the range is empty",
                     id="folds-empty-range"),
    ])
    def test_bad_flag_value_exits_two(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["run", golden("silver-meager"), flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "horizon, lengths, tamper, failed",
        [
            (80, [1] * 80, None, []),
            (88, [1] * 5 + [2] * 16 + [1] * 51, None, []),
            (88, [1] * 5 + [2] * 16 + [1] * 51,
             {"bundle": "meager", "fold": 2, "block": 2}, [[2, 2]]),
        ],
        ids=["horizon-80", "horizon-88", "horizon-88-tamper"],
    )
    def test_generation_two_meager_certifies_past_the_cap(
        self, tmp_path, horizon, lengths, tamper, failed
    ):
        # the fine blocks reach super-block 2, 64 fine blocks wide;
        # certifying it must build neither the 2^64 - 1 words a meager
        # witness block admits nor the 3^16 words the horizon-88 source
        # admits there, and neither may the tamper.
        proc = run_perfect_meager(
            tmp_path, horizon, lengths, (0, 20, 40, 60, horizon - 1), tamper
        )
        assert proc.returncode == (EXIT_FAIL if failed else EXIT_PASS), proc.stderr
        report = json.loads(proc.stdout)
        entry = report["requests"][0]
        assert report["passed"] == (not failed)
        assert entry["tree"]["leaf_count"] == 8
        assert entry["provenance"]["details"]["generations"] == "3"
        w = entry["witnesses"][0]
        assert w["certificate"]["passed"] == (not failed)
        assert w["certificate"]["failed_blocks"] == failed
        assert w["certificate"]["checks"] == 6
        assert "exhaustive" not in w

    def test_generation_three_meager_certifies_at_horizon_4200(self, tmp_path):
        # unit fine blocks fill super-blocks of 1, 4, 64 and 4096 fine
        # blocks, so the hierarchy has 4 generations and the fold
        # thresholds stop at 4; the leaves are 4200-bit ints
        proc = run_perfect_meager(
            tmp_path, 4200, [1] * 4200, (0, 20, 100, 4170, 4199),
            flags=("--folds", "0..5"),
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        entry = json.loads(proc.stdout)["requests"][0]
        assert entry["tree"]["leaf_count"] == 16
        assert entry["provenance"]["details"]["generations"] == "4"
        certificate = entry["witnesses"][0]["certificate"]
        assert certificate["passed"] and certificate["checks"] == 10
        assert certificate["thresholds"] == {
            "0": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 4
        }

    def test_no_exhaustive_flag(self, capsys):
        code = main(["run", golden("silver-meager"), "--no-exhaustive",
                     "--deterministic"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert "exhaustive" not in report["requests"][0]["witnesses"][0]
        assert report["flags"]["exhaustive"] is False


class TestOtherVerbs:
    def test_selftest_passes(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert out.strip().endswith("selftest: pass")
        assert "silver-meager: pass" in out
        assert "silver-e: pass" in out

    def test_list_ops(self, capsys):
        code = main(["list-ops"])
        out = capsys.readouterr().out.split()
        assert code == EXIT_PASS
        assert len(out) == 13
        assert out == sorted(out)

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "treesum", "list-ops"], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert len(proc.stdout.split()) == 13

    def test_missing_verb_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
