"""treesum benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload perfect-full --seed 1 --seconds 25 --trace 0

Run it from the root of a treesum checkout; it imports the package from
``src/`` there and needs nothing installed.  Workloads, metrics and the
reasons for them are in ``BENCHMARK.json`` and ``perfbench/rationale.json``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
several fresh processes timing ``import treesum`` plus parsing the
workload's scenarios; the rest come from one further fresh process that makes
timed passes for ``--seconds`` (see ``worker.py``).  ``--trace 1`` reports
the per-layer metrics from a separate run whose passes alternate untraced
and traced.  Either way every request's outcome is checked against
``expected.json``; ``failed`` counts the mismatches.

Each child process is waited for; on any error run.py exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from tracer import span_names  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_PROBES = 11
WARMUP_TIMEOUT_S = 30
SETUP_TIMEOUT_S = 5
RUN_GRACE_S = 60


class BenchError(RuntimeError):
    pass


def _child(mode: str, args, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed)]
    if mode == "run":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ)
    # bytecode goes to a scratch cache inside the checkout, so setup_s times
    # a warm import the way an installed package is imported
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} timed out after {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker {mode} printed no result") from None


def _metric_specs(section: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[section]


def _tail_note(passes: list[float]) -> list[str]:
    """The highest decile percentile with at least ten passes beyond it."""
    pct = int(10 * (1 - 10 / len(passes))) * 10
    if pct < 50:
        return []
    value = statistics.quantiles(passes, n=10)[pct // 10 - 1]
    return [f"run_s p{pct}: {value:.4f} s"]


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    _child("setup", args, WARMUP_TIMEOUT_S)  # fill the bytecode and file caches
    setups = [_child("setup", args, SETUP_TIMEOUT_S) for _ in range(SETUP_PROBES)]
    res = _child("run", args, args.seconds + RUN_GRACE_S)
    passes = res["pass_s"]
    verified = res["attempted"] - res["failed"]
    values = {
        "run_s": statistics.median(passes),
        "requests_per_s": verified / sum(passes),
        "setup_s": statistics.median(s["import_s"] + s["parse_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"run_s: median of {len(passes)} passes, "
        f"min {min(passes):.4f} s, max {max(passes):.4f} s",
        *_tail_note(passes),
        f"setup_s: median of {len(setups)} fresh processes; import "
        f"{statistics.median(s['import_s'] for s in setups):.4f} s, parse "
        f"{statistics.median(s['parse_s'] for s in setups):.4f} s",
    ]
    return values, res, notes


def _layer_value(layers: list[dict], name: str) -> float:
    span, key = name.rsplit(".", 1)
    if span not in span_names():
        raise BenchError(f"no traced span for metric {name!r}")
    per_pass = []
    for rows in layers:
        row = rows.get(span, {})
        if key == "dedup_ratio":
            pairs = row.get("pairs", 0)
            per_pass.append(row.get("out_words", 0) / pairs if pairs else 0.0)
        else:
            per_pass.append(row.get(key, 0))
    return statistics.median(per_pass)


def per_layer(args, names: list[str]) -> tuple[dict, dict, list[str]]:
    res = _child("run", args, args.seconds + RUN_GRACE_S)
    traced = statistics.median(res["traced_pass_s"])
    untraced = statistics.median(res["pass_s"])
    values = {
        "trace.run_s": traced,
        "trace.untraced_run_s": untraced,
        "trace.overhead_s": traced - untraced,
    }
    for name in names:
        if name not in values:
            values[name] = _layer_value(res["layers"], name)
    notes = [
        f"medians over {len(res['layers'])} traced and "
        f"{len(res['pass_s'])} untraced passes; spans in {res['trace_file']}",
    ]
    return values, res, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treesum" / "__init__.py").is_file():
        print(f"error: no treesum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        specs = _metric_specs("per_layer" if args.trace else "end_to_end")
        if args.trace:
            values, res, notes = per_layer(args, [m["name"] for m in specs])
        else:
            values, res, notes = end_to_end(args)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs
        }
    except (BenchError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err!r}", file=sys.stderr)
        return 1
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"requests: {res['attempted']} attempted, {res['failed']} failed")
    print(json.dumps({
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
