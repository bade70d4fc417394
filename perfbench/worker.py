"""One fresh process of the benchmark; started by ``run.py``.

    python3 perfbench/worker.py setup --root R --workload W --seed N
    python3 perfbench/worker.py run --root R --workload W --seed N
        --seconds S --trace 0|1

``setup`` times ``import treesum`` plus parsing the workload's scenarios and
prints ``{"import_s", "parse_s"}``.  ``run`` makes timed passes until the
time is spent.  A pass parses the scenarios afresh (untimed, so every pass
starts from cold tree caches, as a ``treesum run`` invocation does) and then
times ``run`` plus ``render_report`` for each of them.  Every request's
outcome is then compared with ``expected.json``.  With ``--trace 1`` the
passes alternate untraced and traced, and the spans of the traced ones are
written under ``.bench_build/perfbench/`` when the run ends.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3


def import_treesum(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import treesum  # noqa: F401  (the import is what setup times)
    from treesum import scenario

    if src not in Path(scenario.__file__).resolve().parents:
        raise ImportError(f"imported treesum from {scenario.__file__}, not {src}")
    return scenario


def outcome(entry: dict) -> dict:
    """The parts of one request's report entry that expected.json pins."""
    witnesses = entry.get("witnesses", [])
    return {
        "passed": entry["passed"],
        "leaf_count": entry.get("tree", {}).get("leaf_count"),
        "checks": [w.get("certificate", {}).get("checks") for w in witnesses],
        "failed_blocks": [
            w.get("certificate", {}).get("failed_blocks") for w in witnesses
        ],
        "exhaustive_folds": [
            sorted(int(b) for b in w.get("exhaustive", {})) for w in witnesses
        ],
    }


def one_pass(scenario_mod, texts, flags):
    """Parse, then time run + render for each scenario.

    Returns (seconds, {scenario name: [outcome per request] or None}); None
    marks a scenario whose run raised."""
    parsed = [(name, scenario_mod.parse_scenario(text, name_hint=name))
              for name, text in texts]
    reports = {}
    start = time.perf_counter()
    for name, scn in parsed:
        try:
            report = scenario_mod.run(scn, flags)
            scenario_mod.render_report(report)
        except Exception:  # a raising request is a failed request, not a crash
            traceback.print_exc(file=sys.stderr)
            reports[name] = None
        else:
            reports[name] = report
    elapsed = time.perf_counter() - start
    return elapsed, {
        name: None if rep is None else [outcome(e) for e in rep.data["requests"]]
        for name, rep in reports.items()
    }


def count_failures(outcomes: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed) for one pass; a request fails when it raised or
    any pinned part of its outcome differs from the expectation."""
    attempted = failed = 0
    for name, want in expected.items():
        got = outcomes.get(name)
        attempted += len(want)
        if got is None or len(got) != len(want):
            failed += len(want)
            continue
        failed += sum(g != w for g, w in zip(got, want))
    return attempted, failed


def _setup(args) -> dict:
    import workloads

    texts = workloads.generate(args.workload, args.seed, args.root)
    t0 = time.perf_counter()
    scenario_mod = import_treesum(args.root)
    t1 = time.perf_counter()
    for name, text in texts:
        scenario_mod.parse_scenario(text, name_hint=name)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "parse_s": t2 - t1}


def _run(args) -> dict:
    import workloads
    from tracer import Tracer, aggregate

    texts = workloads.generate(args.workload, args.seed, args.root)
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    if sorted(expected) != sorted(name for name, _ in texts):
        raise RuntimeError("expected.json does not match the generated scenarios")
    scenario_mod = import_treesum(args.root)
    flags = scenario_mod.RunFlags(deterministic=True)
    tracer = Tracer() if args.trace else None

    pass_s, traced_s, layers, spans, rounds = [], [], [], [], []
    attempted = failed = 0

    def checked_pass() -> float:
        nonlocal attempted, failed
        seconds, outcomes = one_pass(scenario_mod, texts, flags)
        a, f = count_failures(outcomes, expected)
        attempted, failed = attempted + a, failed + f
        return seconds

    begin = time.perf_counter()
    while True:
        step = time.perf_counter()
        pass_s.append(checked_pass())
        if tracer:
            tracer.install()
            try:
                traced_s.append(checked_pass())
            finally:
                tracer.uninstall()
            pass_spans = tracer.take()
            spans.append([s[:4] for s in pass_spans])
            layers.append(aggregate(pass_spans))
        now = time.perf_counter()
        rounds.append(now - step)
        # stop before a round that would overrun the measuring time, once
        # there are enough passes for a median or the time is already spent
        enough = len(pass_s) >= MIN_PASSES or now - begin >= args.seconds
        if enough and now - begin + statistics.median(rounds) > args.seconds:
            break

    result = {
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        out_dir = args.root / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                          "passes": spans}))
        result.update(traced_pass_s=traced_s, layers=layers,
                      trace_file=str(trace_file.relative_to(args.root)))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    result = _setup(args) if args.mode == "setup" else _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
