"""Write perfbench/expected.json: the pinned outcome of every request.

    python3 perfbench/record.py

Runs each workload once for seeds 1, 2 and 3 and requires the outcomes to
agree across seeds (the generators vary values, never shapes).  Every request
must pass except those carrying a ``tamper`` field, which must fail: that is
the negative control the checker in ``worker.py`` relies on.  Run it only
when a workload changes, on a commit whose reports are known good.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import import_treesum, one_pass  # noqa: E402

SEEDS = (1, 2, 3)


def main() -> int:
    scenario_mod = import_treesum(ROOT)
    flags = scenario_mod.RunFlags(deterministic=True)
    expected = {}
    for name in workloads.NAMES:
        runs = []
        for seed in SEEDS:
            texts = workloads.generate(name, seed, ROOT)
            _, outcomes = one_pass(scenario_mod, texts, flags)
            for scn, text in texts:
                tampered = ["tamper" in r for r in json.loads(text)["requests"]]
                got = outcomes[scn]
                if got is None:
                    raise SystemExit(f"{name} seed {seed}: scenario {scn} raised")
                passed = [o["passed"] for o in got]
                if passed != [not t for t in tampered]:
                    raise SystemExit(
                        f"{name} seed {seed} {scn}: passed flags {passed}, "
                        f"expected every untampered request to pass and "
                        f"every tampered one to fail"
                    )
            runs.append(outcomes)
        if any(r != runs[0] for r in runs[1:]):
            raise SystemExit(f"{name}: outcomes differ between seeds {SEEDS}")
        expected[name] = runs[0]
        print(f"{name}: {sum(map(len, runs[0].values()))} requests pinned")
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
