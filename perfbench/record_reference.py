#!/usr/bin/env python3
"""Record the analytic reference values the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs define
"correct"; it writes ``perfbench/reference.json`` with every analytic curve
at every seed offset and every rate profile, as ``cellmimo`` prints them.
"""

from __future__ import annotations

import json
import sys

import envinfo
import run
import workloads
from checks import coverage_by_z


def main() -> int:
    cli = run.import_cli()
    curves: dict[str, dict[str, float]] = {}
    for curve in workloads.ZERO_NOISE_CURVES + workloads.NOISY_CURVES:
        values: dict[str, float] = {}
        for offset in workloads.OFFSETS_DB:
            op = workloads.curve_op(curve, offset)
            _, rc, out, err = run.call(cli.main, op.argv)
            if rc != 0:
                print(f"{op.name}: exit {rc}: {err}", file=sys.stderr)
                return 1
            values.update(coverage_by_z(out))
        curves[curve.name] = dict(sorted(values.items(), key=lambda kv: float(kv[0])))
    rates: dict[str, dict[str, float]] = {}
    for rate in workloads.ZERO_NOISE_RATES + workloads.NOISY_RATES:
        _, rc, out, err = run.call(cli.main, rate.argv)
        if rc != 0:
            print(f"{rate.name}: exit {rc}: {err}", file=sys.stderr)
            return 1
        payload = json.loads(out)
        rates[rate.name] = {k: payload[k] for k in ("mean_rate", "q05", "q80")}
    reference = {"recorded_from": envinfo.environment(run.ROOT, 0)["git_commit"],
                 "curves": curves, "rates": rates}
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
