"""Compare two result files: ``compare.py A.json B.json``.

``A`` is the parent's ``result.json`` and ``B`` the change's, both written
by ``run.py --repeat N`` on the same seed and sizes. For every (end-to-end
metric, workload) pair the bound from ``BENCHMARK.json`` is applied as the
choosing-metrics guide asks (section 6, step 5):

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound, so the medians cannot be told apart; such a pair still reads
  ``ok`` when every run of B is better than every run of A, and
  ``regressed`` when every run is worse and the medians differ by more
  than the bound.

The exact-count metrics must repeat: any change in ``flash_ios_per_op`` or
a non-zero ``failed_share`` is ``regressed``. The exit code is non-zero if
any pair regressed.
"""

from __future__ import annotations

import json
import pathlib
import sys

import benchstats

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Metrics that are counts of the program, compared for equality.
EXACT = ("flash_ios_per_op", "failed_share")


def samples(result: dict) -> dict[tuple[str, str], list[float]]:
    out: dict = {}
    for run in result["runs"]:
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """Label one pair; also returns B's worsening as a share of A."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = benchstats.median(a), benchstats.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if max(benchstats.spread(a), benchstats.spread(b)) > bound:
        if all_better:
            return "ok", worse_by
        if not (all_worse and worse_by > bound):
            return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    sa, sb = samples(a), samples(b)
    bounded = {entry["name"]: entry for entry in spec["end_to_end"]}
    for key in sa.keys() & sb.keys():
        workload, name = key
        if name in bounded:
            entry = bounded[name]
            label, worse_by = verdict(
                sa[key], sb[key], entry["better"], entry["bound"]
            )
            rows.append((workload, name, label, worse_by, entry["bound"]))
        elif name in EXACT:
            same = set(sa[key]) == set(sb[key])
            rows.append((workload, name, "ok" if same else "regressed", 0.0, 0.0))
    return sorted(rows)


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':14s} {'metric':18s} {'verdict':11s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for workload, name, label, worse_by, bound in rows:
        print(f"{workload:14s} {name:18s} {label:11s} "
              f"{worse_by:9.4f} {bound:6.2f}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
