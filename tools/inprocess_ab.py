"""Interleaved in-process A/B of two mukaikit source trees on one perfbench workload.

    python3 tools/inprocess_ab.py A/src B/src crossing_sweep [--seed 1] [--rounds 30] [--best-of 3]
    python3 tools/inprocess_ab.py A/src B/src verdict_mix --strata h2_pos,h2_iso

Both trees are loaded into one interpreter, A as the package ``mukaikit_a``
and B as ``mukaikit_b`` (the library imports its own modules relatively).
Each side builds its own items with ``perfbench/workloads.py``, which is
imported from the repository and not changed, and the canonical outcome of
every item must be equal on the two sides. Each query is timed as
``perfbench/run.py::run_pass`` times it, on its own after a
``gc.collect()``, and a pass takes the sum of its query times. A round
times ``--best-of`` whole passes of each side, alternating which side goes
first, and keeps each side's fastest pass; the ratio B / A of those is the
round's reading. The script prints the median ratio, its quartiles and the
rounds B won; then the ratio B / A of the summed per-query minima, where
a query's minimum is its fastest time over every pass of every round;
and each side's per-query p50 and p90 over every timed query, which is
what a ``query_p50_rel`` or ``query_p90_rel`` claim turns on. A pass
ratio swings by several percent from round to round on a shared host,
while each minimum drops only the slow runs of its own query, so the
summed minima resolve a change of a few microseconds a query.
``--strata NAME[,NAME...]`` keeps only the pass items of the named strata
(``verdict_mix`` has ``h2_pos`` and ``h2_iso``, for example), so a change to
one kind of query is timed without the noise of the others.

Timing both sides in one process, interleaved, cancels most of the drift
of a shared host, which separate processes cannot resolve below a few
percent. Only the in-process workloads (``crossing_sweep``,
``verdict_mix``) can be compared this way; ``cli_batch`` runs children.
Its outputs are compared by ``tools/cli_bytes_ab.py A/src B/src``, which
checks that the two trees give the command line the same bytes.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("lattice", "moduli", "mukai", "surface", "twisted", "walls")
IN_PROCESS = ("crossing_sweep", "verdict_mix")


def load_tree(src: Path, name: str) -> dict:
    """Import ``src/mukaikit`` as the package ``name``; the module table a workload takes."""
    package_dir = src / "mukaikit"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def side(workloads, workload: str, lib: dict, seed: int, work_dir: Path, strata=None):
    """The workload and its pass items, those of ``strata`` only if given."""
    wl = workloads.WORKLOADS[workload](lib, work_dir)
    names = {s.name for s in wl.strata}
    if strata is not None and not strata <= names:
        raise SystemExit(f"unknown {workload} strata: {', '.join(sorted(strata - names))}; "
                         f"known: {', '.join(s.name for s in wl.strata)}")
    keys = [k for k in wl.keys(seed) if strata is None or k.split("/")[0] in strata]
    return wl, [wl.build(k) for k in keys]


def outcomes(workloads, wl, items) -> list[str]:
    texts = []
    for item in items:
        out, errors = wl.outcome(item, wl.query(item))
        if errors:
            raise SystemExit(f"{item['key']}: {'; '.join(errors)}")
        texts.append(workloads.digest_text(out))
    return texts


def best_pass(wl, items, best_of: int, query_ns: list, minima: list) -> int:
    """The fastest of ``best_of`` passes over ``items``, in ns; every query
    time is appended to ``query_ns``, and ``minima[i]`` is lowered to the
    time of item i if that is faster."""
    best = None
    for _ in range(best_of):
        elapsed = 0
        for i, item in enumerate(items):
            gc.collect()
            start = time.perf_counter_ns()
            wl.query(item)
            query_ns.append(time.perf_counter_ns() - start)
            elapsed += query_ns[-1]
            minima[i] = min(minima[i], query_ns[-1])
        best = elapsed if best is None else min(best, elapsed)
    return best


def p50_p90(values) -> tuple[float, float]:
    """The median and the p90 of ``perfbench/run.py``, in ms."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values) / 1e6, deciles[8] / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="src directory of side A (the base)")
    parser.add_argument("b", type=Path, help="src directory of side B (the change)")
    parser.add_argument("workload", choices=IN_PROCESS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--best-of", type=int, default=3)
    parser.add_argument("--strata", type=lambda text: set(text.split(",")), default=None,
                        metavar="NAME[,NAME...]", help="time only these strata (default: all)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        a_wl, a_items = side(workloads, args.workload, load_tree(args.a, "mukaikit_a"),
                             args.seed, Path(tmp), args.strata)
        b_wl, b_items = side(workloads, args.workload, load_tree(args.b, "mukaikit_b"),
                             args.seed, Path(tmp), args.strata)
        if outcomes(workloads, a_wl, a_items) != outcomes(workloads, b_wl, b_items):
            raise SystemExit("the two trees give different outcomes")
        strata = ",".join(sorted(args.strata)) if args.strata else "all"
        print(f"# {args.workload} seed {args.seed}, strata {strata}: {len(a_items)} queries "
              f"a pass, outcomes equal; {args.rounds} rounds of best-of-{args.best_of} passes")
        ratios, a_query_ns, b_query_ns = [], [], []
        a_min, b_min = [float("inf")] * len(a_items), [float("inf")] * len(b_items)
        for i in range(args.rounds):
            if i % 2:
                b_ns = best_pass(b_wl, b_items, args.best_of, b_query_ns, b_min)
                a_ns = best_pass(a_wl, a_items, args.best_of, a_query_ns, a_min)
            else:
                a_ns = best_pass(a_wl, a_items, args.best_of, a_query_ns, a_min)
                b_ns = best_pass(b_wl, b_items, args.best_of, b_query_ns, b_min)
            ratios.append(b_ns / a_ns)
            print(f"round {i + 1}: A {a_ns / 1e6:.1f} ms, B {b_ns / 1e6:.1f} ms, "
                  f"B/A {ratios[-1]:.3f}", flush=True)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    won = sum(r < 1 for r in ratios)
    (a50, a90), (b50, b90) = p50_p90(a_query_ns), p50_p90(b_query_ns)
    print(f"B/A pass time: median {median:.3f}, quartiles {q1:.3f} {q3:.3f}; "
          f"B faster in {won}/{len(ratios)} rounds")
    print(f"summed per-query minima over all rounds: A {sum(a_min) / 1e6:.1f} ms, "
          f"B {sum(b_min) / 1e6:.1f} ms, B/A {sum(b_min) / sum(a_min):.3f}")
    print(f"per query over {len(a_query_ns)} each: A p50 {a50:.4f} ms, p90 {a90:.4f} ms; "
          f"B p50 {b50:.4f} ms, p90 {b90:.4f} ms; B/A p50 {b50 / a50:.3f}, p90 {b90 / a90:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
