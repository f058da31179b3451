"""mukaikit benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {crossing_sweep,verdict_mix,cli_batch,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; mukaikit is imported from its ``src``.
The metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics. The lines above it print every metric by name, unit
and sample count, and the work counters.

Each run sets the workload up ``SETUPS`` times, each in a fresh worker
process, and reports the median as ``setup_s``; the last worker then runs
whole passes over the seeded queries, one query at a time (a closed loop
with one client), until ``--seconds`` have passed. After every query it
runs the reference kernel of ``refkernel.py`` (``bench.ref_ms``). The
host's speed drifts within seconds, so the ``*_rel`` metrics divide each
query time by the mean of the reference times just before and after it.
Raw times are printed but not gated (``BENCHMARK.json`` gates the
``*_rel`` metrics, memory and set-up time). ``--trace 1`` runs one plain
pass and then one with the timing wrappers of ``tracer.py``, for the
per-layer metrics.

``python3 perfbench/run.py --record-reference`` rewrites ``reference.json``,
the SHA-256 of every pool item's canonical output; outputs must match it
byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer, read_child_spans, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("crossing_sweep", "verdict_mix", "cli_batch")
SETUPS = 5
DEADLINE_S = 170  # a run must end within 180 s
END_TO_END = (
    ("query_p50_ms", "ms"), ("query_p90_ms", "ms"), ("throughput_qps", "1/s"),
    ("query_p50_rel", "ref"), ("query_p90_rel", "ref"), ("throughput_rel", "1/ref"),
    ("failed_ratio", "1"), ("peak_rss_mb", "MiB"), ("setup_s", "s"),
)

# -- Worker: set-up, passes, checks ----------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pass(wl, items, reference, tracer=None, span_dir=None):
    """One closed-loop pass: per query, time it, time the kernel, check it.

    The host's speed drifts within seconds, so each query time is also
    divided by the mean of the reference times just before and just after
    it; ``Workload.reference`` runs the kernel the way the queries run.
    """
    norm, ref = wl.reference()
    times, rels, norms, refs, digests, failures = [], [], [norm], [ref], [], []
    for qid, item in enumerate(items, 1):
        traced = None
        if tracer is not None:
            tracer.query = qid
        elif span_dir is not None:
            traced = span_dir / f"{qid}.tsv"
        gc.collect()
        start = time.perf_counter_ns()
        try:
            result, raised = wl.query(item, traced), None
        except Exception as exc:  # a failed query is counted, not fatal
            result, raised = None, exc
        end = time.perf_counter_ns()
        norm, ref = wl.reference()
        norms.append(norm)
        refs.append(ref)
        times.append(end - start)
        rels.append(2 * times[-1] / (norms[-2] + norms[-1]))
        if raised is not None:
            errors, digest = [f"raised {raised!r}"], "error"
        else:
            out, errors = wl.outcome(item, result)
            digest = sha256(workloads.digest_text(out))
            if reference.get(item["key"]) != digest:
                errors.append("canonical output differs from the reference digest")
        digests.append(digest)
        if errors:
            failures.append(f"{item['key']}: {'; '.join(errors)}")
    return {"times": times, "rels": rels, "refs": refs, "digests": digests,
            "failures": failures, "digest": sha256("".join(digests))}


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(times_ns, rels, refs_ns, failed, rss_kib) -> dict:
    n = len(times_ns)
    return {
        "query_p50_ms": statistics.median(times_ns) / 1e6,
        "query_p90_ms": p90(times_ns) / 1e6,
        "throughput_qps": n / (sum(times_ns) / 1e9),
        "query_p50_rel": statistics.median(rels),
        "query_p90_rel": p90(rels),
        "throughput_rel": n / sum(rels),
        "failed_ratio": failed / n,
        "peak_rss_mb": rss_kib / 1024,
        "bench.ref_ms": statistics.median(refs_ns) / 1e6,
    }


def per_layer(calls, self_ns, sizes, wall_ns) -> dict:
    m = {}
    for layer in LAYERS:
        names = [k for k in calls if k.split(".", 1)[0] == layer]
        ns = sum(self_ns[k] for k in names)
        m[f"{layer}.calls"] = sum(calls[k] for k in names)
        m[f"{layer}.self_ms"] = ns / 1e6
        m[f"{layer}.share"] = ns / wall_ns
    for name in ("walls.walls_crossing_segment", "walls.walls_through_class", "lattice.pairing",
                 "surface.K3Model.pair_ns", "lattice.orthogonal_complement",
                 "exactlin.smith_normal_form", "exactlin.rational_signature", "exactlin.matmul",
                 "exactlin.integer_kernel_saturated", "moduli.h2_lattice"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
    hits = sizes.get("shortvec.short_vectors.hits", 0)
    m["shortvec.short_vectors.hits"] = hits
    m["walls.returned"] = sizes.get("walls.returned", 0)
    m["walls.useful_ratio"] = m["walls.returned"] / hits if hits else 0.0
    return m


def worker(args) -> int:
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, ROOT, OUT)
    keys = wl.keys(args.seed)
    items = [wl.build(k) for k in keys]
    by_key = dict(zip(keys, items))
    for key in wl.warm_up_keys(keys):
        wl.query(by_key[key])
    wl.reference()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload, {})
    cli = args.workload == "cli_batch"
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(wl, items, reference))
        if args.trace or time.perf_counter() - started >= args.seconds:
            break
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss
    times = [t for p in passes for t in p["times"]]
    rels = [r for p in passes for r in p["rels"]]
    refs = [t for p in passes for t in p["refs"]]
    failures = [f for p in passes for f in p["failures"]]
    counters = {"queries": len(items), "outputs.sha256": passes[0]["digest"]}
    flags = [f"pass {i + 1} output digest differs from pass 1"
             for i, p in enumerate(passes) if p["digest"] != counters["outputs.sha256"]]
    attempted = len(times)
    metrics = end_to_end(times, rels, refs, len(failures), rss)

    if args.trace:
        span_dir = OUT / f"spans-{args.workload}-{args.seed}"
        if cli:
            span_dir.mkdir(exist_ok=True)
            traced = run_pass(wl, items, reference, span_dir=span_dir)
            spans, names, sizes = [], {}, defaultdict(int)
            import_ns, overhead_ns = [], []
            for qid, wall in enumerate(traced["times"], 1):
                path = span_dir / f"{qid}.tsv"
                if not path.exists():
                    traced["failures"].append(f"query {qid}: the traced child wrote no spans")
                    continue
                trailer = read_child_spans(path, qid, names, spans)
                import_ns.append(trailer["import_ns"])
                overhead_ns.append(wall - trailer["run_ns"])
                for name, size in trailer["sizes"].items():
                    sizes[name] += size
            index_names = {i: n for n, i in names.items()}
            calls, self_ns = self_times(spans, index_names.__getitem__)
            extra = {"cli.import_ms": statistics.median(import_ns) / 1e6,
                     "cli.process_overhead_ms": statistics.median(overhead_ns) / 1e6}
        else:
            tracer = Tracer()
            tracer.install()
            traced = run_pass(wl, items, reference, tracer=tracer)
            calls, self_ns = self_times(tracer.spans, tracer.names.__getitem__)
            sizes = tracer.sizes
            extra = {"cli.import_ms": 0.0, "cli.process_overhead_ms": 0.0}
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.tsv")
        if traced["digest"] != counters["outputs.sha256"]:
            flags.append("traced pass output digest differs from the plain pass")
        failures += traced["failures"]
        attempted += len(traced["times"])
        wall_ns = sum(traced["times"])
        layer = per_layer(calls, self_ns, sizes, wall_ns)
        layer.update(extra)
        layer["bench.ref_ms"] = statistics.median(traced["refs"]) / 1e6
        layer["bench.trace_overhead"] = sum(passes[0]["rels"]) / sum(traced["rels"])
        metrics.update(layer)
        counters["walls.returned"] = layer["walls.returned"]
        counters["shortvec.short_vectors.hits"] = layer["shortvec.short_vectors.hits"]
        for name in sorted(calls):
            if name.startswith("exactlin."):
                counters[f"{name}.calls"] = calls[name]

    result = {"metrics": metrics, "attempted": attempted, "failed": len(failures),
              "failures": failures[:20], "counters": counters, "flags": flags,
              "passes": len(passes), "samples": len(times), "redrawn": wl.redrawn}
    print(json.dumps(result), flush=True)
    return 0


# -- Parent: set-ups, report ---------------------------------------------------------


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def start_worker(args, setup_only: bool):
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        ready = time.perf_counter() - started
        if line != "READY":
            raise RuntimeError(f"worker set-up failed: {line!r}")
        return proc, ready
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def check_counters(args, counters: dict) -> list[str]:
    """Compare work counters with the first run on this seed in this checkout."""
    path = OUT / "counters" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, indent=1, sort_keys=True), encoding="utf-8")
        return []
    first = json.loads(path.read_text(encoding="utf-8"))
    return [f"counter {k} = {counters.get(k)}, first run on this seed had {v}"
            for k, v in sorted(first.items()) if counters.get(k) != v]


def run_workload(args) -> dict:
    """Set up SETUPS times, run the timed worker, print the report lines."""
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for last in [False] * (SETUPS - 1) + [True]:
        proc, ready = start_worker(args, setup_only=not last)
        setups.append(ready)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"the run did not end within {DEADLINE_S} s")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    metrics = res["metrics"]
    metrics["setup_s"] = statistics.median(setups)
    flags = res["flags"] + check_counters(args, res["counters"])

    s = spec()
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {res['attempted']} queries, "
          f"{res['passes']} timed pass(es), {res['failed']} failed, "
          f"{res['redrawn']} draws redrawn at set-up")
    print("# end to end (untraced passes; * = gated in BENCHMARK.json):")
    gated = {m["name"] for m in s["end_to_end"]}
    for name, unit in END_TO_END:
        n = f"{SETUPS} set-ups" if name == "setup_s" else f"{res['samples']} queries"
        mark = "*" if name in gated else " "
        print(f" {mark}{name:<20} {metrics[name]:>14.6g} {unit:<6} (n={n})")
    if args.trace:
        print("# per layer (traced pass):")
        for m in s["per_layer"]:
            print(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    print("# work counters (repeat exactly for one seed):")
    for name, value in res["counters"].items():
        print(f"  {name} = {value}")
    for line in res["failures"]:
        print(f"# FAILED {line}")
    for flag in flags:
        print(f"# FLAG {flag}")
        print(f"perfbench: {flag}", file=sys.stderr)
    key = "per_layer" if args.trace else "end_to_end"
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in s[key]},
    }


def record_reference() -> int:
    """Run every pool item once and store the SHA-256 of its canonical output."""
    OUT.mkdir(exist_ok=True)
    table, bad = {}, 0
    for name in WORKLOADS:
        wl = workloads.make(name, ROOT, OUT)
        table[name] = {}
        for key in wl.all_keys():
            item = wl.build(key)
            out, errors = wl.outcome(item, wl.query(item))
            if errors:
                bad += 1
                print(f"{name} {key}: {'; '.join(errors)}", file=sys.stderr)
            table[name][key] = sha256(workloads.digest_text(out))
        print(f"{name}: {len(table[name])} items", file=sys.stderr)
    if bad:
        print(f"{bad} items fail their checks; reference not written", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mukaikit" / "__init__.py").is_file():
        print(f"perfbench: no mukaikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.worker:
        return worker(args)
    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        args.workload = name
        res = run_workload(args)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
