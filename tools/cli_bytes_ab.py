"""Byte comparison of the mukaikit command line between two source trees.

    python3 tools/cli_bytes_ab.py A/src B/src

Both trees answer the same cases through ``cli.run`` in process, one child
interpreter per tree, with the configs in one shared temporary directory:
- every argv of the cli_batch pool that ``perfbench/workloads.py`` builds
  (all items of every stratum; the module is imported, not changed);
- every config of that pool, and every module-level ``*_CONFIG`` of
  ``tests/test_cli.py`` as it is and, if it has a ``mukai`` object, with
  Mukai rank 0, 1, 3 and 3/2, under the 11 subcommands of that pool in text and json;
- ``exists --r --d --g`` for r in 1..8, every d in -1..2r and every g from
  2r below the cap g <= -(r^2 - 1)(r - 1) to 1 above it;
- ``h2`` in text and json on 40 seeded configs with an explicit NS
  embedding that reaches E8(-1) (one or two E8(-1) rows, with or without a
  row in a U summand): 10 with v^2 = 0, one with v^2 = 200 and 29 with
  seeded even v^2 between;
- ``h2`` in text and json on invalid NS embeddings: wrong shapes (rows
  too short, too few or too many rows, ragged rows), a non-isometric
  embedding, an isometric one that is not primitive, and the empty 0 x 22
  embedding on a nonzero NS, each with an integral Mukai vector and with
  rank 3/2, so that the order of the integrality message and the
  embedding messages is compared too;
- ``generic``, ``walls`` and ``report`` in text and json on 48 seeded
  configs with T = <2> on a negative definite NS, where ``generic`` decides
  ``wall_set_is_empty`` by the one wall search: rank 2 and 3, each with a
  diagonal Gram and a congruent, non-diagonal one, and for each of the four
  a third of the configs with an empty wall set (bound < 2 on an even NS),
  a third with a nonempty one (a basis vector is a wall) and a third with a
  bound between, where only the search decides.
Each case's (exit code, stdout, stderr) must be equal on the two trees. The
script prints the cases that differ and exits 1 if there are any.
The subcommands are those of perfbench's pool, so ``algebraic`` is not
compared: a tree from before it was added has no such subcommand. Between
such a tree and a later one, the exit-64 cases differ on stderr only, as the
later tree's subcommand list names ``algebraic``.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import random
import subprocess
import sys
import tempfile
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RANK_VARIANTS = (0, 1, 3, "3/2")
H2_SEED, H2_CONFIGS = 33, 40
NEG_DEF_SEED, NEG_DEF_PER_KIND = 38, 4
# The Gram of E8(-1) has -2 on its diagonal and 1 at each edge of the Dynkin diagram.
E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def cli_test_configs() -> dict[str, dict]:
    """The module-level ``*_CONFIG`` dicts of ``tests/test_cli.py``, in order.

    Each is a dict display that may unpack an earlier one, so each is
    evaluated with the earlier ones in scope and nothing else.
    """
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    configs: dict[str, dict] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_CONFIG")):
            code = compile(ast.Expression(node.value), "test_cli.py", "eval")
            configs[node.targets[0].id] = eval(code, {"__builtins__": {}}, dict(configs))
    return configs


def k3_gram() -> list[list[int]]:
    """The Gram of U^3 (+) E8(-1)^2, in the coordinates of ``lattice.k3_lattice()``."""
    g = [[0] * 22 for _ in range(22)]
    for i in (0, 2, 4):
        g[i][i + 1] = g[i + 1][i] = 1
    for start in (6, 14):
        for i in range(8):
            g[start + i][start + i] = -2
        for i, j in E8_EDGES:
            g[start + i][start + j] = g[start + j][start + i] = 1
    return g


def h2_embedding_configs(rng: random.Random) -> list[dict]:
    """Configs whose NS embedding reaches E8(-1): a quarter isotropic, one with
    v^2 = 200 and the rest with seeded even v^2 between.

    NS is spanned by a primitive row in each of one or both E8(-1) summands,
    and maybe by (1, k) in a U summand; the rows have disjoint supports, so
    the embedding is primitive and NS is orthogonal and nondegenerate. NS is
    hyperbolic when k > 0 and the reference class is that row; otherwise NS
    is negative definite and T = <2> carries it.
    """
    lam = k3_gram()
    targets = [0] * (H2_CONFIGS // 4) + [200]
    targets += [2 * rng.randint(1, 99) for _ in range(H2_CONFIGS - len(targets))]
    configs = []
    for target in targets:
        while True:
            emb = []
            if rng.random() < 0.5:
                row, i = [0] * 22, 2 * rng.randrange(3)
                row[i], row[i + 1] = 1, rng.choice((-3, -2, -1, 1, 2, 3))
                emb.append(row)
            for start in rng.sample((6, 14), rng.randint(1, 2)):
                part = [0] * 8
                while not any(part) or gcd(*part) != 1:
                    part = [rng.choice((0, 0, rng.randint(-2, 2))) for _ in range(8)]
                emb.append([0] * start + part + [0] * (14 - start))
            ns = [[sum(x * lam[i][j] * y for i, x in enumerate(a) if x for j, y in enumerate(b) if y)
                   for b in emb] for a in emb]
            xi = [rng.randint(-3, 3) for _ in emb]
            xi2 = sum(x * ns[i][j] * y for i, x in enumerate(xi) for j, y in enumerate(xi))
            r = rng.randint(1, 3)
            if (xi2 - target) % (2 * r):
                continue
            a = (xi2 - target) // (2 * r)
            image = [sum(x * row[j] for x, row in zip(xi, emb)) for j in range(22)]
            if gcd(r, a, *image) == 1:
                break
        hyperbolic = ns[0][0] > 0
        surface = {"ns_gram": ns, "reference_positive": [int(k == 0) for k in range(len(ns))]
                   if hyperbolic else [0] * len(ns) + [1]}
        if not hyperbolic:
            surface["t11_gram"] = [[2]]
        configs.append({"surface": surface, "mukai": {"r": r, "xi": xi, "a": a}, "embedding": emb})
    return configs


def h2_invalid_embedding_configs() -> list[dict]:
    """Configs whose embedding the ``h2`` command must refuse, each with an integral
    Mukai vector and with rank 3/2."""
    hyperbolic = {"ns_gram": [[2, 0], [0, -2]], "reference_positive": [1, 0]}
    definite = {"ns_gram": [[-8]], "t11_gram": [[2]], "reference_positive": [0, 1]}
    u_row = lambda k, plane: [0] * (2 * plane) + [1, k] + [0] * (20 - 2 * plane)
    root = [0] * 6 + [2] + [0] * 15  # twice a root of E8(-1): square -8, not primitive
    cases = [
        (hyperbolic, [row[:21] for row in (u_row(1, 0), u_row(-1, 1))]),  # 2 x 21
        (hyperbolic, [u_row(1, 0)]),  # 1 x 22
        (hyperbolic, [u_row(1, 0), u_row(-1, 1), u_row(0, 2)]),  # 3 x 22
        (hyperbolic, [u_row(1, 0), u_row(-1, 1)[:21]]),  # ragged
        (hyperbolic, [u_row(2, 0), u_row(-1, 1)]),  # square 4, not 2
        (hyperbolic, [u_row(1, 0), [0, 1, 1, -1] + [0] * 18]),  # rows pair to 1, not 0
        (definite, [root]),
        (hyperbolic, []),  # 0 x 22 on a rank-2 NS
        (definite, []),
    ]
    configs = []
    for surface, emb in cases:
        xi, a = ([1, 0], -1) if len(surface["ns_gram"]) == 2 else ([1], -3)
        for r in (2, "3/2"):
            configs.append({"surface": surface, "mukai": {"r": r, "xi": xi, "a": a},
                            "embedding": emb})
    return configs


def negative_definite_configs(rng: random.Random) -> list[dict]:
    """Configs on a negative definite even NS of rank 2 or 3, T = <2>.

    For each rank, a diagonal Gram and a congruent one P^T D P (P a product
    of elementary integer row operations, the result not diagonal), and for
    each a wall bound r^2 (v^2 + 2 r^2) / 4 below 2 (no wall: every D^2 is
    even and negative), at least the least -e_i^2 (the basis vector e_i is a
    wall) or between the two, and at most 300 so that each search stays
    small. omega has a small integral NS part, maybe 0.
    """
    configs = []
    for rank, congruent, kind in ((n, c, k) for n in (2, 3) for c in (False, True)
                                  for k in ("empty", "between", "basis wall")):
        for _ in range(NEG_DEF_PER_KIND):
            while True:
                diag = [-2 * rng.randint(1, 4) for _ in range(rank)]
                p = [[int(i == j) for j in range(rank)] for i in range(rank)]
                for _ in range(rng.randint(1, 4) if congruent else 0):
                    i, j = rng.sample(range(rank), 2)
                    q = rng.choice((-2, -1, 1, 2))
                    p[i] = [a + q * b for a, b in zip(p[i], p[j])]
                gram = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(rank)) for j in range(rank)]
                        for i in range(rank)]
                r, xi = rng.randint(1, 4), [rng.randint(-2, 2) for _ in range(rank)]
                xi2 = sum(x * g * y for x, row in zip(xi, gram) for g, y in zip(row, xi))
                a = rng.randint(-8, 8)
                bound4 = r * r * (xi2 - 2 * r * a + 2 * r * r)  # 4 * bound
                least = min(-row[i] for i, row in enumerate(gram))
                got = ("empty" if bound4 < 8 else "basis wall" if bound4 >= 4 * least
                       else "between")
                off = any(row[j] for i, row in enumerate(gram) for j in range(rank) if i != j)
                if got == kind and off == congruent and bound4 <= 4 * 300:
                    break
            ns = [rng.randint(-1, 1) for _ in range(rank)]
            ns2 = sum(x * g * y for x, row in zip(ns, gram) for g, y in zip(row, ns))
            t = rng.randint(1, 3)
            while ns2 + 2 * t * t <= 0:
                t += 1
            configs.append({"surface": {"ns_gram": gram, "t11_gram": [[2]],
                                        "reference_positive": [0] * rank + [1]},
                            "mukai": {"r": r, "xi": xi, "a": a},
                            "omega": {"ns": ns, "t": [t]}})
    return configs


def build_cases(tmp: Path) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    wl = workloads.CliBatch({}, tmp / "work")
    cases = [wl.build(key)["argv"] for key in wl.all_keys()]
    configs = sorted(wl.cfg_dir.glob("*.json"))
    for name, cfg in cli_test_configs().items():
        # A config whose mukai section is missing or not an object has no rank to vary.
        ranks = RANK_VARIANTS if isinstance(cfg.get("mukai"), dict) else ()
        for r in (None, *ranks):
            variant = json.loads(json.dumps(cfg))
            if r is not None:
                variant["mukai"]["r"] = r
            path = tmp / f"{name}-r{str(r).replace('/', '_')}.json"
            path.write_text(json.dumps(variant), encoding="utf-8")
            configs.append(path)
    cases += [[sub, "--config", str(path), "--format", fmt]
              for path in configs for sub in workloads.SUBCOMMANDS for fmt in ("text", "json")]
    for r in range(1, 9):
        cap = -(r * r - 1) * (r - 1)
        cases += [["exists", "--r", str(r), "--d", str(d), "--g", str(g), "--format", fmt]
                  for d in range(-1, 2 * r + 1) for g in range(cap - 2 * r, cap + 2)
                  for fmt in ("text", "json")]
    for k, cfg in enumerate(h2_embedding_configs(random.Random(H2_SEED))):
        path = tmp / f"h2-e8-{k}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        cases += [["h2", "--config", str(path), "--format", fmt] for fmt in ("text", "json")]
    for k, cfg in enumerate(h2_invalid_embedding_configs()):
        path = tmp / f"h2-invalid-{k}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        cases += [["h2", "--config", str(path), "--format", fmt] for fmt in ("text", "json")]
    for k, cfg in enumerate(negative_definite_configs(random.Random(NEG_DEF_SEED))):
        path = tmp / f"neg-def-{k}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        cases += [[sub, "--config", str(path), "--format", fmt]
                  for sub in ("generic", "walls", "report") for fmt in ("text", "json")]
    return cases


def child(src: str, cases_path: str) -> int:
    """Answer every case with the ``mukaikit`` of ``src``; print the results as JSON."""
    sys.path.insert(0, src)
    import mukaikit
    from mukaikit.cli import run

    if Path(mukaikit.__file__).resolve().parent != (Path(src) / "mukaikit").resolve():
        raise SystemExit(f"mukaikit imported from {mukaikit.__file__}, not from {src}")
    results = []
    for argv in json.loads(Path(cases_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        try:
            code = run(argv, out, err)
        except Exception as exc:  # an escaped exception is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)
    return 0


def answers(src: Path, cases_path: Path, cwd: Path) -> list[list]:
    proc = subprocess.run([sys.executable, __file__, "--child", str(src.resolve()), str(cases_path)],
                          cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="src directory of side A (the base)")
    parser.add_argument("b", type=Path, help="src directory of side B (the change)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cases = build_cases(tmp)
        cases_path = tmp / "cases.json"
        cases_path.write_text(json.dumps(cases), encoding="utf-8")
        a, b = answers(args.a, cases_path, tmp), answers(args.b, cases_path, tmp)
    parts = ("exit code", "stdout", "stderr")
    differ = 0
    for case, x, y in zip(cases, a, b):
        if x != y:
            differ += 1
            names = ", ".join(p for p, u, w in zip(parts, x, y) if u != w)
            print(f"differs ({names}): mukaikit {' '.join(case)}")
    subcommands = sorted({case[0] for case in cases})
    print(f"{len(cases)} cases over {len(subcommands)} subcommands "
          f"({', '.join(subcommands)}); {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(*sys.argv[2:]))
    sys.exit(main())
