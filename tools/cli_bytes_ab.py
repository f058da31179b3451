"""Byte comparison of the mukaikit command line between two source trees.

    python3 tools/cli_bytes_ab.py A/src B/src

Both trees answer the same cases through ``cli.run`` in process, one child
interpreter per tree, with the configs in one shared temporary directory:
- every argv of the cli_batch pool that ``perfbench/workloads.py`` builds
  (all items of every stratum; the module is imported, not changed);
- every config of that pool, and every module-level ``*_CONFIG`` of
  ``tests/test_cli.py`` as it is and, if it has a ``mukai`` object, with
  Mukai rank 0, 1, 3 and 3/2, under all 11 subcommands in text and json;
- ``exists --r --d --g`` for r in 1..8, every d in -1..2r and every g from
  2r below the cap g <= -(r^2 - 1)(r - 1) to 1 above it.
Each case's (exit code, stdout, stderr) must be equal on the two trees. The
script prints the cases that differ and exits 1 if there are any.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RANK_VARIANTS = (0, 1, 3, "3/2")


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
