"""Traced CLI child: ``python3 cli_child.py SPANS_FILE <mukaikit arguments>``.

Imports ``mukaikit.cli`` from the checkout's ``src``, wraps the library's
public functions, runs ``mukaikit.cli.run`` on the arguments and writes
its spans to SPANS_FILE, followed by one ``# {json}`` trailer: the import
time, the time from this script's first line until the spans are written
(so the parent can take interpreter start and teardown apart) and the
length counters of ``tracer.SIZED``.
"""

import json
import sys
import time

START = time.perf_counter_ns()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    before = time.perf_counter_ns()
    import mukaikit.cli

    import_ns = time.perf_counter_ns() - before
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = mukaikit.cli.run(argv)
    sys.stdout.flush()
    tracer.dump(spans_file)
    run_ns = time.perf_counter_ns() - START
    with open(spans_file, "a", encoding="utf-8") as fh:
        trailer = {"import_ns": import_ns, "run_ns": run_ns, "sizes": tracer.sizes}
        fh.write(f"# {json.dumps(trailer)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
