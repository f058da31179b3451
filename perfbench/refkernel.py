"""The fixed reference kernel behind ``bench.ref_ms`` and the ``*_rel`` metrics.

A pure-Python Fraction/int workload of about 20 ms that does not touch
mukaikit. Run as a script it prints the kernel's own time in ns, so the
CLI workload can time it as a child process, the way it runs its queries.
"""

import time
from fractions import Fraction
from math import factorial, prod

N, REPS = 10, 12
DET = Fraction(prod(factorial(i) for i in range(N)) ** 4, prod(factorial(i) for i in range(2 * N)))


def ref_kernel() -> None:
    """Fraction elimination of the order-10 Hilbert matrix, 12 times.

    The determinant is checked against the closed form.
    """
    for _ in range(REPS):
        a = [[Fraction(1, i + j + 1) for j in range(N)] for i in range(N)]
        det = Fraction(1)
        for c in range(N):
            pivot = a[c][c]
            det *= pivot
            row = a[c]
            for r in range(c + 1, N):
                f = a[r][c] / pivot
                a[r] = [x - f * y for x, y in zip(a[r], row)]
        if det != DET:
            raise RuntimeError("reference kernel computed a wrong determinant")


def timed_kernel() -> int:
    start = time.perf_counter_ns()
    ref_kernel()
    return time.perf_counter_ns() - start


if __name__ == "__main__":
    print(timed_kernel())
