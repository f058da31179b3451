"""Seeded inputs, queries and output checks of the three workloads.

Every input is a pool item: a key ``stratum/index`` whose content is drawn
from ``random.Random("<workload>:<stratum>:<index>")``. A run's seed only
chooses which pool items a pass uses (a fixed number per stratum) and in
which order, so the per-item output digests in ``reference.json`` cover
every seed, and the mix of query kinds and sizes is the same for all
seeds. Draws that the library would reject (an endpoint on a wall, a
non-primitive class) are redrawn during set-up, which ``setup_s`` counts.

The checks recompute invariants from the Gram matrix with the plain
integer and Fraction arithmetic in this file; they share no code with
mukaikit. Queries look library functions up through their modules at
call time, so the timing wrappers of a traced run see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from pathlib import Path
from typing import Any, Callable

from refkernel import timed_kernel

# Large primes for the denominators of polarizations. A wall D through such
# a class needs coordinates that are multiples of the prime, hence a square
# far below any wall bound used here, so redraws are rare but still checked.
PRIMES = (10007, 10009, 10037, 99991, 100003, 100019, 999983, 1000003)


# -- Independent arithmetic ---------------------------------------------------


def dot(gram, x, y):
    n = len(x)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n) if x[i] and y[j])


def mukai_square(gram, r, xi, a):
    return dot(gram, xi, xi) - 2 * r * a


def wall_bound(gram, r, xi, a):
    """r^4 Delta / 2 with Delta = v^2 / (2 r^2) + 1."""
    r = Fraction(r)
    delta = mukai_square(gram, r, xi, a) / (2 * r * r) + 1
    return r ** 4 * delta / 2


def diag(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def unimodular_pair(rng: random.Random, n: int):
    """A product P of elementary row operations and its inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in p]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        p[i] = [x + q * y for x, y in zip(p[i], p[j])]
        for row in inv:
            row[j] -= q * row[i]
    return p, inv


def congruent(gram, p):
    """P^T G P: the Gram matrix in the basis given by the columns of P."""
    n = len(gram)
    return tuple(
        tuple(sum(p[i][k] * gram[i][j] * p[j][l] for i in range(n) for j in range(n))
              for l in range(n))
        for k in range(n)
    )


def apply(m, x):
    return [sum(m[i][j] * x[j] for j in range(len(x))) for i in range(len(m))]


def canonical_primitive(d):
    g = 0
    for c in d:
        g = gcd(g, abs(int(c)))
    d = [int(c) // g for c in d]
    first = next(c for c in d if c)
    return tuple(-c for c in d) if first < 0 else tuple(d)


def qstr(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def digest_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def show(coords) -> str:
    return f"({', '.join(qstr(c) for c in coords)})"


def check_wall(errors, gram, bound, d, d_square):
    if any(Fraction(c).denominator != 1 for c in d):
        errors.append(f"wall {show(d)} is not integral")
        return False
    d = tuple(int(c) for c in d)
    if canonical_primitive(d) != d:
        errors.append(f"wall {d} is not primitive with canonical sign")
    sq = dot(gram, d, d)
    if sq != d_square:
        errors.append(f"wall {d}: reported square {d_square}, recomputed {sq}")
    if not -bound <= sq < 0:
        errors.append(f"wall {d}: square {sq} outside [-{bound}, 0)")
    return True


def random_rational(rng, lo: Fraction, hi: Fraction) -> Fraction:
    p = rng.choice(PRIMES)
    return Fraction(rng.randint(int(lo * p), int(hi * p)), p)


def prime_round(rng, x: Fraction) -> Fraction:
    """x rounded to a multiple of 1/p for a random large prime p."""
    p = rng.choice(PRIMES)
    return Fraction(round(x * p), p)


# -- Workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    name: str
    per_pass: int
    pool: int
    params: tuple


class Workload:
    name = ""
    strata: tuple[Stratum, ...] = ()
    warm_strata: tuple[str, ...] = ()

    def __init__(self, lib: dict, work_dir: Path):
        self.lib = lib
        self.redrawn = 0

    def keys(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        keys = []
        for s in self.strata:
            keys += [f"{s.name}/{i}" for i in rng.sample(range(s.pool), s.per_pass)]
        rng.shuffle(keys)
        return keys

    def all_keys(self) -> list[str]:
        return [f"{s.name}/{i}" for s in self.strata for i in range(s.pool)]

    def build(self, key: str):
        stratum, index = key.split("/")
        params = next(s.params for s in self.strata if s.name == stratum)
        rng = random.Random(f"{self.name}:{stratum}:{index}")
        while True:
            item = self.draw(rng, stratum, *params)
            if item is not None:
                item["key"] = key
                return item
            self.redrawn += 1

    def warm_up_keys(self, keys: list[str]) -> list[str]:
        """The first pass item of each ``warm_strata`` stratum (all by default)."""
        first = {}
        for k in keys:
            first.setdefault(k.split("/")[0], k)
        return [first[name] for name in self.warm_strata or first]

    def reference(self) -> tuple[int, int]:
        """Time the reference kernel: (time to normalise by, kernel time) in ns."""
        ns = timed_kernel()
        return ns, ns

    def draw(self, rng, stratum, *params):
        raise NotImplementedError

    def query(self, item, traced=None):
        raise NotImplementedError

    def outcome(self, item, result) -> tuple[Any, list[str]]:
        """The canonical output of a query and the invariants it violates."""
        raise NotImplementedError


def _import_library(root: Path) -> dict:
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import mukaikit
    from mukaikit import lattice, moduli, mukai, surface, twisted, walls

    if Path(mukaikit.__file__).resolve().parent != (root / "src" / "mukaikit").resolve():
        raise RuntimeError(f"mukaikit imported from {mukaikit.__file__}, not from {src}")
    return {"lattice": lattice, "moduli": moduli, "mukai": mukai, "surface": surface,
            "twisted": twisted, "walls": walls}


# -- crossing_sweep -------------------------------------------------------------

CROSSING_FAMILIES = {"r2": (2, -2), "r3": (2, -2, -4)}


class CrossingSweep(Workload):
    """walls_crossing_segment in process, workers=1 (the library default).

    A stratum fixes the lattice family, the Mukai rank, v^2 (so the wall
    bound) and the segment length, which set a query's cost; the seed draws
    the basis, xi, the segment's centre and direction, and the prime
    denominators of its endpoints. Pass counts put the median and the 90th
    percentile inside a stratum, not on the edge between two.
    """

    name = "crossing_sweep"
    # (family, Mukai rank, v^2, segment length); wall bounds run 10 to 2080.
    strata = (
        Stratum("r3_m2", 12, 48, ("r3", 2, 2, Fraction(1, 5))),
        Stratum("r2_m3", 12, 48, ("r2", 3, 2, Fraction(1, 5))),
        Stratum("r2_m4", 12, 48, ("r2", 4, 2, Fraction(1, 5))),
        Stratum("r2_m5", 12, 48, ("r2", 5, 2, Fraction(1, 5))),
        Stratum("r3_m3", 24, 64, ("r3", 3, 2, Fraction(1, 5))),
        Stratum("r2_m6", 12, 48, ("r2", 6, 2, Fraction(1, 5))),
        Stratum("r2_m7", 10, 48, ("r2", 7, 2, Fraction(1, 5))),
        Stratum("r2_m8", 16, 32, ("r2", 8, 2, Fraction(1, 5))),
        Stratum("r3_m4", 4, 48, ("r3", 4, 2, Fraction(1, 5))),
        Stratum("r3_m5", 4, 24, ("r3", 5, 2, Fraction(1, 5))),
    )

    warm_strata = ("r3_m2", "r2_m3", "r3_m3")

    def draw(self, rng, stratum, family, r, v2, length):
        L, M, S, W = (self.lib[k] for k in ("lattice", "mukai", "surface", "walls"))
        base = CROSSING_FAMILIES[family]
        n = len(base)
        xi = [rng.randint(-3, 3) for _ in range(n)]
        excess = dot(diag(base), xi, xi) - v2
        if excess % (2 * r):
            return None
        a = excess // (2 * r)
        if rng.random() < 0.5:
            p, inv = unimodular_pair(rng, n)
        else:
            p = inv = [[int(i == j) for j in range(n)] for i in range(n)]
        gram = congruent(diag(base), p)
        ns = L.Lattice(gram, "NS")
        xi = apply(inv, xi)
        ref = apply(inv, [1] + [0] * (n - 1))
        model = S.K3Model(ns=ns, reference_positive=S.H11Class(ns.vector(ref), L.Lattice(()).zero()))
        v = M.MukaiVector(Fraction(r), ns.vector(xi), Fraction(a))
        centre = [random_rational(rng, Fraction(-1, 10), Fraction(1, 10)) for _ in range(n - 1)]
        if n == 2:
            direction = [rng.choice((-1, 1))]
        else:  # a rational point of u^2 + 2 w^2 = 1: the same length in -<2>+<4>
            t = random_rational(rng, Fraction(-1), Fraction(1))
            direction = [(1 - 2 * t * t) / (1 + 2 * t * t), 2 * t / (1 + 2 * t * t)]
        ends = []
        for sign in (-1, 1):
            x = [Fraction(1)]
            for c, u in zip(centre, direction):
                x.append(prime_round(rng, c + sign * length / 2 * u))
            if dot(diag(base), x, x) <= 0:
                return None
            ends.append(apply(inv, x))
        omegas = [model.h11(e) for e in ends]
        for omega in omegas:
            if W.walls_through_class(model, v, omega):
                return None
        return {"model": model, "v": v, "seg": W.Segment(*omegas), "gram": gram,
                "r": r, "xi": xi, "a": a, "ends": ends}

    def query(self, item, traced=None):
        return self.lib["walls"].walls_crossing_segment(item["model"], item["v"], item["seg"])

    def outcome(self, item, result):
        gram, (w0, w1) = item["gram"], item["ends"]
        bound = wall_bound(gram, item["r"], item["xi"], item["a"])
        errors: list[str] = []
        out = []
        for c in result:
            d, t = c.wall.d.coords, c.t
            out.append([[qstr(x) for x in d], qstr(c.wall.d_square), qstr(t)])
            if not check_wall(errors, gram, bound, d, c.wall.d_square):
                continue
            p, q = dot(gram, d, w0), dot(gram, d, w1)
            if not p * q < 0:
                errors.append(f"wall {show(d)}: D.w = {p} and D.w' = {q} do not change sign")
            wt = [(1 - t) * x + t * y for x, y in zip(w0, w1)]
            if not 0 < t < 1 or dot(gram, d, wt) != 0:
                errors.append(f"wall {show(d)}: D.w_t != 0 at reported t = {t}")
        order = [(c.t, c.wall.d.coords) for c in result]
        if order != sorted(order):
            errors.append("crossings are not sorted by (t, D)")
        return out, errors


# -- verdict_mix ------------------------------------------------------------------

# Diagonal even NS of rank 1-3: hyperbolic, then negative definite.
DIAGONAL_NS = ((2,), (2, -2), (4, -2), (2, -4), (2, -2, -4), (2, -2, -2), (4, -2, -6),
               (-2,), (-4,), (-2, -4), (-2, -2, -6))


class VerdictMix(Workload):
    """Many small verdict queries in fixed proportions, in process.

    Pass counts put the median in the middle of the ``report`` stratum and
    the 90th percentile in the middle of ``h2_iso``; strata keep their
    lattice and v^2 fixed where that keeps their costs tight.
    """

    name = "verdict_mix"
    strata = (
        Stratum("exists_bad", 8, 64, ("exists", False)),
        Stratum("exists_ok", 8, 64, ("exists", True)),
        Stratum("twisted", 14, 64, ("twisted",)),
        Stratum("generic", 15, 64, ("generic",)),
        Stratum("walls_on", 15, 64, ("walls_on",)),
        Stratum("projective", 15, 64, ("projective",)),
        Stratum("report", 50, 96, ("report",)),
        Stratum("h2_pos", 33, 96, ("h2", True)),
        Stratum("h2_iso", 42, 64, ("h2", False)),
    )

    # -- drawing

    def _model(self, rng, choices):
        L, S = self.lib["lattice"], self.lib["surface"]
        entries = rng.choice(choices)
        ns = L.diagonal_lattice(list(entries), "NS")
        if entries[0] > 0:
            model = S.K3Model(ns=ns, reference_positive=S.H11Class(ns.basis_vector(0),
                                                                   L.Lattice(()).zero()))
        else:
            t11 = L.diagonal_lattice([2], "T")
            model = S.K3Model(ns=ns, t11=t11,
                              reference_positive=S.H11Class(ns.zero(), t11.vector((1,))))
        return model, entries

    @staticmethod
    def _mukai(rng, entries, r, v2):
        """(xi, a) with v = (r, xi, a) of square v2, or None for this draw."""
        xi = [rng.randint(-3, 3) for _ in entries]
        excess = dot(diag(entries), xi, xi) - v2
        return None if excess % (2 * r) else (xi, excess // (2 * r))

    def _polarization(self, rng, model, entries):
        n = len(entries)
        if entries[0] > 0:
            while True:
                x = [Fraction(1)] + [random_rational(rng, Fraction(-2, 5), Fraction(2, 5))
                                     for _ in range(n - 1)]
                if dot(diag(entries), x, x) > 0:
                    return model.h11(x), x
        x = [random_rational(rng, Fraction(-1), Fraction(1)) for _ in range(n)]
        return model.h11(x, (3,)), x

    def draw(self, rng, stratum, kind, *flags):
        M, T = self.lib["mukai"], self.lib["twisted"]
        if kind == "h2":
            positive = flags[0]
            entries = rng.choice(DIAGONAL_NS)
            gram = diag(entries)
            ns = self.lib["lattice"].diagonal_lattice(list(entries), "NS")
            r = rng.randint(1, 4)
            xi = [rng.randint(-4, 4) for _ in entries]
            xi2 = dot(gram, xi, xi)
            if positive:
                a = (xi2 - 1) // (2 * r) - rng.randint(0, 3)
            elif xi2 % (2 * r) == 0:
                a = xi2 // (2 * r)
            else:
                return None
            if gcd(r, a, *xi) != 1:
                return None
            v2 = mukai_square(gram, r, xi, a)
            if (v2 > 0) != positive or v2 < 0:
                return None
            return {"kind": kind, "ns": ns, "v": M.MukaiVector(Fraction(r), ns.vector(xi), Fraction(a)),
                    "v2": v2}
        if kind in ("projective", "report"):
            if kind == "projective":
                model, entries = self._model(rng, ((2,), (2, -2), (4, -2), (-2,), (-4,), (-2, -4)))
                r, v2 = rng.choice((2, 3)), 2 * rng.randint(0, 3)
            else:
                model, entries = self._model(rng, ((2, -2), (4, -2), (2, -4)))
                r, v2 = rng.choice((2, 3)), 2
            drawn = self._mukai(rng, entries, r, v2)
            if drawn is None:
                return None
            xi, a = drawn
            item = {"kind": kind, "model": model, "entries": entries, "r": r, "xi": xi,
                    "a": a, "v2": v2,
                    "v": M.MukaiVector(Fraction(r), model.ns.vector(xi), Fraction(a))}
            if kind == "report":
                item["omega"], _ = self._polarization(rng, model, entries)
            return item
        if kind in ("generic", "walls_on"):
            model, entries = self._model(rng, ((2, -2),))
            gram, r = diag(entries), 3
            drawn = self._mukai(rng, entries, r, 2)
            if drawn is None:
                return None
            xi, a = drawn
            v = M.MukaiVector(Fraction(r), model.ns.vector(xi), Fraction(a))
            bound = wall_bound(gram, r, xi, a)
            item = {"kind": kind, "model": model, "v": v, "gram": gram, "bound": bound}
            if kind == "generic":
                item["omega"], item["w"] = self._polarization(rng, model, entries)
                return item
            d = [rng.randint(-4, 4) for _ in entries]
            if not any(d):
                return None
            d = list(canonical_primitive(d))
            if not -bound <= dot(gram, d, d) < 0:
                return None
            omega = self._orthogonal_polarization(rng, gram, d)
            if omega is None:
                return None
            item.update(omega=model.h11(omega), w=omega, wall=tuple(d))
            return item
        if kind == "exists":
            r = rng.randint(2, 6)
            d = 2 * rng.randint(0, r - 1)
            cap = -(r * r - 1) * (r - 1)
            g = cap - rng.randint(0, 3 * r)
            g -= (g - d // 2) % r
            if not flags[0]:
                fault = rng.randrange(4)
                if fault == 0:
                    d += 1
                elif fault == 1:
                    d = 2 * r + 2 * rng.randint(0, 2)
                elif fault == 2:
                    g = cap + rng.randint(1, 5)
                else:
                    g -= rng.randint(1, r - 1)
            return {"kind": kind, "rdg": (r, d, g)}
        if kind == "twisted":
            entries = rng.choice(DIAGONAL_NS)
            ns = self.lib["lattice"].diagonal_lattice(list(entries), "NS")
            r, s = rng.randint(1, 5), rng.randint(1, 4)
            xi = [rng.randint(-4, 4) for _ in entries]
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            bf = None
            if rng.random() < 0.5:
                bf = ns.vector([Fraction(rng.randint(-2, 2), 2) for _ in entries])
            return {"kind": kind, "gram": diag(entries), "r": r, "s": s, "xi": xi, "a": a,
                    "b": b, "f": T.TwistedSheafData(r, ns.vector(xi), a),
                    "e": T.TwistData(s, b, bf)}
        raise ValueError(kind)

    @staticmethod
    def _orthogonal_polarization(rng, gram, d):
        """An integral class w with D.w = 0, w^2 > 0 and w.(1,0,...) > 0."""
        w = apply(gram, d)
        n = len(d)
        if n == 2:
            basis = [[w[1], -w[0]]]
        else:
            basis = [[w[1], -w[0], 0], [w[2], 0, -w[0]], [0, w[2], -w[1]]]
        for _ in range(50):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            x = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n)]
            side = dot(gram, x, [1] + [0] * (n - 1))
            if dot(gram, x, x) <= 0 or side == 0:
                continue
            return x if side > 0 else [-c for c in x]
        return None

    # -- querying and checking

    def query(self, item, traced=None):
        kind = item["kind"]
        Mo, W, T = self.lib["moduli"], self.lib["walls"], self.lib["twisted"]
        if kind == "h2":
            emb = Mo.standard_ns_embedding(item["ns"])
            embedded = Mo.EmbeddedMukaiVector.from_algebraic(item["v"], emb)
            return embedded.square(), Mo.h2_lattice(embedded)
        if kind == "projective":
            return Mo.projectivity_check(item["model"], item["v"])
        if kind == "report":
            return Mo.moduli_report(item["model"], item["v"], item["omega"])
        if kind == "generic":
            return W.is_generic(item["model"], item["v"], item["omega"])
        if kind == "walls_on":
            return W.walls_through_class(item["model"], item["v"], item["omega"])
        if kind == "exists":
            return Mo.bundle_existence_check(*item["rdg"])
        if kind == "twisted":
            return T.v_E(item["f"], item["e"]), T.delta_E(item["f"], item["e"])
        raise ValueError(kind)

    def outcome(self, item, result):
        kind = item["kind"]
        errors: list[str] = []
        if kind == "h2":
            square, res = result
            v2 = item["v2"]
            gram = res.lattice.gram
            out = [str(square), res.lattice.rank, list(res.signature), list(res.discriminant),
                   res.quotient_by_v, [[int(x) for x in row] for row in gram]]
            if square != v2:
                errors.append(f"embedded square {square}, expected {v2}")
            if v2 > 0:
                expected = (23, (3, 0, 20), v2)
            else:
                expected = (22, (3, 0, 19), 1)
            got = (res.lattice.rank, tuple(res.signature), prod(res.discriminant))
            if got != expected or res.quotient_by_v != (v2 == 0):
                errors.append(f"h2 (rank, signature, |A|) = {got}, expected {expected}")
            return out, errors
        if kind == "projective":
            r, v2 = item["r"], item["v2"]
            lhs, rhs = result.isotropy_identity
            out = [result.projective_moduli, result.surface_projective, list(result.signature),
                   [[qstr(x) for x in row] for row in result.gram], qstr(lhs), qstr(rhs)]
            positive = any(e > 0 for e in item["entries"])
            if result.projective_moduli != positive or result.surface_projective != positive:
                errors.append(f"projectivity verdict {result.projective_moduli}, "
                              f"NS positive direction: {positive}")
            if rhs != -4 * r * r * v2 or lhs != rhs:
                errors.append(f"isotropy identity {lhs} = {rhs}, expected {-4 * r * r * v2}")
            return out, errors
        if kind == "report":
            rep = result
            out = [rep.valid, list(rep.reasons), qstr(rep.mukai_square), rep.dim, rep.n,
                   rep.deformation_class, rep.b2, rep.rigid, rep.genericity,
                   rep.projective_surface, rep.projective_moduli, list(rep.interpretation_notes)]
            v2 = item["v2"]
            if rep.mukai_square != v2:
                errors.append(f"report square {rep.mukai_square}, expected {v2}")
            if rep.dim != (v2 + 2 if v2 >= -2 else None):
                errors.append(f"report dim {rep.dim} for v^2 = {v2}")
            if rep.b2 != (23 if v2 > 0 else 22 if v2 == 0 else None):
                errors.append(f"report b2 {rep.b2} for v^2 = {v2}")
            if rep.projective_surface != any(e > 0 for e in item["entries"]):
                errors.append("report projective_surface disagrees with the NS signature")
            return out, errors
        if kind == "generic":
            if not isinstance(result, bool):
                errors.append(f"is_generic returned {result!r}")
            return result, errors
        if kind == "walls_on":
            gram, w = item["gram"], item["w"]
            out = []
            for wall in result:
                d = wall.d.coords
                out.append([[qstr(x) for x in d], qstr(wall.d_square)])
                if check_wall(errors, gram, item["bound"], d, wall.d_square) and dot(gram, d, w):
                    errors.append(f"wall {show(d)} is not orthogonal to the polarization")
            if item["wall"] not in {tuple(int(c) for c in wall.d.coords) for wall in result}:
                errors.append(f"wall {item['wall']} through the polarization is missing")
            return out, errors
        if kind == "exists":
            r, d, g = item["rdg"]
            ver = result
            out = [ver.accepted, list(ver.failures)]
            expected = (d % 2 == 0 and 0 <= d <= 2 * r - 2
                        and g <= -(r * r - 1) * (r - 1) and (g - d // 2) % r == 0)
            if ver.accepted != expected:
                errors.append(f"existence verdict {ver.accepted} for {(r, d, g)}, expected {expected}")
            if ver.accepted:
                irr = ver.irreducibility
                out += [ver.xi_square, qstr(ver.delta), ver.c2, ver.dim,
                        [qstr(ver.mukai.v0), [qstr(x) for x in ver.mukai.v1.coords], qstr(ver.mukai.v2)],
                        irr.irreducible,
                        None if irr.min_lower_bound is None else qstr(irr.min_lower_bound),
                        None if irr.witness is None else list(irr.witness)]
                want = (2 * g - 2, Fraction(d + 2 * r * r - 2, 2 * r * r), d)
                if (ver.xi_square, ver.delta, ver.dim) != want:
                    errors.append(f"existence data {(ver.xi_square, ver.delta, ver.dim)}, expected {want}")
            return out, errors
        if kind == "twisted":
            ve, delta = result
            gram, r, s = item["gram"], item["r"], item["s"]
            out = [qstr(ve.v0), [qstr(x) for x in ve.v1.coords], qstr(ve.v2), qstr(delta)]
            xi = [Fraction(x, s) for x in item["xi"]]
            v2 = (2 * item["a"] * s - r * item["b"]) / (2 * s * s) + r
            if (ve.v0, list(ve.v1.coords), ve.v2) != (r, xi, v2):
                errors.append("v_E differs from (r, xi/s, (2as - rb)/(2s^2) + r)")
            if delta != mukai_square(gram, r, xi, v2) / (2 * r * r) + 1:
                errors.append(f"delta_E {delta} differs from v_E^2/(2r^2) + 1")
            return out, errors
        raise ValueError(kind)


# -- cli_batch ----------------------------------------------------------------------

SUBCOMMANDS = ("pairing", "type", "walls", "generic", "chamber", "crossings", "twist",
               "report", "h2", "projective", "exists")
UNKNOWN = ("wall", "crossing", "h3", "reports", "chambers", "verify")


class CliBatch(Workload):
    """``python -m mukaikit`` child processes, one at a time, default --threads."""

    name = "cli_batch"
    strata = tuple(
        Stratum(f"{sub}_{fmt}", 4, 16, (sub, fmt)) for sub in SUBCOMMANDS for fmt in ("text", "json")
    ) + (
        Stratum("malformed", 4, 16, ("malformed", None)),
        Stratum("on_wall", 4, 16, ("on_wall", None)),
        Stratum("unknown", 4, 16, ("unknown", None)),
    )

    warm_strata = ("exists_json",)

    def __init__(self, lib, work_dir):
        super().__init__(lib, work_dir)
        self.root = work_dir.parent
        self.env = {k: v for k, v in os.environ.items() if k != "MUKAIKIT_THREADS"}
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.cfg_dir = work_dir / "cli_configs"
        self.cfg_dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _surface(rank):
        entries = {1: (2,), 2: (2, -2), 3: (2, -2, -4)}[rank]
        return entries, {"ns_gram": [list(row) for row in diag(entries)],
                         "reference_positive": [1] + [0] * (rank - 1)}

    @staticmethod
    def _point(rng, entries, centre, spread):
        while True:
            x = [Fraction(1)] + [random_rational(rng, c - spread, c + spread) for c in centre]
            if dot(diag(entries), x, x) > 0:
                return x

    def _config(self, rng, sub):
        """A valid config for ``sub``, or None for this draw.

        chamber and crossings get a fixed size, as in crossing_sweep: NS
        <2>+<-2>, Mukai rank 6, v^2 = 2, a segment of length 1/5.
        """
        segment = sub in ("chamber", "crossings")
        rank = 2 if segment else rng.choice((1, 2, 3))
        entries, surface = self._surface(rank)
        gram = diag(entries)
        r = 6 if segment else rng.randint(2, 4)
        xi = [rng.randint(-3, 3) for _ in entries]
        xi2 = dot(gram, xi, xi)
        a = (xi2 + 2) // (2 * r)
        if segment:
            if (xi2 - 2) % (2 * r):
                return None
            a = (xi2 - 2) // (2 * r)
        elif sub in ("h2", "projective", "report") and mukai_square(gram, r, xi, a) < 0:
            a -= 1
        cfg: dict[str, Any] = {"surface": surface, "mukai": {"r": r, "xi": xi, "a": a}}
        centre = [random_rational(rng, Fraction(-1, 4), Fraction(1, 4)) for _ in entries[1:]]
        if segment:
            ends = [[1, prime_round(rng, centre[0] + d)] for d in (Fraction(-1, 10), Fraction(1, 10))]
            rng.shuffle(ends)
            cfg["omega"] = {"ns": [qstr(c) for c in ends[0]], "t": []}
            cfg["omega_prime"] = {"ns": [qstr(c) for c in ends[1]], "t": []}
            return cfg, gram, r, xi, a
        omega = self._point(rng, entries, centre, Fraction(1, 10))
        cfg["omega"] = {"ns": [qstr(c) for c in omega], "t": []}
        if sub == "twist":
            cfg["twist"] = {"s": rng.randint(1, 3), "b": qstr(Fraction(rng.randint(-6, 6), 2))}
            if rng.random() < 0.5:
                cfg["twist"]["b_field"] = [qstr(Fraction(rng.randint(-2, 2), 2)) for _ in entries]
        if sub == "exists":
            cfg["existence"] = self._triple(rng)
        return cfg, gram, r, xi, a

    @staticmethod
    def _triple(rng):
        r = rng.randint(2, 5)
        d = 2 * rng.randint(0, r - 1)
        g = -(r * r - 1) * (r - 1) - rng.randint(0, 2 * r)
        if rng.random() < 0.75:
            g -= (g - d // 2) % r
        return {"r": r, "d": d, "g": g}

    def draw(self, rng, stratum, sub, fmt):
        path = self.cfg_dir / f"{stratum}-{rng.getrandbits(48):012x}.json"
        expected = 0
        if sub in SUBCOMMANDS:
            drawn = self._config(rng, sub)
            if drawn is None:
                return None
            cfg, _, r, xi, a = drawn
            if sub == "h2" and gcd(r, a, *xi) != 1:
                return None
            argv = [sub, "--config", str(path), "--format", fmt]
            if sub == "exists" and rng.random() < 0.5:
                t = self._triple(rng)
                argv = [sub, "--r", str(t["r"]), "--d", str(t["d"]), "--g", str(t["g"]),
                        "--format", fmt]
            text = json.dumps(cfg)
        elif sub == "malformed":
            expected = 2
            cfg, *_ = self._config(rng, "walls")
            fault = rng.randrange(5)
            if fault == 0:
                cfg["omega"]["ns"][0] = 0.5
            elif fault == 1:
                cfg["mukai"]["xi"].append(1)
            elif fault == 2:
                del cfg["surface"]["reference_positive"]
            elif fault == 3:
                cfg["mukai"]["a"] = "1/0"
            text = json.dumps(cfg) if fault != 4 else json.dumps(cfg)[:-7]
            argv = [rng.choice(("walls", "report", "pairing", "generic")), "--config", str(path),
                    "--format", rng.choice(("text", "json"))]
        elif sub == "on_wall":
            expected = 3
            entries, surface = self._surface(2)
            r = rng.randint(3, 4)
            cfg = {"surface": surface, "mukai": {"r": r, "xi": [0, 1], "a": 0}}
            bound = wall_bound(diag(entries), r, [0, 1], 0)
            d = [rng.randint(0, 3), rng.randint(1, 4)]
            d = list(canonical_primitive(d))
            if not -bound <= dot(diag(entries), d, d) < 0:
                return None
            start = [Fraction(d[1]), Fraction(d[0])]  # (2, -2) Gram: D.start = 0
            end = [start[0], start[1] + random_rational(rng, Fraction(-1, 10), Fraction(1, 10))]
            if dot(diag(entries), end, end) <= 0:
                return None
            cfg["omega"] = {"ns": [qstr(c) for c in start], "t": []}
            cfg["omega_prime"] = {"ns": [qstr(c) for c in end], "t": []}
            text = json.dumps(cfg)
            argv = ["crossings", "--config", str(path), "--format", rng.choice(("text", "json"))]
        else:
            expected = 64
            cfg, *_ = self._config(rng, "pairing")
            text = json.dumps(cfg)
            argv = [rng.choice(UNKNOWN), "--config", str(path), "--format", "json"]
        path.write_text(text, encoding="utf-8")
        return {"argv": argv, "expected": expected, "fmt": argv[-1]}

    def reference(self) -> tuple[int, int]:
        """The kernel in a fresh interpreter, like a query: (wall ns, kernel ns).

        Child start-up drifts apart from in-process arithmetic on a shared
        host, so CLI queries are normalised by a child's whole wall time.
        """
        start = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("refkernel.py"))],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=60, check=True)
        return time.perf_counter_ns() - start, int(proc.stdout)

    def command(self, item, traced=None) -> list[str]:
        if traced is None:
            return [sys.executable, "-m", "mukaikit", *item["argv"]]
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(traced),
                *item["argv"]]

    def query(self, item, traced=None):
        proc = subprocess.run(self.command(item, traced), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def outcome(self, item, result):
        from mukaikit.serialize import canonical_dumps

        code, out, err = result
        errors = []
        if code != item["expected"]:
            errors.append(f"exit {code}, expected {item['expected']}: {err.strip()[-200:]}")
        if "Traceback" in err:
            errors.append("traceback on stderr")
        if code == 0 and item["fmt"] == "json":
            try:
                again = canonical_dumps(json.loads(out))
            except ValueError as exc:
                again = f"unparseable: {exc}"
            if again != out:
                errors.append("JSON stdout does not re-serialise byte for byte")
        return [code, out], errors


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "crossing_sweep": CrossingSweep,
    "verdict_mix": VerdictMix,
    "cli_batch": CliBatch,
}


def make(name: str, root: Path, work_dir: Path) -> Workload:
    """Import mukaikit from ``root/src`` (the CLI workload only for its checks)."""
    return WORKLOADS[name](_import_library(root), work_dir)
