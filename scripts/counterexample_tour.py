#!/usr/bin/env python3
"""Walk through the norm-instability constructions: the five-dimensional
simplex, its higher-dimensional extensions, and the four-dimensional family
with an arbitrarily large gap between the facet denominator and the largest
invariant factor.
"""

from fractions import Fraction

from npoly import catalog, decompose, diagonal
from npoly.primes import primes_below


def show(title):
    print()
    print(title)
    print("-" * len(title))


def polygon_str(poly):
    return " ".join(f"{Fraction(s)}" for s in poly.slopes)


def tour_five_dim():
    show("five-dimensional simplex, determinant 3, facet denominator 1")
    support = catalog.make("five_dim").support
    ds = diagonal.DiagonalSimplex.from_support(support)
    print("columns:", *support.points)
    print("invariant factors:", ds.invariant_factors)
    print("group elements (coordinates, norm):")
    for e in ds.group:
        print("   ", tuple(str(x) for x in e.r), "norm", e.norm)
    hp = diagonal.hodge_polygon_diag(ds)
    print("lower-bound slopes:", polygon_str(hp))
    for p in (7, 5):
        np_poly = diagonal.newton_polygon_diag(ds, p)
        verdict = diagonal.is_ordinary(ds, p)
        print(f"p = {p} (residue {p % 3} mod 3): slopes {polygon_str(np_poly)}; "
              f"ordinary = {verdict.ordinary}")
    res = diagonal.ordinary_residues(ds)
    print(f"ordinary residue classes mod {res.modulus}: {set(res.classes)}")


def tour_extension(n=7):
    show(f"extension to dimension {n}: same residue behaviour")
    support = catalog.make("extend_dim", {"n": n}).support
    ds = diagonal.DiagonalSimplex.from_support(support)
    print("denominator:", ds.denominator, "det:", ds.det)
    for p in (7, 5):
        print(f"p = {p}: ordinary = {diagonal.is_ordinary(ds, p).ordinary}")


def tour_four_dim(big_d=2, k=3):
    show(f"four-dimensional family with D = {big_d}, k = {k}")
    support = catalog.make("four_dim", {"D": big_d, "k": k}).support
    ds = diagonal.DiagonalSimplex.from_support(support)
    rel = diagonal.denominator_divides(ds)
    print(f"facet denominator D = {rel.denominator}, "
          f"largest invariant factor d_4 = {rel.largest_invariant_factor}")
    print(f"group order = {ds.group_order}")
    modulus = big_d**k
    witness = (big_d + 1, 1, 0, 1)
    print(f"witness point {witness} has weight {ds.polyhedron.weight(witness)}")
    bad = [p for p in primes_below(3000) if p % modulus == 1 + big_d ** (k - 1)][:3]
    good = [p for p in primes_below(3000) if p % modulus == 1][:3]
    for p in bad:
        print(f"p = {p} = 1 + D^(k-1) mod D^k: ordinary = "
              f"{diagonal.is_ordinary(ds, p).ordinary} "
              f"(even though p = 1 mod D)")
    for p in good:
        print(f"p = {p} = 1 mod D^k: ordinary = {diagonal.is_ordinary(ds, p).ordinary}")


def tour_certificates():
    show("certificates through the facet collapse")
    support = catalog.make("five_dim").support
    for p in (7, 5):
        cert = decompose.generic_ordinary_certificate(support, p)
        print(f"p = {p}: certified = {cert.certified} (D* = {cert.dstar})"
              + (f"; {cert.reason}" if cert.reason else ""))


if __name__ == "__main__":
    tour_five_dim()
    tour_extension()
    tour_four_dim()
    tour_certificates()
