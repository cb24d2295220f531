#!/usr/bin/env python3
"""Sweep primes for a named family and compare the observed density of
ordinary primes with the residue-class prediction.

Each prime's `is_ordinary` verdict is checked twice:

- against whether its residue mod d_n is one of `ordinary_residues`'
  classes. Both walk the same p-action on the group table, so this guards
  the reduction of p to p mod d_n;
- against whether the Newton polygon equals the Hodge polygon, a route
  through the orbit slopes: averaging unequal norms over an orbit lowers
  the sum of the squared slopes, so the polygons agree exactly when every
  orbit keeps one norm.

The script exits 1 and lists the primes where either check fails.

Examples:
    python scripts/residue_scan.py monomial d=6 --bound 2000
    python scripts/residue_scan.py four_dim D=2 k=2 --bound 2000
    python scripts/residue_scan.py four_dim D=3 k=2 --bound 2000
"""

import argparse
import sys
from math import gcd

from npoly import catalog, diagonal
from npoly.primes import primes_below


def parse_params(pairs):
    params = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        if not value:
            raise SystemExit(f"parameter {pair!r} is not of the form key=value")
        if "," in value:
            params[key] = [int(v) for v in value.split(",")]
        else:
            params[key] = int(value)
    return params


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("family", choices=catalog.FAMILY_NAMES)
    parser.add_argument("params", nargs="*", help="key=value family parameters")
    parser.add_argument("--bound", type=int, default=1000)
    args = parser.parse_args()

    family = catalog.make(args.family, parse_params(args.params))
    ds = diagonal.DiagonalSimplex.from_support(family.support)
    res = diagonal.ordinary_residues(ds)
    hodge = diagonal.hodge_polygon_diag(ds)

    per_class = {}
    tested = ordinary = 0
    by_residue, by_polygons = [], []
    for p in primes_below(args.bound):
        if gcd(p, ds.group_order) != 1:
            continue
        verdict = diagonal.is_ordinary(ds, p).ordinary
        # the classes list residues in 1..d_n
        if verdict != ((p % res.modulus or res.modulus) in res.classes):
            by_residue.append(p)
        if verdict != (diagonal.newton_polygon_diag(ds, p) == hodge):
            by_polygons.append(p)
        tested += 1
        ordinary += verdict
        bucket = per_class.setdefault(p % res.modulus, [0, 0])
        bucket[0] += verdict
        bucket[1] += 1

    print(f"family {family.name} {dict(family.parameters)}")
    print(f"largest invariant factor d_n = {res.modulus}")
    print(f"predicted ordinary classes mod d_n: {set(res.classes)}")
    print(f"predicted density mu/phi = {res.density}")
    print()
    print("residue  ordinary/tested")
    for residue in sorted(per_class):
        o, t = per_class[residue]
        marker = "*" if residue in res.classes else " "
        print(f"  {residue:4d}{marker}   {o}/{t}")
    print()
    print(f"overall: {ordinary}/{tested} = {ordinary / tested:.4f} "
          f"vs predicted {float(res.density):.4f}")
    if by_residue:
        print(f"is_ordinary disagrees with the residue classes at p = {by_residue}")
    if by_polygons:
        print(f"is_ordinary disagrees with Newton = Hodge at p = {by_polygons}")
    if by_residue or by_polygons:
        sys.exit(1)


if __name__ == "__main__":
    main()
