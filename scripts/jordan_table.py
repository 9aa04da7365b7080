#!/usr/bin/env python3
"""Print the closed-form Jordan types for stretched products of two cells.

Covers the four eigenvalue families (both nonzero, one nilpotent each way,
both nilpotent) over a grid of cell sizes; ``--verify`` certifies every row
with the exact rank oracle.
"""
from __future__ import annotations

import argparse

from stretchkit import JordanSpec, jordan_pair, nfold_oracle


def spec_str(spec: JordanSpec) -> str:
    return " + ".join(f"J{size}({eig})" for size, eig in spec.blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=4)
    parser.add_argument("--qmax", type=int, default=4)
    parser.add_argument("--verify", action="store_true",
                        help="certify each closed form with the rank oracle")
    args = parser.parse_args(argv)

    families = (("a=2, b=3", 2, 3), ("a=2, b=0", 2, 0),
                ("a=0, b=3", 0, 3), ("a=0, b=0", 0, 0))
    disagreements = 0
    for label, a, b in families:
        print(f"== {label} ==")
        for p in range(1, args.pmax + 1):
            for q in range(1, args.qmax + 1):
                closed = jordan_pair(p, a, q, b)
                line = f"  J{p}({a}) x J{q}({b})  ->  {spec_str(closed)}"
                if args.verify:
                    oracle = nfold_oracle([JordanSpec.single(p, a),
                                           JordanSpec.single(q, b)])
                    agree = oracle == closed
                    disagreements += not agree
                    line += "  [oracle: ok]" if agree else \
                        f"  [oracle DISAGREES: {spec_str(oracle)}]"
                print(line)
    if args.verify:
        print("all rows certified" if not disagreements
              else f"{disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
