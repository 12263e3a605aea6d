#!/usr/bin/env python3
"""Dump the normalized Gramian spectrum of each problem at initialization.

Usage: python scripts/spectral_decay.py [--top K] [--width W]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from nystromngd import model
from nystromngd.harness import gramian_spectrum
from nystromngd.problems import PROBLEM_NAMES, make_problem


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--top", type=int, default=100)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/spectra")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in PROBLEM_NAMES:
        prob = make_problem(name, hidden_width=args.width, hidden_depth=2)
        quad = prob.sample_quadrature(400, 160, seed=args.seed)
        theta = model.init(prob.topology, args.seed).values
        ratios = gramian_spectrum(prob, theta, quad, top=args.top)
        path = out / f"{name}.txt"
        np.savetxt(path, ratios, fmt="%.17g")
        decade = int(np.argmax(ratios < 1e-10)) if np.any(ratios < 1e-10) else len(ratios)
        print(f"{name:<12} p={theta.size:<5} first index below 1e-10: {decade} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
