"""Write the camera-csv input: a noisy Bessel lattice as x,y,re,im rows in shuffled order.

Usage (with the package's src/ on PYTHONPATH):
    python3 perfbench/make_camera.py --seed 0 --size 512 --k 6.283185307179586 \
        --theta 0.3 --dx 0.0625 --n 3 --noise 1e-3 --out camera.csv

The lattice is sampled and written with the package's own sample_grid and
write_field_csv; complex Gaussian noise of the given amplitude relative to
the field's peak is added before writing, and the data rows are then
shuffled, since the CSV format accepts any row order.  The same seed gives a
byte-identical file.
"""

import argparse
import math
import random

import numpy as np

from wavemom import BesselWave, sample_grid, write_field_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--k", type=float, required=True)
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--dx", type=float, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--noise", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    grid = sample_grid(BesselWave(args.k, args.theta, args.n), args.size, args.size, args.dx, args.dx)
    rng = np.random.default_rng(args.seed)
    scale = args.noise * float(np.abs(grid.values).max()) / math.sqrt(2.0)
    grid.values = grid.values + scale * (rng.standard_normal(grid.values.shape)
                                         + 1j * rng.standard_normal(grid.values.shape))
    write_field_csv(grid, args.out)

    with open(args.out, encoding="utf-8") as fh:
        header, *rows = fh.readlines()
    random.Random(args.seed).shuffle(rows)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        fh.writelines(rows)


if __name__ == "__main__":
    main()
