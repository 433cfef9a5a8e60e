#!/usr/bin/env python3
"""Frequency sweep on one fixed random array.

Draws an M=9 geometry (2 cm aperture, 8 mm spacing), designs steered
hypercardioids of the requested orders frequency by frequency, and dumps
per-frequency beampatterns plus WNG/DF curves as CSV. Frequencies the
rank gate refuses (high orders at very low frequencies render the
matching system numerically rank deficient) are skipped and reported.

Example:
    python scripts/fixed_geometry_study.py --out runs/fixed --orders 1,4
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from diffbeam import (
    FrequencyGrid,
    PhysicalConstants,
    RankDeficientSystemError,
    SteeredTarget,
    a_to_b,
    beampattern,
    design_filter,
    evaluate_target,
    gain_curves,
    hypercardioid_coefficients,
    sample_random_geometry,
)
from diffbeam.fileio import save_geometry_file
from diffbeam.metrics import magnitude_db, power_db


def sweep(geometry, constants, target, frequencies, angle_count, floor_db):
    theta = 2.0 * np.pi * np.arange(angle_count) / angle_count
    target_db = magnitude_db(evaluate_target(target, theta), floor_db=floor_db)
    pattern_rows = []
    curve_rows = []
    skipped = []
    for f_hz in frequencies:
        grid = FrequencyGrid(f_hz, f_hz, 1)
        try:
            filt = design_filter(geometry, constants, target, grid)
        except RankDeficientSystemError as err:
            skipped.append((f_hz, str(err)))
            continue
        omega = 2.0 * np.pi * f_hz
        rendered = magnitude_db(
            beampattern(filt, geometry, constants, omega, theta), floor_db=floor_db
        )
        for angle_deg, r_db, t_db in zip(360.0 * theta / (2 * np.pi), rendered, target_db):
            pattern_rows.append((f_hz, angle_deg, r_db, t_db))
        wng, df = power_db(gain_curves(filt, geometry, constants, filt.theta_s))[:, 0]
        curve_rows.append((f_hz, wng, df))
    return pattern_rows, curve_rows, skipped


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".9g") for v in row])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=69)
    parser.add_argument("--orders", default="1,4", help="comma-separated pattern orders")
    parser.add_argument("--steer-deg", type=float, default=60.0)
    parser.add_argument("--elements", type=int, default=9)
    parser.add_argument("--f-min", type=float, default=50.0)
    parser.add_argument("--f-max", type=float, default=4000.0)
    parser.add_argument("--f-count", type=int, default=80)
    parser.add_argument("--angle-step-deg", type=float, default=1.0)
    parser.add_argument("--floor-db", type=float, default=-50.0)
    parser.add_argument("--c-mps", type=float, default=343.0)
    args = parser.parse_args()

    constants = PhysicalConstants(speed_of_sound=args.c_mps)
    geometry = sample_random_geometry(args.elements, 0.02, 0.008, seed=args.seed)
    frequencies = np.linspace(args.f_min, args.f_max, args.f_count)
    angle_count = int(round(360.0 / args.angle_step_deg))

    args.out.mkdir(parents=True, exist_ok=True)
    save_geometry_file(geometry, args.out / "geometry.json")

    for order in (int(o) for o in args.orders.split(",")):
        target = SteeredTarget(
            coefficients=a_to_b(hypercardioid_coefficients(order)),
            theta_s=math.radians(args.steer_deg),
        )
        patterns, curves, skipped = sweep(
            geometry, constants, target, frequencies, angle_count, args.floor_db
        )
        tag = f"n{order}"
        write_csv(
            args.out / f"beampattern_vs_frequency_{tag}.csv",
            ["freq_hz", "angle_deg", "rendered_db", "target_db"],
            patterns,
        )
        write_csv(
            args.out / f"wng_df_{tag}.csv", ["freq_hz", "wng_db", "df_db"], curves
        )
        print(f"order {order}: {len(curves)} frequencies designed", end="")
        if skipped:
            low, high = skipped[0][0], skipped[-1][0]
            print(f", {len(skipped)} refused by the rank gate ({low:g}-{high:g} Hz)")
        else:
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
