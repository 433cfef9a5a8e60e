#!/usr/bin/env python3
"""Frequency sweep on one fixed random array.

Draws an M=9 geometry (2 cm aperture, 8 mm spacing), designs steered
hypercardioids of the requested orders over the whole band as one stack,
and dumps per-frequency beampatterns plus WNG/DF curves as CSV, all
scored from the patterns' harmonic coefficients. Frequencies the rank
gate refuses (high orders at very low frequencies render the matching
system numerically rank deficient) are skipped and reported.

Example:
    python scripts/fixed_geometry_study.py --out runs/fixed --orders 1,4
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from diffbeam import PhysicalConstants, evaluate_target, sample_random_geometry
from diffbeam.fileio import pattern_from_config, save_geometry_file, write_table
from diffbeam.metrics import (
    angle_count,
    check_floor_db,
    coefficient_gains,
    equispaced_pattern,
    magnitude_db,
    parseval_reach,
    pattern_coefficients,
    power_db,
)
from diffbeam.modal import element_harmonics
from diffbeam.solver import design_weights, rank_deficiency


def sweep(geometry, constants, target, frequencies, angle_count, floor_db):
    """The pattern table (f, angle, rendered dB, target dB), one row per
    kept frequency and angle, the curve table (f, WNG dB, DF dB), one row
    per kept frequency, and the refused (f, reason) pairs of one order."""
    frequencies = np.asarray(frequencies, dtype=float)
    omegas = 2.0 * np.pi * frequencies
    values = geometry.element_values
    c = constants.speed_of_sound
    reach = parseval_reach(target.order, np.max(omegas), np.max(values[0]), c)
    xi = element_harmonics(values, omegas, reach, c)
    weights, refused, condition = design_weights(xi, target)
    skipped = [
        (f_hz, str(rank_deficiency(float(k), float(f_hz))))
        for f_hz, k in zip(frequencies[refused], condition[refused])
    ]
    kept = ~refused
    coefficients = pattern_coefficients(xi, weights)[kept]
    wng, df = power_db(coefficient_gains(coefficients, weights[kept], target.theta_s))
    rendered = magnitude_db(equispaced_pattern(coefficients, angle_count), floor_db=floor_db)
    angles_deg = 360.0 * np.arange(angle_count) / angle_count
    target_db = magnitude_db(evaluate_target(target, np.radians(angles_deg)), floor_db=floor_db)
    kept_hz = frequencies[kept]
    patterns = np.column_stack([
        np.repeat(kept_hz, angle_count),
        np.tile(angles_deg, len(kept_hz)),
        rendered.ravel(),
        np.tile(target_db, len(kept_hz)),
    ])
    return patterns, np.column_stack([kept_hz, wng, df]), skipped


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)
    try:
        angles = angle_count(args.angle_step_deg)
    except ValueError as err:
        parser.error(f"argument --angle-step-deg: {err}")
    try:
        check_floor_db(args.floor_db, "floor")
    except ValueError as err:
        parser.error(f"argument --floor-db: {err}")
    try:
        # the sweep renders every frequency's pattern at once: NumPy refuses a
        # stack past the byte ceiling `angle_count` checks one row against
        np.empty((args.f_count, angles), dtype=complex)
    except (ValueError, MemoryError) as err:
        parser.error(f"arguments --f-count and --angle-step-deg: {args.f_count} "
                     f"frequencies of {angles} angles: {err}")

    constants = PhysicalConstants(speed_of_sound=args.c_mps)
    geometry = sample_random_geometry(args.elements, 0.02, 0.008, seed=args.seed)
    frequencies = np.linspace(args.f_min, args.f_max, args.f_count)

    args.out.mkdir(parents=True, exist_ok=True)
    save_geometry_file(geometry, args.out / "geometry.json")

    for order in (int(o) for o in args.orders.split(",")):
        target, _, _ = pattern_from_config(
            {"family": "hypercardioid", "order": order, "steer_deg": args.steer_deg}
        )
        patterns, curves, skipped = sweep(
            geometry, constants, target, frequencies, angles, args.floor_db
        )
        tag = f"n{order}"
        write_table(
            args.out / f"beampattern_vs_frequency_{tag}.csv",
            ["freq_hz", "angle_deg", "rendered_db", "target_db"],
            patterns,
        )
        write_table(
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
