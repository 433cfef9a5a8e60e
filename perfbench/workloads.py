"""Benchmark inputs: geometry files and CLI configs, generated from a seed.

Inputs are a pure function of (workload, seed, tiny). Every property that
sets the cost of a call -- element count, order, element model, grid,
angle step, trial count -- is fixed per slot; the seed moves only values
that leave the cost unchanged (element positions and directivities,
steering, pattern family and coefficients, Monte Carlo master seeds), so
runs on different seeds measure the same amount of work.

Geometries are drawn here with the benchmark's own generator rather than
through the package, so the program under test only ever sees the
generated files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

APERTURE_MM = 20.0
SPACING_MM = 8.0
SPEED_OF_SOUND = 343.0
F_MAX_HZ = 4000.0
FAMILIES = ("hypercardioid", "cardioid", "custom")

WORKLOADS = {
    "design": "CLI design over a mix of M, order, family, element model and grid; "
    "Bessel evaluation, matching-matrix assembly and the solve do the work",
    "evaluate": "CLI evaluate on filters designed during set-up; "
    "the metrics layer and file reads and writes do the work",
    "montecarlo": "CLI montecarlo on the desk grid (50-4000 Hz, 80 points), M = 9, N = 2, "
    "8 trials per study; per-frequency modal and metrics work in every trial",
    "montecarlo_narrow": "CLI montecarlo, 500 trials on a 1-point grid at 1 kHz, orders 1-3; "
    "per-trial costs (seeding, sampling, dispatch, reduction, the 4096-point DF) do the work",
}

# (element_count, order, element_model, f_min_hz, grid_count, refused_at_hz)
# Accepted slots keep at least two decades between the worst Gram
# singular-value ratio seen over 1500 random geometries and the rank gate
# (1e-10); the refused slots sit ten decades below it at f_min. Call costs
# differ by slot, so the slot counts are odd: the median and the 90th
# percentile then fall inside one slot's cluster of call times rather than
# on the edge between two.
DESIGN_SLOTS = (
    (5, 1, "first_order", 50.0, 61, None),
    (5, 1, "omni", 50.0, 64, None),
    (5, 2, "first_order", 500.0, 80, None),
    (9, 1, "omni", 50.0, 80, None),
    (9, 2, "first_order", 50.0, 80, None),
    (9, 2, "omni", 300.0, 61, None),
    (9, 3, "first_order", 1000.0, 61, None),
    (9, 4, "first_order", 50.0, 80, 50.0),
    (13, 2, "omni", 200.0, 64, None),
    (13, 2, "first_order", 200.0, 66, None),
    (13, 3, "omni", 1000.0, 76, None),
    (13, 4, "first_order", 2000.0, 61, None),
    (13, 4, "omni", 50.0, 80, 50.0),
)
# (design slot pre-designed during set-up, evaluation angle step in degrees)
EVALUATE_SLOTS = ((0, 1.0), (2, 0.5), (3, 1.0), (4, 0.25), (6, 1.0), (10, 0.5), (9, 0.25))
INTEGRATION_POINTS = 4096
BEAMPATTERN_FLOOR_DB = -50.0

MC_SLOTS = 3
MC_TRIALS = 8
MC_GRID = (50.0, F_MAX_HZ, 80)
NARROW_ORDERS = (1, 2, 3)
NARROW_TRIALS = 500
NARROW_GRID = (1000.0, 1000.0, 1)
MC_ELEMENTS = 9
# Timed studies run on one worker. On a 2-vCPU host shared with other
# tenants, two GIL-bound workers gained only 1.15x and their wall time
# swung by 20-36% (quartile spread over ten runs) with the host's load,
# against 6-7% for one worker; the nproc-worker study is run, gated and
# timed outside the timed phase instead.
MC_WORKERS = 1

# smoke size: same slot structure, a fraction of the work
TINY_GRID_COUNT = 8
TINY_DESIGN_SLOTS = (0, 5, 7)
TINY_EVALUATE_SLOTS = ((0, 1.0), (5, 0.5))
TINY_MC_TRIALS = 2
TINY_NARROW_TRIALS = 20


@dataclass
class Call:
    """One CLI invocation plus what the gate needs to judge its outputs."""

    kind: str  # design | evaluate | montecarlo
    slot: int
    argv: list[str]
    out: Path
    expect: dict = field(default_factory=dict)


@dataclass
class Inputs:
    """A generated workload: the timed calls and the designs they need first."""

    root: Path
    calls: list[Call]
    predesigns: list[Call]
    warmup: Call
    files: list[Path]


def sample_geometry(rng, count: int, directional: bool) -> dict:
    """Uniform positions in the aperture disk with min-spacing rejection.

    Omni slots get q = 0 on every element, so the omni model and the
    rendered beampattern describe the same array.
    """
    min_sq = SPACING_MM**2
    while True:
        placed = []
        for _ in range(count):
            for _ in range(2000):
                r = APERTURE_MM * math.sqrt(rng.uniform())
                phi = rng.uniform(0.0, 360.0)
                x, y = r * math.cos(math.radians(phi)), r * math.sin(math.radians(phi))
                if all((x - px) ** 2 + (y - py) ** 2 >= min_sq for _, _, px, py in placed):
                    placed.append((r, phi, x, y))
                    break
            else:
                break
        if len(placed) == count:
            break
    shapes = rng.uniform(0.0, 1.0, count) if directional else np.zeros(count)
    steers = rng.uniform(0.0, 360.0, count)
    return {
        "aperture_radius_mm": APERTURE_MM,
        "min_spacing_mm": SPACING_MM,
        "elements": [
            {"r_mm": r, "phi_deg": phi, "q": float(q), "theta_steer_deg": float(t)}
            for (r, phi, _, _), q, t in zip(placed, shapes, steers)
        ],
    }


def sample_pattern(rng, order: int) -> dict:
    """Pattern config plus the normalized cosine coefficients it implies."""
    family = FAMILIES[int(rng.integers(len(FAMILIES)))]
    steer = float(rng.integers(0, 360))
    config = {"family": family, "order": order, "steer_deg": steer}
    if family == "hypercardioid":
        raw = [1.0] + [2.0] * order
    elif family == "cardioid":
        raw = [1.0] * (order + 1)
    else:
        raw = [round(float(v), 4) for v in rng.uniform(0.2, 1.0, order + 1)]
        config["a"] = raw
    total = sum(raw)
    return config, [v / total for v in raw]


def _write_json(path: Path, payload: dict, files: list[Path]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append(path)
    return path


def _design_call(rng, root: Path, slot: int, spec, tiny: bool, files, tag: str) -> Call:
    count, order, model, f_min, grid_count, refused = spec
    if tiny:
        grid_count = TINY_GRID_COUNT
    geometry = sample_geometry(rng, count, directional=model == "first_order")
    pattern, a = sample_pattern(rng, order)
    base = root / "inputs" / f"{tag}{slot:02d}"
    _write_json(base / "geometry.json", geometry, files)
    grid = {"f_min": f_min, "f_max": F_MAX_HZ, "count": grid_count}
    config = {
        "geometry_file": "geometry.json",
        "pattern": pattern,
        "grid_hz": grid,
        "element_model": model,
    }
    config_path = _write_json(base / "design.json", config, files)
    out = root / "out" / f"{tag}{slot:02d}"
    return Call(
        kind="design",
        slot=slot,
        argv=["design", "--config", str(config_path), "--out", str(out)],
        out=out,
        expect={
            "geometry": geometry,
            "pattern": pattern,
            "a": a,
            "grid": grid,
            "element_model": model,
            "refused_at_hz": refused,
        },
    )


def _montecarlo_config(rng, order: int, trials: int, grid) -> tuple[dict, dict]:
    pattern, a = sample_pattern(rng, order)
    f_min, f_max, count = grid
    eval_hz = float(np.linspace(f_min, f_max, count)[int(rng.integers(count))])
    config = {
        "trials": trials,
        "element_count": MC_ELEMENTS,
        "aperture_radius_mm": APERTURE_MM,
        "min_spacing_mm": SPACING_MM,
        "pattern": pattern,
        "grid_hz": {"f_min": f_min, "f_max": f_max, "count": count},
        "eval_frequency_hz": eval_hz,
        "master_seed": int(rng.integers(0, 2**31)),
        "db_floor": -120.0,
    }
    return config, {"a": a, "pattern": pattern, "grid": config["grid_hz"], "trials": trials}


def _montecarlo_call(root: Path, slot: int, tag: str, config: dict, expect: dict,
                     files: list[Path]) -> Call:
    config_path = _write_json(root / "inputs" / tag / "mc.json", config, files)
    out = root / "out" / tag
    return Call(
        kind="montecarlo",
        slot=slot,
        argv=["montecarlo", "--config", str(config_path), "--out", str(out),
              "--threads", str(MC_WORKERS)],
        out=out,
        expect=expect,
    )


def generate(workload: str, seed: int, root: Path, tiny: bool = False) -> Inputs:
    """Write every input file of ``workload`` under ``root`` and list the calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), sorted(WORKLOADS).index(workload)])
    root = Path(root)
    files: list[Path] = []
    predesigns: list[Call] = []

    if workload == "design":
        slots = TINY_DESIGN_SLOTS if tiny else range(len(DESIGN_SLOTS))
        calls = [_design_call(rng, root, s, DESIGN_SLOTS[s], tiny, files, "d") for s in slots]
        warmup = calls[0]
    elif workload == "evaluate":
        calls = []
        for slot, (design_slot, step) in enumerate(TINY_EVALUATE_SLOTS if tiny else EVALUATE_SLOTS):
            design = _design_call(rng, root, slot, DESIGN_SLOTS[design_slot], tiny, files, "p")
            predesigns.append(design)
            grid = design.expect["grid"]
            freqs = np.linspace(grid["f_min"], grid["f_max"], grid["count"])
            eval_hz = float(freqs[int(rng.integers(len(freqs)))])
            base = root / "inputs" / f"p{slot:02d}"
            config = {
                "geometry_file": "geometry.json",
                "design_manifest": f"../../out/p{slot:02d}/design_manifest.json",
                "eval_frequency_hz": eval_hz,
                "angle_step_deg": step,
                "integration_points": INTEGRATION_POINTS,
                "beampattern_floor_db": BEAMPATTERN_FLOOR_DB,
            }
            config_path = _write_json(base / "evaluate.json", config, files)
            out = root / "out" / f"e{slot:02d}"
            calls.append(
                Call(
                    kind="evaluate",
                    slot=slot,
                    argv=["evaluate", "--config", str(config_path), "--out", str(out)],
                    out=out,
                    expect={**design.expect, "design_out": design.out, "eval_hz": eval_hz,
                            "angle_step_deg": step},
                )
            )
        warmup = calls[0]
    else:
        if workload == "montecarlo":
            grid = (MC_GRID[0], MC_GRID[1], TINY_GRID_COUNT) if tiny else MC_GRID
            plan = [(2, TINY_MC_TRIALS if tiny else MC_TRIALS)] * (1 if tiny else MC_SLOTS)
        else:
            grid = NARROW_GRID
            orders = NARROW_ORDERS[:1] if tiny else NARROW_ORDERS
            plan = [(order, TINY_NARROW_TRIALS if tiny else NARROW_TRIALS) for order in orders]
        configs = [_montecarlo_config(rng, order, trials, grid) for order, trials in plan]
        calls = [
            _montecarlo_call(root, slot, f"m{slot:02d}", config, expect, files)
            for slot, (config, expect) in enumerate(configs)
        ]
        # a two-trial study on the first slot's config warms every code path
        config, expect = configs[0]
        warmup = _montecarlo_call(
            root, -1, "warmup", {**config, "trials": 2}, {**expect, "trials": 2}, files
        )
    return Inputs(root, calls, predesigns, warmup, files)


def with_threads(call: Call, threads: int, out: Path) -> Call:
    """The same Monte Carlo study at another worker count and output directory."""
    argv = list(call.argv)
    argv[argv.index("--threads") + 1] = str(threads)
    argv[argv.index("--out") + 1] = str(out)
    return Call(kind=call.kind, slot=call.slot, argv=argv, out=out, expect=call.expect)


def input_digest(inputs: Inputs) -> str:
    """Hash of every generated input file and its place under the run root."""
    digest = hashlib.sha256()
    for path in inputs.files:
        digest.update(str(path.relative_to(inputs.root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
