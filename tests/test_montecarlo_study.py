"""`scripts/montecarlo_study.py` runs each distinct study once: the three
experiments name nine subdirectories but only seven configurations, since
N = 2 at M = 5 and at M = 9 each belong to two experiments."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "montecarlo_study.py"
STUDY_FILES = ["bp_stats.csv", "df_stats.csv", "failures.json", "wng_stats.csv"]

# each subdirectory's files at --trials 6, by the sha256 of their names and
# bytes in name order, taken when every configuration still ran once per
# subdirectory; equal digests are the shared studies
DIGESTS = {
    "elements/n2_m13": "6e6e3f5b3b8483b5515203a8941557f18d63fe37fc91c46e2581483b79b4db85",
    "elements/n2_m5": "819826e13474993f150eb2fe857db43b643906607397c6d7feb09ac5f46c1d69",
    "elements/n2_m9": "a6ee8c08340e7629272b832e77e5a78200e7a55706f2015ccf607bac811d7977",
    "fixed-m/n1_m9": "e5629470494a90126b5449bc8a9c05070908c3e214d698489208602abdb4ab4a",
    "fixed-m/n2_m9": "a6ee8c08340e7629272b832e77e5a78200e7a55706f2015ccf607bac811d7977",
    "fixed-m/n3_m9": "dea1b0c008601a4a43f8ccd3cdc81299525fefc66da5e3aa1b0f610d02fd3438",
    "minimal-m/n1_m3": "c3bea933510c59e9de118508ea25f03d5c3abef796a8314759b02d8768223274",
    "minimal-m/n2_m5": "819826e13474993f150eb2fe857db43b643906607397c6d7feb09ac5f46c1d69",
    "minimal-m/n3_m7": "b9f2b0de672310c61445e0a23bd2e5d80c3ace4d131a64ecac2252f8e6983a36",
}


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("montecarlo_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def directory_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
def test_all_experiments_run_seven_studies_into_nine_directories(
    study, tmp_path, capsys, monkeypatch, threads
):
    run = study.run_trials
    configs = []

    def counted(config, workers):
        configs.append(config)
        return run(config, workers=workers)

    monkeypatch.setattr(study, "run_trials", counted)
    out = tmp_path / "mc"
    assert study.main(["--out", str(out), "--trials", "6", "--threads", str(threads)]) == 0
    assert len(configs) == len(set(configs)) == 7

    directories = sorted(p for p in out.glob("*/*") if p.is_dir())
    assert [p.relative_to(out).as_posix() for p in directories] == sorted(DIGESTS)
    for directory in directories:
        assert sorted(p.name for p in directory.iterdir()) == STUDY_FILES
    assert {
        p.relative_to(out).as_posix(): directory_digest(p) for p in directories
    } == DIGESTS

    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert lines[1].startswith("minimal-m/n2_m5, elements/n2_m5: 6/6 trials ok")
    assert lines[3].startswith("elements/n2_m9, fixed-m/n2_m9: 6/6 trials ok")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--threads", "0"], "argument --threads: must be >= 1, got 0"),
        (["--trials", "0"], "argument --trials: trials must be an integer >= 1, got 0"),
        (["--trials", str(2**32)], "argument --trials: trials must be below 2**32, got 4294967296"),
        (["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    ],
    ids=["threads", "trials", "trials-past-a-word", "seed"],
)
def test_bad_arguments_refused_before_any_study(study, tmp_path, capsys, args, message):
    # each is refused on one error line, with no traceback and no output directory
    out = tmp_path / "mc"
    with pytest.raises(SystemExit) as excinfo:
        study.main(["--out", str(out), "--trials", "2", "--experiment", "minimal-m", *args])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}")
    assert "Traceback" not in err
    assert not out.exists()
