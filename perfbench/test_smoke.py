"""Smoke test of the benchmark harness: 64^2 grids, one job per workload.

Run from the repository root (it is outside the tier-1 testpaths):
    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# every metric the harness defines, by the workloads that exercise it
END_TO_END = {
    "circular-hwmf": ["job_s", "cmd.gen_s", "cmd.spectrum_s", "cmd.momenta_s", "peak_rss_mb", "setup_s",
                      "error_rate"],
    "elliptic-hwmf": ["job_s", "cmd.mathieu-table_s", "cmd.gen_s", "cmd.momenta_s", "peak_rss_mb",
                      "setup_s", "error_rate"],
    "camera-csv": ["job_s", "cmd.spectrum_s", "cmd.momenta_s", "peak_rss_mb", "setup_s", "error_rate"],
}
COMMON_LAYERS = [
    "cli.import_s", "cli.self_s",
    "spectral.ring_s", "spectral.ring_calls", "spectral.ring_peak_mb", "spectral.oam_s",
    "spectral.ring_flops", "spectral.ring_bytes", "spectral.ring_flops_per_byte",
    "momenta.report_self_s", "fieldio.bytes_read", "fieldio.bytes_written",
    "cli.errors", "waves.errors", "specfun.errors", "spectral.errors", "momenta.errors", "fieldio.errors",
    "trace.overhead_frac", "trace.coverage",
]
GRID_MEAN = ["momenta.grid_mean.lz_s", "momenta.grid_mean.px_s", "momenta.grid_mean.py_s",
             "momenta.grid_mean_calls"]
PER_LAYER = {
    "circular-hwmf": COMMON_LAYERS + GRID_MEAN + [
        "waves.sample_grid_s", "waves.sample_grid_peak_mb",
        "fieldio.write_field_s", "fieldio.read_field_s", "fieldio.write_spectra_csv_s"],
    "elliptic-hwmf": COMMON_LAYERS + GRID_MEAN + [
        "momenta.grid_mean.elliptic_s",
        "waves.sample_grid_s", "waves.sample_grid_peak_mb", "waves.elliptic_coords_s",
        "waves.elliptic_coords_calls",
        "specfun.mathieu_eigen_s", "specfun.mathieu_eigen_calls", "specfun.mathieu_truncation",
        "specfun.mathieu_coeffs", "specfun.mathieu_radial_s", "specfun.mathieu_angular_s",
        "specfun.mathieu_norm_s", "fieldio.write_field_s", "fieldio.read_field_s"],
    "camera-csv": COMMON_LAYERS + ["fieldio.read_field_csv_s", "fieldio.write_field_csv_s",
                                   "waves.sample_grid_s", "waves.sample_grid_peak_mb"],
}


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def runs(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "64", "--seconds", "0", "--seed", "1",
         "--trace", str(request.param), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    results = {name: json.loads((workdir / name / f"result-seed1-trace{request.param}.json").read_text())
               for name in END_TO_END}
    return request.param, lines, results


def test_result_lines_follow_the_contract(runs):
    trace, lines, _ = runs
    assert len(lines) == len(END_TO_END)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(line["metrics"][m["name"]]["value"], (int, float))


def test_every_named_metric_is_emitted_with_a_unit(runs):
    trace, _, results = runs
    for name, result in results.items():
        assert result["failed"] == 0, result["failures"]
        assert result["end_to_end"]["error_rate"][0] == 0
        assert len(result["jobs"]) == 1
        emitted = result["per_layer"] if trace else result["end_to_end"]
        for metric in (PER_LAYER if trace else END_TO_END)[name]:
            value, unit, count = emitted[metric]
            assert unit and count >= 1, (name, metric)
        for metric in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads", "llc"):
            assert metric in result["environment"]
