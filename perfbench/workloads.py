"""The benchmark's workloads: generated inputs, CLI command chains, reference checks.

Every workload draws its inputs from the benchmark seed; the program only ever
sees the argv and files built here.  A job is a chain of ``wavemom`` CLI
commands run one after another, each in a fresh interpreter, and a check that
reads the chain's output files and returns a list of failure messages (empty
when the job is correct).
"""

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

K = 2.0 * math.pi
K_ARG = repr(K)
RING_SAMPLES = 1024          # CLI default --ring-samples
CHARGE_WINDOW = (-40, 40)    # CLI default --n-range

# circular-hwmf: Bessel field at fixed spacing, so the stencil error of the
# grid oracle is the same at every grid size
CIRC_THETA = 0.3
CIRC_DX = 0.0625
# grid-oracle lz error measured at dx = 0.0625 is 1.80e-3 * |n| for every
# n in -5..5 (1.9964 at n = 2); the bound leaves ~40% headroom
CIRC_GRID_REL_TOL = 2.5e-3

# elliptic-hwmf: criterion 7 of the acceptance suite.  k = 2 pi, theta = pi/6,
# q = 1, and a square grid whose corners reach 0.94 of the supported radial
# range xi_max(q) (README, "Conventions and caveats").
ELL_THETA = math.pi / 6
ELL_Q = 1.0
ELL_F = 2.0 * math.sqrt(ELL_Q) / (K * math.sin(ELL_THETA))
ELL_XI_MAX = min(3.0 + math.log1p(1.0 / ELL_Q), math.log(16.0 / math.sqrt(ELL_Q) - 1.0), 6.0)
ELL_HALF_WIDTH = ELL_F * math.sinh(0.94 * ELL_XI_MAX) / math.sqrt(2.0)
ELL_ORDERS = {"even": 2, "odd": 1}
# closed-form mean charges at q = 1, pinned by the acceptance suite
ELL_PAPER_ANCHORS = {"even": 0.9576485320360246, "odd": 0.5120467838997057}
TABLE_ARGS = ["--parity", "even", "--n", "2", "--q", "0", "--q-max", "4", "--q-steps", "400"]
TABLE_Q_STEPS = 400

# camera-csv: Bessel n = 3 lattice with complex noise, rows shuffled
CAM_THETA = 0.3
CAM_DX = 0.0625
CAM_CHARGE = 3
CAM_NOISE = 1e-3             # noise amplitude relative to the field's peak


@dataclass
class Command:
    """One CLI invocation: ``python -m wavemom.cli <args>``."""

    name: str
    args: list
    outputs: list = field(default_factory=list)   # files the command writes


@dataclass
class Job:
    key: str              # jobs with equal keys must give byte-identical outputs
    commands: list
    check: object         # callable returning a list of failure messages


@dataclass
class Probe:
    """An untimed command whose exit code is the check."""

    what: str
    args: list
    expect_rc: int


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _report(reports, method):
    for entry in reports:
        if entry["method"] == method:
            return entry
    raise KeyError(f"no {method} entry in the momentum report")


def _check_rows(path, header, count):
    rows = _csv_rows(path)
    if not rows or rows[0] != header:
        return [f"{Path(path).name}: header {rows[:1]} != {header}"]
    if len(rows) - 1 != count:
        return [f"{Path(path).name}: {len(rows) - 1} rows, expected {count}"]
    return []


def _check_summary(path, parseval_max=None):
    summary = _read_json(path)
    fails = []
    if (summary["n_min"], summary["n_max"]) != CHARGE_WINDOW or summary["ring_samples"] != RING_SAMPLES:
        fails.append(f"spectrum summary window/ring size unexpected: {summary}")
    if parseval_max is not None and not summary["parseval_residual"] <= parseval_max:
        fails.append(f"parseval_residual {summary['parseval_residual']:.3e} > {parseval_max:g}")
    return fails


class Workload:
    name = ""
    why = ""
    default_size = 1024

    def __init__(self, workdir, size, seed):
        self.dir = Path(workdir)
        self.size = size or self.default_size
        self.seed = seed

    def setup_script(self):
        """Script and arguments that write the inputs, or None when there are none."""
        return None

    def jobs(self):
        raise NotImplementedError

    def probes(self):
        return []


class CircularHwmf(Workload):
    name = "circular-hwmf"
    why = ("Bessel field at 1024^2 through gen, spectrum and momenta in HWMF: "
           "scipy jv sampling, ring extraction and CLI start-up do the work")

    def jobs(self):
        rng = random.Random(self.seed)
        d = self.dir
        field_path, ring, oam, summary = d / "field.hwmf", d / "ring.csv", d / "oam.csv", d / "summary.json"
        while True:
            n = rng.randint(-5, 5)
            commands = [
                Command("gen", ["gen", "--family", "bessel", "--k", K_ARG, "--theta", repr(CIRC_THETA),
                                "--n", str(n), "--grid", f"{self.size},{self.size}",
                                "--dx", repr(CIRC_DX), "--out", str(field_path)], [field_path]),
                Command("spectrum", ["spectrum", "--in", str(field_path), "--window", "hann",
                                     "--out-ring", str(ring), "--out-oam", str(oam),
                                     "--out-summary", str(summary)], [ring, oam, summary]),
                Command("momenta", ["momenta", "--in", str(field_path), "--methods", "spectral,grid",
                                    "--window", "hann"]),
            ]

            def check(outputs, n=n):
                fails = _check_summary(summary, parseval_max=1e-12)
                fails += _check_rows(ring, ["phi", "re", "im"], RING_SAMPLES)
                fails += _check_rows(oam, ["n", "re", "im", "abs2"], CHARGE_WINDOW[1] - CHARGE_WINDOW[0] + 1)
                reports = _read_json(outputs["momenta"])
                spectral = _report(reports, "spectral")["mean_lz"]
                grid = _report(reports, "grid-oracle")["mean_lz"]
                if not abs(spectral - n) <= 1e-3:
                    fails.append(f"spectral mean_lz {spectral!r} != {n} within 1e-3")
                if not abs(grid - n) <= CIRC_GRID_REL_TOL * abs(n) + 1e-9:
                    fails.append(f"grid-oracle mean_lz {grid!r} != {n} within {CIRC_GRID_REL_TOL:g}*|n|")
                return fails

            yield Job(f"n={n}", commands, check)


class EllipticHwmf(Workload):
    name = "elliptic-hwmf"
    why = ("Mathieu table sweep and a Mathieu field at 1024^2: specfun.mathieu, "
           "Mathieu sampling in waves and the (N^2, H) peak memory")

    def jobs(self):
        rng = random.Random(self.seed)
        d = self.dir
        table, field_path = d / "table.csv", d / "field.hwmf"
        dx = 2.0 * ELL_HALF_WIDTH / self.size
        while True:
            parity = rng.choice(sorted(ELL_ORDERS))
            n = ELL_ORDERS[parity]
            commands = [
                Command("mathieu-table", ["mathieu-table", *TABLE_ARGS, "--out", str(table)], [table]),
                Command("gen", ["gen", "--family", f"mathieu-{parity}", "--k", K_ARG,
                                "--theta", repr(ELL_THETA), "--n", str(n), "--f", repr(ELL_F),
                                "--grid", f"{self.size},{self.size}", "--dx", repr(dx),
                                "--out", str(field_path)], [field_path]),
                Command("momenta", ["momenta", "--in", str(field_path), "--methods", "spectral,grid,paper",
                                    "--f", repr(ELL_F), "--parity", parity, "--n", str(n)]),
            ]

            def check(outputs, parity=parity):
                fails = _check_table(table)
                reports = _read_json(outputs["momenta"])
                paper = _report(reports, "paper-formula")["mean_lz"]
                if not abs(paper - ELL_PAPER_ANCHORS[parity]) <= 1e-8:
                    fails.append(f"paper-formula mean_lz {paper!r} != anchor {ELL_PAPER_ANCHORS[parity]}")
                notes = _report(reports, "grid-oracle")["notes"]
                if "closest: char+2q" not in notes:
                    fails.append(f"grid-oracle invariant not closest to char+2q: {notes}")
                spectral = _report(reports, "spectral")["mean_lz"]
                if not abs(spectral) <= 1e-6:
                    fails.append(f"two-sided spectral mean_lz {spectral!r} != 0 within 1e-6")
                return fails

            yield Job(parity, commands, check)


def _check_table(path):
    """mathieu-table sweep: one block of rows per q, harmonics 0, 2, 4, ..."""
    rows = _csv_rows(path)
    if not rows or rows[0] != ["class", "n", "q", "char_value", "j", "coeff"]:
        return [f"table header {rows[:1]} unexpected"]
    blocks = {}
    for row in rows[1:]:
        blocks.setdefault(row[2], []).append(row)
    fails = []
    if len(blocks) != TABLE_Q_STEPS:
        fails.append(f"table holds {len(blocks)} q values, expected {TABLE_Q_STEPS}")
    for q, block in blocks.items():
        harmonics = [int(r[4]) for r in block]
        if harmonics != list(range(0, 2 * len(block), 2)) or len(block) < 2 \
                or len({r[3] for r in block}) != 1 or any(r[0] != "ce-even" for r in block):
            fails.append(f"table block at q={q} malformed")
            break
    first = blocks.get("0")
    if first is None or float(first[0][3]) != 4.0:
        fails.append("table lacks char_value a_2(0) = 4 at q = 0")
    return fails


class CameraCsv(Workload):
    name = "camera-csv"
    why = ("noisy 512^2 x,y,re,im lattice in shuffled row order: the CSV reader "
           "dominates jobs and the CSV writer dominates set-up")
    default_size = 512

    @property
    def lattice(self):
        return self.dir / "camera.csv"

    def setup_script(self):
        script = Path(__file__).with_name("make_camera.py")
        return [str(script), "--seed", str(self.seed), "--size", str(self.size),
                "--k", K_ARG, "--theta", repr(CAM_THETA), "--dx", repr(CAM_DX),
                "--n", str(CAM_CHARGE), "--noise", repr(CAM_NOISE), "--out", str(self.lattice)]

    def _input_args(self):
        return ["--in", str(self.lattice), "--in-format", "csv", "--k", K_ARG,
                "--theta", repr(CAM_THETA), "--window", "hann"]

    def jobs(self):
        commands = [
            Command("spectrum", ["spectrum", *self._input_args()]),
            Command("momenta", ["momenta", *self._input_args(), "--methods", "spectral"]),
        ]

        def check(outputs):
            fails = _check_summary(outputs["spectrum"])
            spectral = _report(_read_json(outputs["momenta"]), "spectral")["mean_lz"]
            if not abs(spectral - CAM_CHARGE) <= 1e-3:
                fails.append(f"spectral mean_lz {spectral!r} != {CAM_CHARGE} within 1e-3")
            return fails

        while True:
            yield Job(f"seed={self.seed}", commands, check)

    def probes(self):
        # the noise must keep tripping the grid oracle's imaginary-residue guard
        return [Probe("grid oracle rejects the noisy lattice (exit 2)",
                      ["momenta", *self._input_args(), "--methods", "spectral,grid"], 2)]


WORKLOADS = {w.name: w for w in (CircularHwmf, EllipticHwmf, CameraCsv)}
