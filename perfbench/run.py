"""Benchmark of the wavemom CLI chain, end to end and layer by layer.

Usage, from the repository root:
    python3 perfbench/run.py --workload circular-hwmf --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, seed 0, untraced

run.py runs each job of a workload as a user would, from one process: one
``python -m wavemom.cli ...`` command at a time, each in a fresh interpreter
with src/ on PYTHONPATH, in a closed loop with a single client.  It times
every command, reads its peak RSS from ``os.wait4``, checks the outputs
against reference values and records their SHA-256 digests.  Jobs start
until --seconds have passed since the first one (at least one job runs).

With --trace 1 every job runs twice, untraced and then through traced.py,
which times each module's public functions from outside the program; the
per-layer metrics come from the traced copy and the tracing overhead from the
pair.  The last line of standard output is a JSON object with the metrics
that BENCHMARK.json lists; the lines before it show every metric with its
unit and sample count.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 90

# span name -> per-layer time metric, where it is not "<span>_s"
SELF_METRICS = {"cli.main": "cli.self_s", "momenta.report": "momenta.report_self_s"}
# spans whose call counts are reported
CALL_METRICS = {"spectral.ring", "waves.elliptic_coords", "specfun.mathieu_eigen", "momenta.grid_mean"}
# span detail -> (metric name pattern, how the values of one job combine)
DETAIL_METRICS = {
    "peak_mb": ("{name}_peak_mb", max),
    "flops": ("{name}_flops", sum),
    "bytes": ("{name}_bytes", sum),
    "bytes_read": ("fieldio.bytes_read", sum),
    "bytes_written": ("fieldio.bytes_written", sum),
    "truncation": ("specfun.mathieu_truncation", max),
    "coeffs": ("specfun.mathieu_coeffs", max),
}


def run_command(argv, stdout_path, stderr_path, env):
    """Run argv to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _stderr_tail(path):
    lines = Path(path).read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_job(job, workdir, env, traced):
    """Run a job's command chain, then check and digest its outputs (untimed)."""
    record = {"key": job.key, "commands": {}, "failures": [], "spans": []}
    stdouts = {}
    start = time.perf_counter()
    for cmd in job.commands:
        stdout = workdir / f"{cmd.name}.stdout"
        stderr = workdir / f"{cmd.name}.stderr"
        if traced:
            spans = workdir / f"{cmd.name}.spans.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced.py"), str(spans), *cmd.args]
            record["spans"].append(spans)
        else:
            argv = [sys.executable, "-m", "wavemom.cli", *cmd.args]
        wall, rss, rc = run_command(argv, stdout, stderr, env)
        record["commands"][cmd.name] = {"wall_s": wall, "rss_mb": rss}
        stdouts[cmd.name] = stdout
        if rc != 0:
            record["failures"].append(f"{cmd.name} exited {rc}: {_stderr_tail(stderr)}")
            break
    record["job_s"] = time.perf_counter() - start
    if record["failures"]:
        return record
    try:
        record["failures"] += job.check(stdouts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        record["failures"].append(f"outputs unreadable: {exc!r}")
    record["digests"] = {
        f"{cmd.name}:{Path(path).name}": _sha256(path)
        for cmd in job.commands for path in (stdouts[cmd.name], *cmd.outputs)
    }
    return record


def job_layers(record):
    """Per-layer metrics of one traced job, summed over its commands."""
    values = defaultdict(float)
    covered = 0.0
    for path in record["spans"]:
        if not path.exists():     # the command died before writing spans; the job has failed
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        child = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        for span, inner in zip(spans, child):
            name = span["name"]
            duration = span["end"] - span["start"]
            if span["parent"] is None:
                covered += duration
            values[SELF_METRICS.get(name, f"{name}_s")] += duration - inner
            calls = "momenta.grid_mean" if name.startswith("momenta.grid_mean.") else name
            if calls in CALL_METRICS:
                values[f"{calls}_calls"] += 1
            for key, (pattern, combine) in DETAIL_METRICS.items():
                if key in span:
                    metric = pattern.format(name=name)
                    values[metric] = combine((values[metric], span[key]))
        for module, count in data["errors"].items():
            values[f"{module}.errors"] += count
    wall = sum(c["wall_s"] for c in record["commands"].values())
    values["trace.coverage"] = covered / wall
    return values


def end_to_end(jobs, setup_times):
    """Untraced-pass metrics: {name: (value, unit, sample count)}."""
    out = {
        "job_s": (statistics.median([j["job_s"] for j in jobs]), "s", len(jobs)),
        "peak_rss_mb": (statistics.median([max(c["rss_mb"] for c in j["commands"].values()) for j in jobs]),
                        "MB", len(jobs)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
    }
    walls = defaultdict(list)
    for job in jobs:
        for name, cmd in job["commands"].items():
            walls[name].append(cmd["wall_s"])
    for name, samples in sorted(walls.items()):
        out[f"cmd.{name}_s"] = (statistics.median(samples), "s", len(samples))
    return out


def _unit(name):
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_flops", "flop"), ("_bytes", "B"),
                         (".bytes_read", "B"), (".bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(jobs, setup_layers):
    """Traced-pass metrics, medians over jobs: {name: (value, unit, sample count)}.

    Layers that only the set-up reaches (the camera-csv lattice writer) are
    reported from one traced set-up.
    """
    per_job = [job_layers(j["traced"]) for j in jobs]
    for job, values in zip(jobs, per_job):
        untraced = sum(c["wall_s"] for c in job["commands"].values())
        traced = sum(c["wall_s"] for c in job["traced"]["commands"].values())
        values["trace.overhead_frac"] = traced / untraced - 1.0
    names = sorted(set().union(*per_job))
    out = {}
    for name in names:
        unit = "ratio" if name.startswith("trace.") else _unit(name)
        out[name] = (statistics.median([v.get(name, 0.0) for v in per_job]), unit, len(per_job))
    for name, value in setup_layers.items():
        if name not in out and not name.startswith("trace."):
            out[name] = (value, _unit(name), 1)
    # listed layers this workload never reaches (no such spans) read 0
    for metric in SPEC["per_layer"]:
        out.setdefault(metric["name"], (0.0, metric["unit"], len(per_job)))
    flops, byts = out["spectral.ring_flops"][0], out["spectral.ring_bytes"][0]
    out["spectral.ring_flops_per_byte"] = (flops / byts if byts else 0.0, "flop/B", len(per_job))
    return out


def environment():
    """Interpreter, library and machine facts recorded with every result."""
    from importlib import metadata

    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas": "unknown", "blas_threads": "unknown", "llc": "unknown"}
    try:
        import ctypes
        import glob

        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
        libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                      "libscipy_openblas*"))
        if libs:
            get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get_threads.restype = ctypes.c_int
            info["blas_threads"] = get_threads()
    except (ImportError, KeyError, OSError, AttributeError):
        pass
    try:
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = {int((d / "level").read_text()): (d / "size").read_text().strip() for d in caches.glob("index*")}
        info["llc"] = f"L{max(levels)} {levels[max(levels)]}"
    except (OSError, ValueError):
        pass
    return info


def _compare_digests(store, manifest):
    """Compare with digests stored by earlier runs in this work directory, then merge."""
    previous = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    common = [key for key in manifest if key in previous]
    changed = [key for key in common if previous[key] != manifest[key]]
    store.write_text(json.dumps({**previous, **manifest}, indent=1, sort_keys=True), encoding="utf-8")
    if not common:
        return "no earlier run with the same inputs in this work directory"
    if changed:
        return f"CHANGED since an earlier run for {len(changed)} of {len(common)} inputs: {changed}"
    return f"identical to an earlier run for {len(common)} inputs"


def run_setup(argv, workdir, env):
    wall, _, rc = run_command(argv, workdir / "setup.stdout", workdir / "setup.stderr", env)
    if rc != 0:
        raise RuntimeError(f"set-up exited {rc}: {_stderr_tail(workdir / 'setup.stderr')}")
    return wall


def run_workload(workload_cls, args):
    workdir = Path(args.workdir).resolve() / workload_cls.name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(workdir, args.size, args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    # a set-up writes the inputs, or for workloads without any warms the imports
    script = workload.setup_script()
    setup_argv = [sys.executable, *(script or ["-c", "import wavemom.cli"])]
    setup_times = [run_setup(setup_argv, workdir, env) for _ in range(SETUP_REPEATS)]
    setup_layers = {}
    if args.trace and script:
        spans = workdir / "setup.spans.json"
        spans.unlink(missing_ok=True)
        wall = run_setup([sys.executable, str(HERE / "traced.py"), str(spans), "--script", *script], workdir, env)
        setup_layers = job_layers({"spans": [spans], "commands": {"setup": {"wall_s": wall}}})

    jobs = []
    manifest = {}
    start = time.perf_counter()
    for job in workload.jobs():
        if jobs and time.perf_counter() - start >= args.seconds:
            break
        record = run_job(job, workdir, env, traced=False)
        if "digests" in record:
            reference = manifest.setdefault(job.key, record["digests"])
            if record["digests"] != reference:
                record["failures"].append("outputs differ from an earlier job with the same inputs")
        if args.trace:
            record["traced"] = run_job(job, workdir, env, traced=True)
            record["failures"] += [f"traced: {f}" for f in record["traced"]["failures"]]
            if record["traced"].get("digests") != record.get("digests"):
                record["failures"].append("traced run changed the outputs")
        jobs.append(record)

    attempted, failures = len(jobs), [f for j in jobs for f in j["failures"]]
    failed = sum(1 for j in jobs if j["failures"])
    for probe in workload.probes():
        attempted += 1
        _, _, rc = run_command([sys.executable, "-m", "wavemom.cli", *probe.args],
                               workdir / "probe.stdout", workdir / "probe.stderr", env)
        if rc != probe.expect_rc:
            failed += 1
            failures.append(f"probe '{probe.what}' exited {rc}")

    metrics = end_to_end(jobs, setup_times)
    metrics["error_rate"] = (failed / attempted, "ratio", attempted)
    layers = per_layer(jobs, setup_layers) if args.trace else {}
    result = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "size": workload.size,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "attempted": attempted, "failed": failed, "failures": failures,
        "digests": _compare_digests(workdir / f"digests-size{workload.size}.json", manifest),
        "end_to_end": metrics, "per_layer": layers,
        "jobs": [{k: v for k, v in j.items() if k not in ("spans", "traced")} for j in jobs],
    }
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str), encoding="utf-8")
    return result


def _print_table(title, metrics):
    print(f"  {title}")
    for name, (value, unit, count) in metrics.items():
        print(f"    {name:34s} {value:>16.6g} {unit:7s} n={count}")


def report(result):
    env = result["environment"]
    print(f"workload {result['workload']} seed={result['seed']} size={result['size']}^2 "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"  why: {result['why']}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if result["per_layer"]:
        layers = result["per_layer"]
        per_call = layers["spectral.ring_bytes"][0] / max(layers["spectral.ring_calls"][0], 1) / 2 ** 20
        print(f"  computed ring working set {per_call:.1f} MiB per call vs LLC {env['llc']}: "
              "no bandwidth figure is claimed")
    print(f"  output digests: {result['digests']}")
    print("  timings are medians; no percentile has ten samples beyond it at these run lengths")
    _print_table("end to end (untraced pass)", result["end_to_end"])
    if result["per_layer"]:
        _print_table("per layer (traced pass, self time per job)", result["per_layer"])
    for failure in result["failures"][:10]:
        print(f"  FAILED: {failure}")
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    wanted = SPEC["per_layer"] if result["trace"] else SPEC["end_to_end"]
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="grid edge for every workload (default: 1024, camera-csv 512)")
    parser.add_argument("--workdir", default=str(HERE / "work"),
                        help="scratch directory for inputs, outputs and results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wavemom" / "cli.py").is_file():
        print(f"error: no wavemom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
