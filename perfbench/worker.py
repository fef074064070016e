"""One set-up or one measured repetition of a workload, in its own
process so that its peak RSS belongs to that repetition alone.

Run as `python -m perfbench.worker SPEC_JSON` from the checkout root with
`src` on PYTHONPATH; `perfbench/run.py` does this.  The result is written
as JSON to the spec's `result` path.
"""

from __future__ import annotations

import ctypes
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def blas_threads():
    """Threads OpenBLAS will use, or None where it cannot be asked."""
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_mb():
    """Peak RSS of this process image.

    ru_maxrss keeps the parent's RSS at the exec that started this
    process, so on Linux the kernel's per-image high-water mark is read
    instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_call(cli, command, config, out_dir):
    return cli.main([command, "--config", str(config), "--out-dir",
                     str(out_dir)])


def demo(spec, tracer, result):
    from codemap import cli
    out_dir = Path(spec["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result["setup_s"] = time.perf_counter() - spec["t0"]
    if spec["phase"] == "setup":
        return
    if tracer:
        tracer.install()
    t1, c1 = time.perf_counter(), time.process_time()
    result["returncode"] = cli_call(cli, "run-all", spec["config"], out_dir)
    result["run_s"] = time.perf_counter() - t1
    result["run_cpu_s"] = time.process_time() - c1


def bitext_align(spec, tracer, result):
    from codemap import align
    from perfbench import checks, workloads
    bitext, true_links = workloads.make_bitext(spec["seed"])
    out_dir = Path(spec["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    result["setup_s"] = time.perf_counter() - spec["t0"]
    if spec["phase"] == "setup":
        return
    if tracer:
        tracer.install()
    t1, c1 = time.perf_counter(), time.process_time()
    links, table = align.align_bitext(
        bitext, iterations=workloads.BITEXT_ITERATIONS, mode="intersection")
    align.write_alignments(links, out_dir / "alignments.pharaoh")
    align.write_table(table, out_dir / "ttable.tsv")
    result["run_s"] = time.perf_counter() - t1
    result["run_cpu_s"] = time.process_time() - c1
    if tracer:
        tracer.uninstall()
    result["returncode"] = 0
    result["failures"], result["quality"] = checks.check_alignment(
        bitext, links, table, true_links)


def scaled_map(spec, tracer, result):
    from codemap import cli
    from perfbench import workloads
    work = Path(spec["out_dir"]).parent
    config = work / "project" / "config.txt"
    out_dir = Path(spec["out_dir"])
    if tracer:
        tracer.install()
    if spec["phase"] == "setup":
        shutil.rmtree(work / "project", ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        workloads.make_scaled_project(spec["seed"], spec["fixture"],
                                      work / "project")
        for command in ("pair", "normalize", "align", "train"):
            code = cli_call(cli, command, config, out_dir)
            if code != 0:
                result["returncode"] = code
                return
        result["returncode"] = 0
        result["setup_s"] = time.perf_counter() - spec["t0"]
        return
    result["setup_s"] = time.perf_counter() - spec["t0"]
    t1, c1 = time.perf_counter(), time.process_time()
    code = cli_call(cli, "compose", config, out_dir)
    if code == 0:
        code = cli_call(cli, "map", config, out_dir)
    result["run_s"] = time.perf_counter() - t1
    result["run_cpu_s"] = time.process_time() - c1
    result["returncode"] = code


WORKLOADS = {"demo": demo, "bitext-align": bitext_align,
             "scaled-map": scaled_map}


def main(argv):
    t0 = time.perf_counter()
    spec = json.loads(argv[0])
    spec["t0"] = t0
    tracer = None
    if spec["trace"]:
        from perfbench.tracing import Tracer
        tracer = Tracer(spec["run_id"])
    result = {"phase": spec["phase"], "failures": []}
    WORKLOADS[spec["workload"]](spec, tracer, result)
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    result["peak_rss_mb"] = peak_rss_mb()
    result["blas_threads"] = blas_threads()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
