"""One benchmark child process: set up percmix, then optionally run a sweep.

    python3 child.py --config CFG --result OUT.json [--sweep] [--trace]

The parent (run.py) starts this script in a fresh interpreter with the
checkout's ``src`` on PYTHONPATH and BLAS/OpenMP threads pinned to one. Set-up
ends once percmix is imported and the generated config is loaded and
validated, as ``percmix scaling --config`` would do; the CLOCK_MONOTONIC time
of that point goes into the result file so the parent can measure set-up from
the moment it spawned the process. With ``--sweep`` the child then runs
`run_scaling` and records wall time, CPU time, peak RSS and the wall time of
every `run_instance` call; with ``--trace`` it also records layer spans.
"""

import argparse
import json
import resource
import time


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _library_versions():
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--sweep", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from percmix import experiments as exp

    cfg = exp.ExperimentConfig.from_file(args.config)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not args.sweep:
        _write(args.result, {"ready": ready, "percmix": exp.__file__})
        return

    instance_s = []
    timed = exp.run_instance

    def run_instance(cfg, n, seed):
        t0 = time.perf_counter()
        rows = timed(cfg, n, seed)
        instance_s.append((n, seed, time.perf_counter() - t0))
        return rows

    exp.run_instance = run_instance
    tracer = None
    if args.trace:
        from tracer import Tracer, install_percmix

        tracer = Tracer()
        install_percmix(tracer)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    exp.run_scaling(cfg)
    sweep_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ready": ready,
        "percmix": exp.__file__,
        "sweep_s": sweep_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_kb": ru1.ru_maxrss,  # kilobytes on Linux
        "instance_s": instance_s,
        "versions": _library_versions(),
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["spans"] = len(tracer.spans)
        result["residual_max"] = tracer.residual_max
        result["counts"] = [[n, seed, dict(c)] for (n, seed), c in tracer.counts.items()]
    _write(args.result, result)


if __name__ == "__main__":
    main()
