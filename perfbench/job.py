"""One fresh-process job: import fedbft, parse a config, maybe run one command.

Usage: python3 job.py REQUEST.json   (run.py writes the request)

The request names a mode -- "env" (set-up, then interpreter, numpy and
BLAS details) or "run" (set-up, then ``fedbft.cli.main(argv)``), whether to install the layer trace, and where
to write the JSON result.  ``setup_s`` times the import of ``fedbft.cli``
plus ``parse_config``; ``run_s`` times the ``main(argv)`` call alone.  The
reference computation (reference.py) runs just before that call
(``ref_before_s``) and just after it; ``ref_s`` is the mean of the two.
"""
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob
    import os

    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _runtime_env() -> dict:
    import platform

    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)

    start = time.perf_counter()
    from fedbft import cli
    cli.parse_config(req["config"])
    result = {"setup_s": time.perf_counter() - start, "fedbft_file": cli.__file__}

    if req["mode"] == "env":
        result["env"] = _runtime_env()
    elif req["mode"] == "run":
        import reference
        recorder = None
        if req["trace"]:
            import layers
            recorder = layers.install()
        # keep the sealed blocks, which the CSV does not show: one extra
        # call around the whole training run
        trainings = []
        run_training = cli.run_training

        def keep_training(*args, **kwargs):
            run = run_training(*args, **kwargs)
            trainings.append(run)
            return run

        cli.run_training = keep_training
        stdout = io.StringIO()
        tb = None
        ref_before = reference.seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(req["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            tb = traceback.format_exc()
        result["run_s"] = time.perf_counter() - t0
        result["ref_before_s"] = ref_before
        result["ref_s"] = (ref_before + reference.seconds()) / 2
        result["exit_code"] = code
        result["traceback"] = tb
        result["stdout"] = stdout.getvalue()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trainings:
            result["blocks"] = [sorted(tx.enterprise_id for tx in block.txs)
                                for block in trainings[-1].blocks]
        if recorder is not None:
            result["layers"] = recorder.snapshot()

    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
