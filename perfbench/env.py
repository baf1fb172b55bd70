"""Process environment for benchmark runs; import before numpy.

BLAS and OpenMP are pinned to one thread so that the library's own sweep
pool (``min(nproc, 8)`` threads when ``INSCRIBED_TRI_THREADS`` is unset) plus
BLAS threads never exceed the cores.  The pool cap is left automatic.
"""

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
POOL_VAR = "INSCRIBED_TRI_THREADS"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def pin_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop(POOL_VAR, None)


def import_program():
    """Import triscribe from this checkout's ``src``, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "triscribe", "__init__.py")):
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import triscribe
    import triscribe.cli  # not imported by the package itself

    if not os.path.abspath(triscribe.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported triscribe from {triscribe.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return triscribe


def describe(program):
    """nproc, the sweep pool cap the library resolves, and the BLAS setting."""
    cap = getattr(program.solvers, "_thread_cap", None)
    return {
        "nproc": os.cpu_count(),
        "pool_cap": cap() if cap is not None else None,
        POOL_VAR: os.environ.get(POOL_VAR),
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }
