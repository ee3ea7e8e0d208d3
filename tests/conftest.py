"""Suite-wide setup, loaded by pytest before any test module imports numpy.

BLAS is pinned to one thread, as in ``perfbench/run.py`` and in the command
that generated ``data/sweep_ds_n3_seed7.csv``.  The matrices here are at
most 256 x 256, so extra BLAS threads buy nothing on an idle machine, but
they spin against any other busy process: on 2 cores, two concurrent
N=7 X-heuristic sweeps took 86 s each with default threading and 15 s each
pinned.  The setting is inherited by the CLI subprocesses the tests start.

``src`` is put first on ``PYTHONPATH`` for the same subprocesses, so
``python -m gmx.cli`` finds the package of this checkout whether or not
the caller set the path (pytest's own ``pythonpath`` setting reaches only
the test process).
"""

import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
