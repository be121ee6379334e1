"""Process entry of ``python -m handleopt`` and the ``handleopt`` script.

``run`` switches the cyclic garbage collector off for the life of the
process, runs ``cli.main`` and calls ``gc.freeze()`` before it returns
the exit code. A CLI run makes almost no cyclic garbage. With the
collector off, ``gc.collect()`` finds the same 355 objects after
``validate`` or a 2- or 12-value ``sweep`` as after ``build_parser()``
alone: the argparse parser, made once per process. ``analyze`` and
``optimize`` add 33, the closures of their one indented ``json.dump``.
Yet the collector ran 27 collections inside ``main`` during an
``optimize`` (about 5 ms) and 1 during a ``validate``; the 8 it runs
while the package is imported come before ``run`` and stay. At exit the
interpreter's final collections walked the whole heap once more.
Frozen objects sit in the permanent generation, which those collections
skip: the time from the end of ``run`` to the end of the process fell
from 15.2 to 4.2 ms for ``validate`` and from 28.7 to 8.2 ms for
``optimize``. Whole fresh processes fell from 101.7 to 91.0 ms and from
275.0 to 250.4 ms (medians of 16 alternating runs over the four
fixtures, 2-CPU VM, Python 3.11).

Outputs are closed before ``main`` returns, and ``gc.freeze()`` keeps
atexit handlers and the normal flush of stdout and stderr, so every byte
and exit code is the one ``cli.main`` gives. ``os._exit`` would save a
little more but skips both. ``cli.main`` itself leaves the caller's
collector alone, so in-process callers keep theirs.

``run`` also sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` to 1 unless the environment sets them, before
numpy loads. handleopt calls no BLAS routine, yet OpenBLAS starts a
worker thread when numpy is imported, and ``write_landscape_csv`` forks
only a process with one OS thread. The setting costs nothing: a fresh
``python -c "import numpy"`` took 209 ms without it and 207 ms with it
(medians of 30 alternating runs on a 2-CPU VM).
"""

import gc
import os
import sys

from .cli import main


def run() -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
