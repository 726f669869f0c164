"""The one launcher of ``python -m framecheck``, the ``framecheck`` console
script and ``python -m framecheck.cli``.

This module imports only the standard library, so :func:`launch` runs
before numpy loads.  In-process callers of ``framecheck.cli.main`` or
``entry`` get none of it.
"""

import gc
import os


def launch():
    """Prepare the process, then import the CLI and run its ``entry()``.

    - ``OPENBLAS_NUM_THREADS`` defaults to 1; a value the user set is kept.
      Every product here is a stack of 3x3 tensors, far below OpenBLAS's
      threading threshold, yet numpy's import would start an OpenBLAS
      thread per further core that spins and never gets work.
    - The collector is paused across the imports of numpy and framecheck,
      which make many objects and free almost none.  What they made is
      frozen before it resumes, so ``main`` runs with the collector on and
      no collection rescans the modules.
    - One 256 KiB block is made and freed first.  glibc then raises its
      mmap threshold to that size and trims the heap only when twice that
      is free at its top, so the checks' temporaries (under 128 KiB each)
      reuse heap pages instead of being faulted in again call after call,
      whatever the process's memory layout.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    bytes(256 << 10)
    gc.disable()
    from .cli import entry

    gc.freeze()
    gc.enable()
    entry()


if __name__ == "__main__":
    launch()
