"""``python -m repro`` entry point."""

import os
import sys

if __name__ == "__main__":
    if sys.argv[1:2] == ["serve"]:
        # With a flush per request, OpenBLAS's idle worker spin-waits and
        # keeps a whole core busy; over a small vocabulary one thread scores
        # a flush just as fast.  A large vocabulary does gain from BLAS
        # threads (see docs/SERVING.md), so an explicit setting wins.
        # OpenBLAS reads this only when numpy first loads it, so it is set
        # here, before anything imports numpy.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    from .cli import main

    sys.exit(main())
