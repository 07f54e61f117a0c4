"""``repro serve`` with its job fork server's socket on a short path.

Usage: ``python3 -m perfbench.serve_main SERVE-ARGS...`` from the run
directory, with ``src`` and the repository root on ``PYTHONPATH``.

It runs the same ``repro.cli.main(["serve", ...])`` as ``python -m repro
serve``, with one difference.  The service starts its job processes
through a ``forkserver``, which listens on an AF_UNIX socket that
CPython 3.11 places at ``$TMPDIR/pymp-*/listener-*``.  A socket path is
limited to 107 bytes, and a run's ``TMPDIR`` lies inside the checkout,
so under a checkout path of more than about 30 characters every job
failed with ``HTTP 500: AF_UNIX path too long``.  Here multiprocessing's
temporary directory is the relative path ``mp`` inside the working
directory (the run directory), so the socket path stays short and
inside the run.
"""

import multiprocessing
import os
import sys

#: multiprocessing's temporary directory, relative to the working directory
TEMP_DIR = "mp"


def main(argv: list[str]) -> int:
    os.makedirs(TEMP_DIR, exist_ok=True)
    # the key util.get_temp_dir() reads; set, it skips tempfile.mkdtemp
    multiprocessing.current_process()._config["tempdir"] = TEMP_DIR
    from repro.cli import main as repro_main

    return repro_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
