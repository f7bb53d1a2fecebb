"""``python -m gradedprime`` and the ``gradedprime`` script: ``run`` runs the
command line and ends the process.

``cli.main`` returns after writing and flushing stdout, and the package
opens no file for writing, starts no thread and registers no exit handler.
So once stderr is flushed too, the process ends with ``os._exit``: the
interpreter's teardown would cost about 10 ms of a small call, and after a
closed pipe its flush of stdout would fail again.  ``SystemExit`` from
argument parsing (``--help``, a usage error) leaves the normal way.
"""

import os
import sys

from .cli import main


def run():
    status = main()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
