"""``python -m gradedprime``: run the command line and end the process.

``cli.main`` returns after writing and flushing stdout, and the package
opens no file for writing, starts no thread and registers no exit handler.
So once stderr is flushed too, the process ends with ``os._exit``: the
interpreter's teardown (final garbage collections, clearing every module)
would cost about 10 ms of a small call and do nothing for the program.
``SystemExit`` from argument parsing (``--help``, a usage error) leaves the
normal way.
"""

import os
import sys

from .cli import main

status = main()
sys.stderr.flush()
os._exit(status)
