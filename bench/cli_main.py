"""``python -m polydet.cli ARGS``, with the host's speed read inside the
process: once before ``polydet.cli`` runs and once at exit.

    python3 bench/cli_main.py ARGS

It runs the module exactly as ``-m`` does (``runpy.run_module`` with
``run_name="__main__"``), so stdout and the exit code are the CLI's own.
The last line of stderr is ``hostspeed <before> <after>``: seconds of one
``hostspeed`` loop at each reading.  A reading taken in the parent
process does not follow a child's speed (their correlation was 0.27 over
60 ``det`` calls), a reading inside the child does.
"""

import atexit
import os
import runpy
import sys

import hostspeed

_before = hostspeed.loop_seconds()


@atexit.register
def _report():
    sys.stderr.write(f"hostspeed {_before!r} {hostspeed.loop_seconds()!r}\n")
    sys.stderr.flush()


sys.argv[0] = os.path.abspath(__file__)
runpy.run_module("polydet.cli", run_name="__main__", alter_sys=True)
