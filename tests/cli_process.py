"""`python -m greenquadrics` in a child process, importing the package from
this checkout's `src` whatever the parent's `PYTHONPATH`."""

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run_gq(args, env=None, **kwargs):
    """The finished child: its exit code and its stdout and stderr as text."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "greenquadrics", *args], capture_output=True, text=True, env=env, **kwargs
    )
