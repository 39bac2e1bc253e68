"""Known-good RPL004 fixture: fresh worker processes via subprocess
and the spawn start method."""

import multiprocessing
import subprocess
import sys


def spawn_worker(scenario):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "loadtest", "--scenario", scenario]
    )


def pool():
    context = multiprocessing.get_context("spawn")
    return context.Pool(2)
