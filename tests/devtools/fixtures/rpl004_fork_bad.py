"""Known-bad RPL004 fixture: raw fork primitives in executor-style
code (checked as if it lived under ``repro/engine/``). A forked child
of a multi-threaded parent inherits held locks. Never imported — only
parsed."""

import multiprocessing
import os
from multiprocessing import set_start_method


def spawn_worker_the_wrong_way():
    pid = os.fork()
    if pid == 0:
        raise SystemExit(0)
    return pid


def pool_the_wrong_way():
    set_start_method("fork")
    context = multiprocessing.get_context("fork")
    return context.Pool(2)
