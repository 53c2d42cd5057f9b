"""A deterministic sleep unit for fabric failure tests.

Registered on import (the worker agent loads it via ``--preload
slowunit``), so both coordinator-side encoding and agent-side execution
know the type.  The runner sleeps a controlled amount and returns its
value — long enough to kill a worker mid-task without racing the real
model checker's variance.
"""

import os
import time
from dataclasses import dataclass

from repro.dist.protocol import register_unit


@dataclass(frozen=True)
class SleepTask:
    job_id: str
    seconds: float
    value: str


def _encode(task):
    return {"job_id": task.job_id, "seconds": task.seconds,
            "value": task.value}


def _decode(data):
    return SleepTask(job_id=data["job_id"],
                     seconds=float(data["seconds"]),
                     value=data["value"])


def run_sleep(task):
    time.sleep(task.seconds)
    return {"value": task.value, "pid": os.getpid()}


register_unit("sleep-task", SleepTask, _encode, _decode, run_sleep)
