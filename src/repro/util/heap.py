"""Collector control for bulk builds of long-lived state."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector for the block.

    Meant for bulk builds whose allocations all outlive the block — a
    checkpoint load, a full index build: a collection during them walks
    the growing heap and frees nothing.  The collector's previous state
    is restored on exit, exception or not.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def freeze_survivors() -> None:
    """Collect once, then move every surviving object into the
    collector's permanent generation (``gc.freeze``).

    Meant for a long-running process right after it has loaded its
    long-lived state — a server after recovery and warm-up: full
    collections then walk only what was allocated since, instead of a
    corpus that never dies.  The freeze is process-wide, so a library
    that may share its process with other systems must not call it.
    """
    gc.collect()
    gc.freeze()
