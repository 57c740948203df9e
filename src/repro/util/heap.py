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
