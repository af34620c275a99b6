"""A cap on the test process's memory, for tests of sizes that must not be
allocated."""

import contextlib
import resource
from pathlib import Path


@contextlib.contextmanager
def memory_headroom(extra=1 << 30):
    """Cap this process's address space at its current size plus ``extra``
    bytes, so that a size slipping past a check fails with MemoryError
    instead of taking the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    pages = int(Path("/proc/self/statm").read_text().split()[0])
    cap = pages * resource.getpagesize() + extra
    resource.setrlimit(resource.RLIMIT_AS, (
        cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
