"""Traced peak memory of one call, for the tests that bound a kernel's
footprint per item it handles."""

import tracemalloc


def peak_bytes_per_item(call, items: int) -> float:
    """tracemalloc's peak during call(), in bytes per item.  call runs once
    untraced first, so one-time set-up (imports, caches) is not counted."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / items
