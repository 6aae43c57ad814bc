import tracemalloc


def traced_peak(fn):
    """(fn(), peak bytes tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
