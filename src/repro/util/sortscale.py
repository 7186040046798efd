"""Retired toggle, kept only so ``repro.util.sortscale`` still imports.

``REPRO_SORTSCALE`` used to switch the sort layer back to bit-identical
reference twins (full-Tarjan cycle breaking, a re-sorting Kahn queue,
per-window confidence scoring). The twins are gone, and the LIMIT
tournament is the plain ``ExecutionConfig.limit_sort_tournament`` field.
The environment variable is ignored, and no engine module imports this one.
"""


def enabled() -> bool:
    """Always True: the one implementation is the former scale path."""
    return True
