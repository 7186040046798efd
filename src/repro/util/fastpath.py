"""Retired toggle, kept only so ``repro.util.fastpath`` still imports.

``REPRO_FASTPATH`` used to switch every hot-path optimization back to a
bit-identical reference twin. The twins are gone: each algorithm has one
implementation. The environment variable is ignored, and no engine module
imports this one.
"""


def enabled() -> bool:
    """Always True: the one implementation is the former fast path."""
    return True
