"""Retired toggle, kept only so ``repro.util.pipeline`` still imports.

``REPRO_PIPELINE`` used to force a second, serial interpreter on platforms
that support overlap. Every query now runs on the pipelined scheduler, and
the platform decides only whether HIT groups overlap. The environment
variable is ignored, and no engine module imports this one.
"""


def enabled() -> bool:
    """Always True: every query runs on the pipelined scheduler."""
    return True
