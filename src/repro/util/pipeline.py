"""Retired toggle, kept only so ``repro.util.pipeline`` still imports.

``REPRO_PIPELINE`` used to force the depth-first interpreter on platforms
that support overlap. The executor is now chosen by the platform alone:
the pipelined executor runs whenever the platform has the multi-client
``submit_hit_group``/``harvest`` API, and the depth-first interpreter
serves blocking platforms. The environment variable is ignored, and no
engine module imports this one.
"""


def enabled() -> bool:
    """Always True: the pipelined executor runs wherever the platform allows."""
    return True
