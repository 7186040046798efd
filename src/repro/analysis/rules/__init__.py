"""The rule registry: importing this package registers every rule.

One module per rule, one class per module, registered by ID via the
:func:`repro.analysis.engine.register` decorator. Imports are explicit (not
a directory scan) so registration order — and therefore output order — is
deterministic and a missing rule file is an ImportError, not a silently
smaller registry.
"""

from repro.analysis.rules import (  # noqa: F401
    rl001_hash_seed,
    rl002_environ,
    rl003_import_env,
    rl004_wall_clock,
    rl005_set_order,
    rl006_float_money,
    rl007_mutable_default,
    rl008_toggle_contract,
    rl009_cache_mutation,
    rl010_swallow,
    rl011_dispatch_ladder,
    rl013_process_memo,
)
