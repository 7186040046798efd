"""``REPRO_RESILIENCE``, declared in :mod:`repro.util.toggles`; perfbench reads it here."""

from repro.util import toggles

enabled = toggles.RESILIENCE.enabled
