"""``REPRO_STORE``, declared in :mod:`repro.util.toggles`; perfbench reads it here."""

from repro.util import toggles

enabled = toggles.STORE.enabled
