"""``REPRO_ADAPT``, declared in :mod:`repro.util.toggles`; perfbench reads it here."""

from repro.util import toggles

enabled = toggles.ADAPT.enabled
