"""The sparse fine-pass knob (``REPRO_SPARSE`` / ``--sparse``).

The packed fine pass (see :mod:`repro.models.ibrnet`) is on by default:
it is byte-identical to the padded path by construction, so there is no
quality trade-off to opt into.  The knob exists as an escape hatch —
for A/B benchmarking (``benchmarks/harness.py``'s ``sparse_fine_pass``
pair), for pinning the padded reference in the equivalence suite, and
for turning the machinery off wholesale if a future BLAS build breaks
the kernel-regime model the packing relies on
(:mod:`repro.nn.regime`).

Parsing is lenient, like every other ``REPRO_*`` knob (see
:mod:`repro.core.faults`): a malformed value warns through the
structured log and falls back to the default instead of crashing a
long render.  :func:`parse_sparse_flag` and :func:`flag_enabled` serve
the other boolean knob, ``REPRO_FOOTPRINT``
(:mod:`repro.models.footprint`), too.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

SPARSE_ENV = "REPRO_SPARSE"

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})

_LOG = logging.getLogger("repro.models.sparse")


def parse_sparse_flag(value, source: str = SPARSE_ENV) -> Optional[bool]:
    """Best-effort boolean parse; ``None`` (with a structured warning
    naming ``source``) on malformed input, so a typo'd knob degrades to
    the default.  The parser for every boolean ``REPRO_*`` knob."""
    text = str(value).strip().lower()
    if text in _TRUE_WORDS:
        return True
    if text in _FALSE_WORDS:
        return False
    # Imported lazily: this module loads from ``models.ibrnet`` before
    # the ``models`` package finishes initialising, and ``repro.core``'s
    # package init imports back into ``models`` — a module-level import
    # here would re-enter the half-initialised package.
    from ..core import log
    log.event(_LOG, "knob.ignored", level=logging.WARNING,
              knob=source, value=value)
    return None


def flag_enabled(env: str, override: Optional[bool] = None) -> bool:
    """Resolve a default-on boolean knob: explicit ``override``, then
    the ``env`` variable, then on.  Empty/whitespace env values are
    skipped; malformed values warn and fall through."""
    if override is not None:
        return bool(override)
    value = os.environ.get(env)
    if value is not None and value.strip():
        parsed = parse_sparse_flag(value, env)
        if parsed is not None:
            return parsed
    return True


def sparse_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the sparse fine-pass switch.

    Priority: explicit argument (``forward(..., sparse=...)`` or the
    CLI's ``--sparse/--no-sparse``), then the ``REPRO_SPARSE`` env knob,
    then the default (on); see :func:`flag_enabled`.
    """
    return flag_enabled(SPARSE_ENV, override)
