"""Loud parsing for ``REPRO_*`` environment variables.

Every knob this repository reads from the environment goes through one
of these helpers (or an equally strict local parser, e.g.
``repro.api.scale.ExperimentScale.from_environment`` and the engine
resolver in :mod:`repro.sim.engine`).  The contract is uniform: an
unset or empty variable means the default, and a set-but-invalid value
raises ``ValueError`` naming the variable, the offending value, and
what would have been accepted.  A typo must never silently select a
fallback -- ``REPRO_SIM_ENGINE=fsat`` running the default engine for an
entire sweep is strictly worse than an immediate crash.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence


def env_int(
    name: str,
    default: Optional[int],
    *,
    minimum: Optional[int] = None,
) -> Optional[int]:
    """Parse ``name`` as an integer, loudly."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid {name}={raw!r}; expected an integer"
            + (f" >= {minimum}" if minimum is not None else "")
        ) from None
    if minimum is not None and value < minimum:
        raise ValueError(
            f"invalid {name}={raw!r}; expected an integer >= {minimum}"
        )
    return value


def env_float(
    name: str,
    default: Optional[float],
    *,
    positive: bool = False,
) -> Optional[float]:
    """Parse ``name`` as a float, loudly."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"invalid {name}={raw!r}; expected a number"
        ) from None
    if positive and not value > 0:
        raise ValueError(
            f"invalid {name}={raw!r}; expected a number > 0"
        )
    return value


def env_choice(name: str, default: str, choices: Sequence[str]) -> str:
    """Parse ``name`` as one of ``choices``, loudly."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    if raw not in choices:
        known = ", ".join(choices)
        raise ValueError(
            f"invalid {name}={raw!r}; valid values: {known}"
        )
    return raw


def env_path(
    name: str,
    default: Optional[str],
    *,
    suffixes: Optional[Sequence[str]] = None,
) -> Optional[str]:
    """Parse ``name`` as a filesystem path, loudly.

    ``suffixes`` guards against boolean-style typos: a variable meant to
    hold a file path (``REPRO_TRACE=out.jsonl``) set to ``1`` or ``on``
    must crash, not create a file literally named ``1``.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    if suffixes and not any(raw.endswith(suffix) for suffix in suffixes):
        accepted = ", ".join(suffixes)
        raise ValueError(
            f"invalid {name}={raw!r}; expected a file path ending in one of: {accepted}"
        )
    return raw
