"""Synthetic stand-in for the LBL-CONN-7 TCP connection trace.

The paper's experiments run on ``LBL`` — roughly 700k TCP connections with
five pattern attributes (``protocol``, ``localhost``, ``remotehost``,
``endstate``, ``flags``) and the session ``duration`` as the measure. That
trace is not redistributable here, so this generator produces a trace with
the same schema and the structural properties the algorithms are sensitive
to:

* **skewed categorical frequencies** — attribute values drawn from Zipf
  distributions, so a few heavy-hitter patterns cover large fractions of
  the data while a long tail of patterns covers a handful of rows each
  (this is what makes the lattice pruning of Section V-C pay off);
* **heavy-tailed durations** — log-normal session lengths, so pattern
  costs under ``max`` span orders of magnitude (this is what makes the
  CMC cost levels non-trivial);
* **correlation between protocol and duration** — bulk protocols run
  longer, so cheap high-coverage patterns exist but are not trivial to
  find (the interesting regime for CWSC vs. CMC).

Sizes are scaled to what pure Python can sweep in a benchmark run; the
experiment harness samples rows exactly like the paper does (Fig. 5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.patterns.table import PatternTable

#: Attribute order of the synthetic trace (matches the paper's listing).
LBL_ATTRIBUTES = ("protocol", "localhost", "remotehost", "endstate", "flags")

#: Protocols in descending traffic share (Zipf rank order). The frequent
#: protocols are the short, capped ones — as in real traces — so cheap
#: patterns with large coverage exist at every size scale.
_PROTOCOLS = (
    "http", "domain", "smtp", "ftp-data", "pop", "nntp", "finger",
    "printer", "ftp", "shell", "telnet", "other",
)
#: Per-protocol multiplier on the log-duration (bulk transfers run long).
_PROTOCOL_DURATION_SHIFT = {
    "telnet": 1.5, "ftp": 1.0, "ftp-data": 0.5, "smtp": -0.5,
    "nntp": 0.8, "http": -1.0, "finger": -1.5, "domain": -1.2,
    "printer": 0.2, "pop": -0.8, "shell": 0.6, "other": 0.0,
}
#: Hard per-protocol duration ceiling (seconds). Request/response
#: protocols never run long in real traces, so patterns like
#: ``(domain, ALL, ..., ALL)`` have a *bounded* ``max``-cost no matter how
#: many records they cover — the cheap high-coverage sets the paper's LBL
#: experiments rely on.
_PROTOCOL_DURATION_CAP = {
    "telnet": 200.0, "ftp": 60.0, "ftp-data": 20.0, "smtp": 8.0,
    "nntp": 15.0, "http": 5.0, "finger": 2.0, "domain": 1.0,
    "printer": 20.0, "pop": 3.0, "shell": 90.0, "other": 60.0,
}
_ENDSTATES = (
    "SF", "REJ", "S0", "S1", "S2", "S3", "RSTO", "RSTR", "OTH", "SH",
)
#: Multiplier on the duration per end state: rejected / half-open
#: connections last almost no time, which is what makes patterns like
#: ``(ALL, ..., endstate=REJ, ALL)`` cheap despite covering many records.
_ENDSTATE_DURATION_FACTOR = {
    "SF": 1.0, "REJ": 0.05, "S0": 0.08, "S1": 0.3, "S2": 0.35,
    "S3": 0.4, "RSTO": 0.15, "RSTR": 0.2, "OTH": 0.6, "SH": 0.1,
}
_FLAGS = ("-", "U", "D", "UD", "T", "UT", "DT", "UDT", "N", "X")


def _rotated(values: tuple, drift: float) -> list:
    """Rotate a popularity ranking by ``round(drift * len)`` positions."""
    shift = int(round(drift * len(values))) % len(values)
    return list(values[shift:]) + list(values[:shift])


def _zipf_probabilities(n_values: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n_values + 1, dtype=float)
    weights = ranks**-exponent
    return weights / weights.sum()


def _draw(
    rng: np.random.Generator, domain, n_rows: int, exponent: float
) -> list:
    """``n_rows`` Zipf-weighted draws from ``domain``, as the domain's
    own objects: a table then holds one string per distinct value, not
    one per cell (0.5 instead of 2.1 MB for 6 000 rows)."""
    picks = rng.choice(
        len(domain), size=n_rows, p=_zipf_probabilities(len(domain), exponent)
    )
    return [domain[pick] for pick in picks.tolist()]


def lbl_trace(
    n_rows: int = 10_000,
    seed: int = 7,
    n_localhosts: int = 300,
    n_remotehosts: int = 1_200,
    zipf_exponent: float = 1.3,
    duration_sigma: float = 0.8,
    drift: float = 0.0,
) -> PatternTable:
    """Generate a synthetic LBL-like connection trace.

    Parameters
    ----------
    n_rows:
        Number of connection records.
    seed:
        RNG seed; identical parameters yield an identical table.
    n_localhosts / n_remotehosts:
        Domain sizes of the two host attributes.
    zipf_exponent:
        Skew of every categorical distribution (larger = heavier head).
    duration_sigma:
        Log-space standard deviation of the session durations.
    drift:
        Distribution drift in ``[0, 1]``: rotates the protocol and end
        state popularity rankings by ``round(drift * domain)`` positions,
        so batches generated with increasing drift model a workload whose
        traffic mix changes over time (this is what exercises the
        incremental maintainer's repair/recompute paths).

    Returns
    -------
    PatternTable
        Five pattern attributes plus a ``duration`` measure.
    """
    if n_rows < 1:
        raise ValidationError(f"n_rows must be >= 1, got {n_rows}")
    if n_localhosts < 1 or n_remotehosts < 1:
        raise ValidationError("host domain sizes must be >= 1")
    if not (0.0 <= drift <= 1.0):
        raise ValidationError(f"drift must be in [0, 1], got {drift}")
    rng = np.random.default_rng(seed)

    protocol_order = _rotated(_PROTOCOLS, drift)
    endstate_order = _rotated(_ENDSTATES, drift)

    protocols = _draw(rng, protocol_order, n_rows, zipf_exponent)
    localhosts = _draw(
        rng, [f"lbl-{i:03d}" for i in range(n_localhosts)], n_rows,
        zipf_exponent,
    )
    remotehosts = _draw(
        rng, [f"rem-{i:04d}" for i in range(n_remotehosts)], n_rows,
        zipf_exponent,
    )
    endstates = _draw(rng, endstate_order, n_rows, zipf_exponent)
    flags = _draw(rng, _FLAGS, n_rows, zipf_exponent)

    shift = np.array([_PROTOCOL_DURATION_SHIFT[p] for p in protocols])
    state_factor = np.array(
        [_ENDSTATE_DURATION_FACTOR[s] for s in endstates]
    )
    # Log-normal around a protocol-dependent location (mean log-duration
    # ~2, as in the paper's Section VI-B regeneration), scaled down hard
    # for failed/half-open end states.
    cap = np.array([_PROTOCOL_DURATION_CAP[p] for p in protocols])
    durations = state_factor * np.minimum(
        np.exp(rng.normal(loc=2.0 + shift, scale=duration_sigma)), cap
    )
    durations = np.round(durations, 4)
    durations = np.maximum(durations, 0.0001)

    rows = list(zip(protocols, localhosts, remotehosts, endstates, flags))
    return PatternTable(
        attributes=LBL_ATTRIBUTES,
        rows=rows,
        measure=durations.tolist(),
        measure_name="duration",
    )
