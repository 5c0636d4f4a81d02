"""Shared value types: system parameters, transactions, blocks, latency records.

Everything here is an immutable record.  Arrays are held by one rule,
``frozen``, so a constructed transaction or block can be shared freely
between the trainer, the verifier and the simulator.  A
transaction built without a digest signs its own payload; one built with
a digest keeps it, and ``digest_ok`` checks it against the payload.
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

__all__ = [
    "SystemParams",
    "DEFAULT_PARAMS",
    "LocalUpdateTx",
    "Block",
    "LatencyBreakdown",
    "ExperimentStats",
    "COMPONENT_FIELDS",
    "SUM_FIELDS",
    "ALL_FIELDS",
    "tx_payload_bytes",
    "tx_digest",
    "parse_params_text",
    "frozen",
]

# Integer-valued configuration fields; everything else parses as float.
_INT_FIELDS = frozenset({"n_peers", "f", "n_block", "t_max"})

# Config-file key -> dataclass attribute.  "lambda" is a Python keyword,
# so the attribute is called lam.
_KEY_TO_ATTR = {"lambda": "lam"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}

# Fields where +inf has a meaning: tau=inf never seals on the timeout, and
# epsilon=inf stops training after one cycle.  Every other field must be finite.
_INF_ALLOWED = frozenset({"tau", "epsilon"})

# Bounds that keep the draws of one simulated stream within memory, and
# one local training pass within seconds.
MAX_N_BLOCK = 1_000_000
MAX_F = 100_000
MAX_T_MAX = 1_000_000


@dataclass(frozen=True)
class SystemParams:
    """Full parameterization of one training-plus-consensus deployment.

    Rates are per second, sizes in bits, f_c in CPU cycles per second.
    ``lam`` is the transaction arrival rate (config key ``lambda``),
    ``mu`` the per-peer service rate, ``f`` the tolerated faulty peers,
    ``n_block`` the block capacity in transactions and ``tau`` the leader's
    maximum batching wait.  ``delta_m``/``delta_d`` are model and data unit
    sizes, ``h`` the block header size, ``w_up``/``w_dn`` link bandwidths
    with SNRs ``gamma_up``/``gamma_dn``.  ``beta``, ``epsilon``, ``e0`` and
    ``t_max`` drive the local update rule, the stop rule and verification.
    """

    lam: float = 100.0
    mu: float = 300.0
    n_peers: int = 4
    f: int = 1
    n_block: int = 100
    tau: float = 10.0
    delta_m: float = 1e4
    delta_d: float = 1e4
    h: float = 1e3
    f_c: float = 1e9
    w_up: float = 1e6
    w_dn: float = 1e7
    gamma_up: float = 3.0
    gamma_dn: float = 15.0
    beta: float = 0.5
    epsilon: float = 1e-3
    e0: float = 0.5
    t_max: int = 500

    def __post_init__(self) -> None:
        """Check every invariant, raising ValueError naming the first violation."""
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name not in _INF_ALLOWED and not math.isfinite(value):
                raise ValueError(f"{_ATTR_TO_KEY.get(field.name, field.name)} must be finite")
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.lam < self.mu:
            raise ValueError("lambda must be < mu")
        if self.f < 0:
            raise ValueError("f must be >= 0")
        if self.f > MAX_F:
            raise ValueError(f"f must be <= {MAX_F}")
        if self.n_peers != 3 * self.f + 1:
            raise ValueError("n_peers must equal 3f+1")
        if self.n_block < 1:
            raise ValueError("n_block must be >= 1")
        if self.n_block > MAX_N_BLOCK:
            raise ValueError(f"n_block must be <= {MAX_N_BLOCK}")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        for name in ("delta_m", "delta_d", "h", "f_c", "w_up", "w_dn",
                     "gamma_up", "gamma_dn"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.beta >= 0:
            raise ValueError("beta must be >= 0")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 <= self.e0 <= 1:
            raise ValueError("e0 must be within [0, 1]")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.t_max > MAX_T_MAX:
            raise ValueError(f"t_max must be <= {MAX_T_MAX}")


DEFAULT_PARAMS = SystemParams()


def parse_params_text(text: str) -> SystemParams:
    """Parse flat key=value configuration text.

    ``#`` starts a comment line, blank lines are skipped, keys missing from
    the text keep their defaults.  Unknown or duplicate keys and malformed
    values are reported with their line number.
    """
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value on line {lineno}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        attr = _KEY_TO_ATTR.get(key, key)
        if attr not in {f.name for f in fields(SystemParams)}:
            raise ValueError(f"unknown key '{key}' on line {lineno}")
        if attr in seen:
            raise ValueError(f"duplicate key '{key}' on line {lineno}")
        try:
            seen[attr] = int(value) if attr in _INT_FIELDS else float(value)
        except ValueError:
            raise ValueError(
                f"invalid value '{value}' for key '{key}' on line {lineno}"
            ) from None
    return SystemParams(**seen)


def frozen(a, dtype=np.float64) -> np.ndarray:
    """``a`` itself when it is a read-only ``dtype`` array whose memory
    owner, the base that owns the data, is read-only too; else a read-only
    ``dtype`` copy of ``a``, so no caller can change what a record holds."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable:
        owner = a
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        if owner.flags.owndata and not owner.flags.writeable:
            return a
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def tx_payload_bytes(tx: LocalUpdateTx) -> bytes:
    """Canonical little-endian serialization of a transaction payload."""
    w = np.ascontiguousarray(tx.weights, dtype="<f8")
    g = np.ascontiguousarray(tx.shared_gradient, dtype="<f8")
    head = struct.pack("<qqdqq", tx.enterprise_id, tx.n_samples, tx.created_at, w.size, g.size)
    return b"".join((head, w, g))


def tx_digest(tx: LocalUpdateTx) -> str:
    """SHA-256 over the canonical payload bytes; any field change changes it."""
    return hashlib.sha256(tx_payload_bytes(tx)).hexdigest()


@dataclass(frozen=True, eq=False)
class LocalUpdateTx:
    """One enterprise's signed local update: weights plus shared gradient.

    Built without a digest it signs its payload; a digest passed in is kept.
    """

    enterprise_id: int
    weights: np.ndarray
    shared_gradient: np.ndarray
    n_samples: int
    created_at: float
    digest: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", frozen(self.weights))
        object.__setattr__(self, "shared_gradient", frozen(self.shared_gradient))
        if self.weights.shape != self.shared_gradient.shape:
            raise ValueError("weights and shared_gradient must have equal dimension")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.digest is None:
            object.__setattr__(self, "digest", tx_digest(self))

    def digest_ok(self) -> bool:
        return self.digest == tx_digest(self)


@dataclass(frozen=True, eq=False)
class Block:
    """A sealed batch of update transactions ordered by creation time."""

    txs: tuple[LocalUpdateTx, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "txs", tuple(self.txs))
        if len(self.txs) < 1:
            raise ValueError("block must contain at least one tx")
        created = [tx.created_at for tx in self.txs]
        if any(a > b for a, b in zip(created, created[1:])):
            raise ValueError("block txs must be ordered by created_at")

    @classmethod
    def seal(cls, txs: Iterable[LocalUpdateTx], n_block: int) -> "Block":
        txs = tuple(txs)
        if len(txs) > n_block:
            raise ValueError("block exceeds n_block capacity")
        return cls(txs)


# Measured (or predicted) components, in the order CSV columns use them.
COMPONENT_FIELDS = ("t_local", "t_up", "t_preprepare", "t_prepare",
                    "t_commit", "t_dn", "t_global")
SUM_FIELDS = ("t_update", "t_commun", "t_consensus", "t_total")
ALL_FIELDS = COMPONENT_FIELDS + SUM_FIELDS


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-cycle delay components in seconds, or arrays of them with one
    entry per replication; sums are derived, never stored.  Every
    component is >= 0 and finite, and so is t_total."""

    t_local: float
    t_up: float
    t_preprepare: float
    t_prepare: float
    t_commit: float
    t_dn: float
    t_global: float

    def __post_init__(self) -> None:
        values = [getattr(self, name) for name in COMPONENT_FIELDS]
        # seven Python floats take plain comparisons, arrays numpy's
        scalar = all(type(v) is float for v in values)
        for name, v in zip(COMPONENT_FIELDS, values):
            if (v < 0) if scalar else (np.asarray(v) < 0).any():
                raise ValueError(f"{name} must be >= 0")
        # no component is negative here, so a NaN or inf component leaves
        # the sum non-finite, and so does a sum of finite ones that overflows
        finite = math.isfinite if scalar else lambda v: np.isfinite(v).all()
        if not finite(self.t_total):
            bad = next((name for name, v in zip(COMPONENT_FIELDS, values)
                        if not finite(v)), "t_total")
            raise ValueError(f"{bad} must be finite")

    @property
    def t_update(self) -> float:
        return self.t_local + self.t_global

    @property
    def t_commun(self) -> float:
        return self.t_up + self.t_dn

    @property
    def t_consensus(self) -> float:
        return self.t_preprepare + self.t_prepare + self.t_commit

    @property
    def t_total(self) -> float:
        return self.t_update + self.t_commun + self.t_consensus


@dataclass(frozen=True)
class ExperimentStats:
    """Replicated-measurement summary next to the matching model prediction.

    ``std_err`` entries are NaN when a single replication makes them
    undefined.
    All four mappings are keyed by the latency field names.
    """

    mean: dict[str, float]
    std_err: dict[str, float]
    analytic: dict[str, float]
    rel_error: dict[str, float]

