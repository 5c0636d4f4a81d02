"""Federated training over a BFT-committed ledger: latency model + simulator."""

from .domain import DEFAULT_PARAMS, SystemParams

__version__ = "0.10.0"

__all__ = ["DEFAULT_PARAMS", "SystemParams", "__version__"]
