"""Per-layer trace of one fedbft job, installed from outside the package.

``install()`` wraps fedbft's public functions in place.  Modules import
several of them by name (``sim`` imports ``svrg_local_cycle``, ``cli``
imports ``run_cycle``, ...), so every ``fedbft.*`` module attribute bound
to the original function is rebound to the wrapper.  Each wrapper keeps a
call count and self time (its duration minus the time of wrapped callees)
plus a few exact work counters; nothing is written until the job ends.
"""
from __future__ import annotations

import os
import sys
import time

import numpy as np

# layer name -> (module, attribute); "latency" wraps the whole module
TARGETS = {
    "sim.RandomStreams.for_replication": ("fedbft.sim", "RandomStreams.for_replication"),
    "sim.run_experiment": ("fedbft.sim", "run_experiment"),
    "sim.sample_exponential": ("fedbft.sim", "sample_exponential"),
    "sim.run_cycle": ("fedbft.sim", "run_cycle"),
    "sim.run_leader_batching": ("fedbft.sim", "run_leader_batching"),
    "sim.run_pbft_round": ("fedbft.sim", "run_pbft_round"),
    "fl.svrg_local_cycle": ("fedbft.fl", "svrg_local_cycle"),
    "fl.verify_update": ("fedbft.fl", "verify_update"),
    "fl.accuracy": ("fedbft.fl", "accuracy"),
    "fl.aggregate_global": ("fedbft.fl", "aggregate_global"),
    "fl.global_full_gradient": ("fedbft.fl", "global_full_gradient"),
    "fl.pooled_mean_loss": ("fedbft.fl", "pooled_mean_loss"),
    "domain.tx_digest": ("fedbft.domain", "tx_digest"),
    "data.two_class_gaussian": ("fedbft.data", "two_class_gaussian"),
    "data.split_dataset": ("fedbft.data", "split_dataset"),
    "cli.parse_config": ("fedbft.cli", "parse_config"),
    "cli.write_csv": ("fedbft.cli", "write_csv"),
    "cli.run_training": ("fedbft.cli", "run_training"),
}
LATENCY_MODULE = "fedbft.latency"

# Layers each kind of workload is predicted to use; every other layer is
# predicted idle (zero calls).  The coverage check holds both predictions.
_COMMON = {"sim.sample_exponential", "cli.parse_config", "cli.write_csv", "latency"}
USED = {
    "sim": _COMMON | {"sim.RandomStreams.for_replication", "sim.run_experiment"},
    "fl": _COMMON | {
        "sim.run_cycle", "sim.run_leader_batching", "sim.run_pbft_round",
        "fl.svrg_local_cycle", "fl.verify_update", "fl.accuracy",
        "fl.aggregate_global", "fl.global_full_gradient", "fl.pooled_mean_loss",
        "domain.tx_digest", "data.two_class_gaussian", "data.split_dataset",
        "cli.run_training"},
}
LAYERS = tuple(TARGETS) + ("latency",)


class Stat:
    __slots__ = ("calls", "self_ns", "counters", "durations_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.counters: dict[str, float] = {}
        self.durations_ns: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Recorder:
    """Call counts and self times per wrapped function, kept in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[int] = []   # callee time accumulated per open call

    def wrap(self, name: str, fn, observe=None, keep_durations: bool = False):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                callees = stack.pop()
                stat.calls += 1
                stat.self_ns += elapsed - callees
                if keep_durations:
                    stat.durations_ns.append(elapsed)
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(stat, return_value, args, kwargs)
            return return_value

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def snapshot(self) -> dict:
        out = {}
        for name, st in self.stats.items():
            out[name] = {"calls": st.calls, "self_ns": st.self_ns,
                         "counters": st.counters}
            if st.durations_ns:
                out[name]["durations_ns"] = st.durations_ns
        return out


def _rebind(old, new, modules) -> int:
    hits = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                hits += 1
    return hits


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install() -> Recorder:
    """Wrap every target in the already-imported fedbft modules."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "fedbft" or n.startswith("fedbft.")]
    latency = sys.modules[LATENCY_MODULE]
    t_download = latency.t_download          # the unwrapped original

    def realized_b(p, t_dn: float) -> float:
        # t_download is affine in b; invert it through two of its values
        one = t_download(p.h, 1, p.delta_m, p.w_dn, p.gamma_dn)
        two = t_download(p.h, 2, p.delta_m, p.w_dn, p.gamma_dn)
        return 1.0 + (t_dn - one) / (two - one)

    def count_draws(stat, value, args, kwargs):
        stat.add("draws", int(np.size(value)))

    def count_accepts(stat, value, args, kwargs):
        stat.add("accepted", int(bool(value.accepted)))

    def count_csv_bytes(stat, value, args, kwargs):
        out = _arg(args, kwargs, 0, "out")
        if out not in (None, "-"):
            stat.add("bytes", os.path.getsize(out))

    def block_b_from_stats(stat, value, args, kwargs):
        p = _arg(args, kwargs, 0, "p")
        stat.add("b_sum", realized_b(p, value.mean["t_dn"]))
        stat.add("b_count", 1)

    def block_b_from_cycle(stat, value, args, kwargs):
        p = _arg(args, kwargs, 0, "p")
        stat.add("b_sum", realized_b(p, value[1].t_dn))
        stat.add("b_count", 1)

    observers = {
        "sim.sample_exponential": count_draws,
        "fl.verify_update": count_accepts,
        "cli.write_csv": count_csv_bytes,
        "sim.run_experiment": block_b_from_stats,
        "sim.run_cycle": block_b_from_cycle,
    }

    rec = Recorder()
    for name, (modname, attr) in TARGETS.items():
        mod = sys.modules[modname]
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:  # a classmethod: rebind on the class itself
            owner = getattr(mod, owner_name)
            original = owner.__dict__[fn_name].__func__
            setattr(owner, fn_name, classmethod(rec.wrap(name, original)))
            continue
        original = getattr(mod, fn_name)
        wrapped = rec.wrap(name, original, observers.get(name),
                           keep_durations=(name == "sim.run_cycle"))
        if not _rebind(original, wrapped, modules):
            raise RuntimeError(f"{modname}.{fn_name} is not bound anywhere")
    # tx_digest hashes what tx_payload_bytes returns: count those bytes
    # without timing the call, so its time stays in tx_digest's self time
    digest_stat = rec.stats["domain.tx_digest"]
    payload_bytes = sys.modules["fedbft.domain"].tx_payload_bytes

    def counted_payload_bytes(*args, **kwargs):
        payload = payload_bytes(*args, **kwargs)
        digest_stat.add("bytes", len(payload))
        return payload

    if not _rebind(payload_bytes, counted_payload_bytes, modules):
        raise RuntimeError("fedbft.domain.tx_payload_bytes is not bound anywhere")
    for fn_name in latency.__all__:
        original = getattr(latency, fn_name)
        if callable(original) and not isinstance(original, type):
            _rebind(original, rec.wrap(f"latency.{fn_name}", original), modules)
    return rec
