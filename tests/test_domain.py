"""Value types: parameter validation, config round-trips, digests, blocks."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedbft.domain import (ALL_FIELDS, Block, COMPONENT_FIELDS,
                           DEFAULT_PARAMS, LatencyBreakdown, LocalUpdateTx,
                           SystemParams, parse_params_text, tx_digest,
                           tx_payload_bytes)

CONFIG_KEYS = tuple("lambda" if f.name == "lam" else f.name
                    for f in dataclasses.fields(SystemParams))


def params_to_text(p: SystemParams) -> str:
    """The flat key=value form that parse_params_text reads."""
    return "".join(f"{key}={getattr(p, f.name)!r}\n" for key, f in
                   zip(CONFIG_KEYS, dataclasses.fields(SystemParams)))


def make_tx(eid=0, w=(1.0, 2.0), g=(0.1, 0.2), n=10, at=1.5):
    return LocalUpdateTx(eid, np.array(w), np.array(g), n, at)


# --- SystemParams validation ---

def test_defaults_are_valid():
    p = SystemParams()
    assert p.lam == 100.0 and p.mu == 300.0
    assert p.n_peers == 3 * p.f + 1


@pytest.mark.parametrize("kwargs,msg", [
    (dict(lam=0.0), "lambda must be positive"),
    (dict(mu=-1.0), "mu must be positive"),
    (dict(lam=300.0), "lambda must be < mu"),
    (dict(f=-1), "f must be >= 0"),
    (dict(n_peers=5), "n_peers must equal 3f+1"),
    (dict(n_block=0), "n_block must be >= 1"),
    (dict(tau=0.0), "tau must be positive"),
    (dict(delta_m=0.0), "delta_m must be positive"),
    (dict(w_dn=-2.0), "w_dn must be positive"),
    (dict(beta=-0.1), "beta must be >= 0"),
    (dict(epsilon=0.0), "epsilon must be positive"),
    (dict(e0=1.5), "e0 must be within [0, 1]"),
    (dict(t_max=0), "t_max must be >= 1"),
    (dict(mu=math.inf), "mu must be finite"),
    (dict(lam=math.nan), "lambda must be finite"),
    (dict(w_up=math.inf), "w_up must be finite"),
    (dict(beta=math.inf), "beta must be finite"),
    (dict(tau=math.nan), "tau must be positive"),
    (dict(epsilon=math.nan), "epsilon must be positive"),
    (dict(n_block=10**12), "n_block must be <= 1000000"),
    (dict(f=10**12, n_peers=3 * 10**12 + 1), "f must be <= 100000"),
    (dict(t_max=10**6 + 1), "t_max must be <= 1000000"),
])
def test_invalid_params_rejected(kwargs, msg):
    with pytest.raises(ValueError, match=msg.replace("[", r"\[").replace("+", r"\+")):
        SystemParams(**kwargs)


def test_f_zero_single_peer_is_valid():
    p = SystemParams(f=0, n_peers=1)
    assert p.n_peers == 1


# --- config text round-trip ---

def test_config_roundtrip_defaults():
    assert parse_params_text(params_to_text(DEFAULT_PARAMS)) == DEFAULT_PARAMS


def test_config_partial_keeps_defaults():
    p = parse_params_text("lambda=50\n# comment\n\nf=2\nn_peers=7\n")
    assert p.lam == 50.0 and p.f == 2 and p.n_peers == 7
    assert p.mu == DEFAULT_PARAMS.mu


def test_config_lambda_key_maps_to_lam():
    text = params_to_text(DEFAULT_PARAMS)
    assert "lambda=" in text and "lam=" not in text.replace("lambda=", "")
    assert "lambda" in CONFIG_KEYS and "lam" not in CONFIG_KEYS


@pytest.mark.parametrize("text,msg", [
    ("nonsense\n", "expected key=value on line 1"),
    ("lambda=50\nbogus_key=1\n", "unknown key 'bogus_key' on line 2"),
    ("mu=300\nmu=400\n", "duplicate key 'mu' on line 2"),
    ("tau=abc\n", "invalid value 'abc' for key 'tau' on line 1"),
])
def test_config_parse_errors_name_the_line(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_params_text(text)


@given(
    lam=st.floats(1.0, 299.0),
    f=st.integers(0, 5),
    n_block=st.integers(1, 1000),
    beta=st.floats(0.0, 10.0),
)
def test_config_roundtrip_property(lam, f, n_block, beta):
    p = SystemParams(lam=lam, f=f, n_peers=3 * f + 1, n_block=n_block, beta=beta)
    assert parse_params_text(params_to_text(p)) == p


# --- transaction digests ---

def test_payload_layout_is_stable():
    # 5 little-endian header words then the two float64 arrays
    payload = tx_payload_bytes(make_tx(eid=3, w=(1.0,), g=(2.0,), n=7, at=0.25))
    assert len(payload) == 40 + 8 + 8
    assert payload[:8] == (3).to_bytes(8, "little")
    assert payload[40:48] == np.float64(1.0).tobytes()


def test_tx_built_without_digest_signs_its_payload():
    tx = make_tx()
    assert tx.digest_ok()
    assert tx.digest == tx_digest(tx)


@pytest.mark.parametrize("field,value", [
    ("enterprise_id", 1),
    ("n_samples", 11),
    ("created_at", 1.5000001),
])
def test_digest_detects_scalar_tampering(field, value):
    tx = make_tx()
    tampered = dataclasses.replace(tx, **{field: value})
    assert not tampered.digest_ok()


def test_digest_detects_weight_tampering():
    tx = make_tx()
    w = tx.weights.copy()
    w[0] += 1e-9
    assert not dataclasses.replace(tx, weights=w).digest_ok()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_digest_distinguishes_weights_from_gradient(values):
    w = np.array(values)
    fwd = tx_digest(LocalUpdateTx(0, w, np.zeros_like(w), 1, 0.0))
    rev = tx_digest(LocalUpdateTx(0, np.zeros_like(w), w, 1, 0.0))
    if np.any(w != 0.0):
        assert fwd != rev


def test_tx_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="equal dimension"):
        make_tx(w=(1.0, 2.0), g=(0.1,))


# --- blocks ---

def test_seal_enforces_capacity():
    txs = [make_tx(eid=i, at=float(i)) for i in range(3)]
    with pytest.raises(ValueError, match="exceeds n_block capacity"):
        Block.seal(txs, n_block=2)


def test_block_requires_time_order():
    txs = [make_tx(eid=0, at=2.0), make_tx(eid=1, at=1.0)]
    with pytest.raises(ValueError, match="ordered by created_at"):
        Block.seal(txs, n_block=2)


def test_empty_block_rejected():
    with pytest.raises(ValueError, match="at least one tx"):
        Block.seal([], n_block=2)


# --- latency breakdown ---

def test_breakdown_sums_are_derived():
    bd = LatencyBreakdown(t_local=1.0, t_up=2.0, t_preprepare=3.0,
                          t_prepare=4.0, t_commit=5.0, t_dn=6.0, t_global=7.0)
    assert bd.t_update == 8.0
    assert bd.t_commun == 8.0
    assert bd.t_consensus == 12.0
    assert bd.t_total == 28.0
    # every CSV column is readable off a breakdown
    assert all(isinstance(getattr(bd, name), float) for name in ALL_FIELDS)


@given(st.lists(st.floats(0.0, 1e3), min_size=7, max_size=7))
def test_breakdown_total_equals_component_sum(parts):
    bd = LatencyBreakdown(*parts)
    assert math.isclose(bd.t_total, sum(parts), rel_tol=1e-12, abs_tol=1e-12)
    assert bd.t_total == bd.t_update + bd.t_commun + bd.t_consensus


def test_breakdown_rejects_negative_component():
    with pytest.raises(ValueError, match="t_dn must be >= 0"):
        LatencyBreakdown(0, 0, 0, 0, 0, -1.0, 0)
    # a per-replication array is checked entry by entry
    with pytest.raises(ValueError, match="t_prepare must be >= 0"):
        LatencyBreakdown(0, 0, np.zeros(3), np.array([0.5, -1e-9, 2.0]),
                         0, 0, 0)
    # a NaN entry does not hide a negative one
    with pytest.raises(ValueError, match="t_commit must be >= 0"):
        LatencyBreakdown(0, 0, 0, 0, np.array([np.nan, -1.0]), 0, 0)


def test_breakdown_rejects_non_finite_values():
    with pytest.raises(ValueError, match="t_local must be finite"):
        LatencyBreakdown(math.inf, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="t_up must be finite"):
        LatencyBreakdown(0, math.nan, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="t_preprepare must be finite"):
        LatencyBreakdown(0, 0, np.array([1.0, np.nan]), 0, 0, 0, 0)
    # finite components whose sum overflows
    with pytest.raises(ValueError, match="t_total must be finite"):
        LatencyBreakdown(1e308, 0, 0, 0, 0, 0, 1e308)


def breakdown_error(values) -> str:
    with pytest.raises(ValueError) as caught:
        LatencyBreakdown(**values)
    return str(caught.value)


@pytest.mark.parametrize("name", COMPONENT_FIELDS)
@pytest.mark.parametrize("bad, message", [
    (-1.0, "must be >= 0"), (-math.inf, "must be >= 0"),
    (math.nan, "must be finite"), (math.inf, "must be finite")])
def test_a_breakdown_of_floats_gives_the_array_messages(name, bad, message):
    # seven Python floats are checked without numpy, with the messages a
    # breakdown of one-entry arrays gives
    values = dict.fromkeys(COMPONENT_FIELDS, 0.5)
    values[name] = bad
    assert breakdown_error(values) == f"{name} {message}"
    arrays = {key: np.array([value]) for key, value in values.items()}
    assert breakdown_error(arrays) == f"{name} {message}"


def test_breakdown_of_floats_checks_every_sign_before_finiteness():
    # a NaN does not hide a later negative component, and finite
    # components whose sum overflows name the total
    values = dict.fromkeys(COMPONENT_FIELDS, 0.5)
    values.update(t_local=math.nan, t_dn=-1.0)
    assert breakdown_error(values) == "t_dn must be >= 0"
    values = dict.fromkeys(COMPONENT_FIELDS, 1e308)
    assert breakdown_error(values) == "t_total must be finite"


def test_component_field_order_matches_pipeline():
    assert COMPONENT_FIELDS == ("t_local", "t_up", "t_preprepare",
                                "t_prepare", "t_commit", "t_dn", "t_global")
