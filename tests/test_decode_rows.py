"""Batching decides nothing: row ``r`` of one ``program_for(B)`` decode
launch is, byte for byte, the ``program_for(1)`` launch of that row.

A served decode step is one ``m = batch`` launch over the slot rows,
and the per-request reference launches one ``m = 1`` kernel per row;
every served digest is checked against the reference, so this is the
property the serving loop rests on.  It is checked here directly, on
the interpreted (``batched``) and the compiled tier, with activations
that stress the f16 arithmetic: exponents spread over the whole f16
range, subnormals, and ±inf (whose products with the weights give ±inf
and NaN outputs that must match too).
"""

import numpy as np
import pytest

from repro import ops
from repro.dtypes import int6

BATCHES = (1, 2, 3, 5, 8, 16)


@pytest.fixture(scope="module")
def linear():
    """The serving decode linear's shape: k = 64, n = 16, i6, group 32."""
    weight = np.random.default_rng(0).standard_normal((64, 16))
    return ops.prepare_linear(weight, int6, group_size=32)


def hard_rows(rng, m: int, k: int) -> np.ndarray:
    """``m`` activation rows, each spanning 25 binades below its own top
    exponent (tops from 2^-10 to 2^11), with exact f16 subnormals and
    one ±inf in a third of the rows."""
    tops = rng.integers(-10, 12, size=(m, 1))
    exponents = tops - rng.integers(0, 25, size=(m, k))
    rows = rng.choice([-1.0, 1.0], size=(m, k)) * np.ldexp(
        1.0 + rng.random((m, k)), exponents
    )
    subnormal = rng.random((m, k)) < 0.15
    rows[subnormal] = np.ldexp(rng.integers(1, 1024, size=subnormal.sum()), -24)
    for r in range(0, m, 3):
        rows[r, rng.integers(k)] = np.inf if r % 2 == 0 else -np.inf
    return rows


def device_bytes(linear, rows: np.ndarray, engine: str) -> bytes:
    """The raw output bytes of one ``program_for(len(rows))`` launch."""
    runtime = linear.runtime
    m = rows.shape[0]
    a = runtime.upload(linear.act_dtype.quantize(rows), linear.act_dtype)
    c = runtime.empty([m, linear.n], linear.act_dtype)
    runtime.launch(
        linear.program_for(m), [a, linear.b_addr, linear.s_addr, c], engine=engine
    )
    nbytes = m * linear.n * linear.act_dtype.nbits // 8
    return runtime.memory.buffer[c : c + nbytes].tobytes()


# inf inputs and near-max exponents make NaN and overflowing products on
# purpose.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("engine", ["batched", "compiled"])
def test_rows_of_one_launch_are_the_per_row_launches(linear, engine):
    rng = np.random.default_rng(7)
    row_bytes = linear.n * linear.act_dtype.nbits // 8
    for batch in BATCHES * 3:
        rows = hard_rows(rng, batch, linear.k)
        stacked = device_bytes(linear, rows, engine)
        for r in range(batch):
            single = device_bytes(linear, rows[r : r + 1], engine)
            assert stacked[r * row_bytes : (r + 1) * row_bytes] == single, (
                f"row {r} of the m={batch} launch differs on {engine}"
            )
    # The inputs reach the cases they are there for.
    out = np.frombuffer(device_bytes(linear, hard_rows(rng, 16, linear.k), engine), "<f2")
    assert np.isnan(out).any() or np.isinf(out).any()
