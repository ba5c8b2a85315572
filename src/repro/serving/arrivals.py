"""Open-loop arrival traces for serving benchmarks.

Closed-loop load (issue, wait, issue) hides queueing: the generator
slows down whenever the system does, so tail latency looks flat no
matter how overloaded the server is.  The serving bench therefore
drives the router **open-loop**: arrival times are drawn up front from
a stochastic process and requests land on the router at those times
regardless of how far behind it is — the regime where p99 latency
actually measures scheduling quality.

:func:`poisson_trace` draws exponential inter-arrivals at a target rate,
the standard memoryless open-loop model, seeded and fully deterministic.

Each request gets a sequential ``rid`` (which also seeds its decode
activations — see :class:`~repro.llm.batching.Request`), a priority
drawn round-robin from ``priorities``, and the trace-wide ``slo_s``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.llm.batching import Request


def _build(
    arrivals,
    prompt_tokens: int,
    output_tokens: int,
    priorities: Sequence[int],
    slo_s: float,
    rid_base: int,
) -> list[Request]:
    levels = tuple(priorities) or (0,)
    return [
        Request(
            arrival_s=float(t),
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            rid=rid_base + i,
            priority=levels[i % len(levels)],
            slo_s=slo_s,
        )
        for i, t in enumerate(arrivals)
    ]


def poisson_trace(
    num_requests: int,
    rate_rps: float,
    prompt_tokens: int = 512,
    output_tokens: int = 64,
    seed: int = 0,
    priorities: Sequence[int] = (0,),
    slo_s: float = math.inf,
    rid_base: int = 0,
) -> list[Request]:
    """Open-loop Poisson arrivals at ``rate_rps`` requests/second."""
    if num_requests <= 0:
        return []
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate_rps, size=num_requests)
    arrivals = np.cumsum(gaps) - gaps[0]  # first request lands at t=0
    return _build(arrivals, prompt_tokens, output_tokens, priorities, slo_s, rid_base)
