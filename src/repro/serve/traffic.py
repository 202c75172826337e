"""Deterministic synthetic traffic for the serving engine.

Real gateways never see one-shot request lists: load arrives as a *process*
— popular prompts repeat (Zipf), requests cluster (Poisson gaps, bursts,
diurnal swell), and tenants with different models, priorities, and latency
budgets share the same queue.  This module generates such a workload as a
pure function of its config: the same :class:`TrafficConfig` always yields
the same timed trace, byte for byte, which is what lets the serving-engine
benches gate on speedups and the parity suite compare runs.

A trace is a list of :class:`TimedRequest` — an arrival tick on the
logical clock plus the :class:`~repro.serve.types.ServeRequest` to serve,
annotated with tenant, priority, and an optional per-request deadline
budget.  Feed it to :class:`~repro.serve.engine.ServingEngine`; at
``max_inflight=1`` the engine serves a one-model trace exactly as the
gateway's ``ask`` loop over its requests would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.serve.types import ServeRequest
from repro.utils.rng import derive_rng
from repro.utils.serialize import Record, register

__all__ = [
    "ARRIVAL_PROCESSES",
    "TenantProfile",
    "TimedRequest",
    "TrafficConfig",
    "TrafficGenerator",
]

#: Supported arrival processes.  ``uniform`` — evenly spaced gaps;
#: ``poisson`` — i.i.d. exponential gaps; ``bursty`` — a two-state
#: (burst/idle) modulated Poisson process; ``diurnal`` — Poisson gaps whose
#: rate swells and ebbs sinusoidally over ``period_ticks`` (a synthetic day).
ARRIVAL_PROCESSES = ("uniform", "poisson", "bursty", "diurnal")


@dataclass(frozen=True, slots=True)
class TimedRequest:
    """One arrival: when it lands, what to serve, and who sent it.

    ``deadline_ticks`` is the tenant's queueing budget: if the engine
    cannot *dispatch* the request within that many ticks of arrival it is
    shed (rejected or degraded, per the engine's shed policy).  ``None``
    defers to the engine default.  ``priority`` orders dispatch within a
    drained batch — higher first, arrival order breaking ties.
    """

    tick: int
    request: ServeRequest
    tenant: str = "default"
    priority: int = 0
    deadline_ticks: int | None = None

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")
        if self.deadline_ticks is not None and self.deadline_ticks < 1:
            raise ValueError(
                f"deadline_ticks must be >= 1 or None, got {self.deadline_ticks}"
            )


@dataclass(frozen=True)
class TenantProfile(Record):
    """One tenant's slice of the traffic mix.

    ``weight`` is its share of requests relative to the other tenants;
    ``models`` a ``(model_name, weight)`` mix drawn per request;
    ``augment_rate`` the fraction of its requests that ask for
    augmentation; ``priority``/``deadline_ticks`` stamp every request it
    sends (see :class:`TimedRequest`).
    """

    name: str
    weight: float = 1.0
    models: tuple[tuple[str, float], ...] = (("gpt-4-0613", 1.0),)
    augment_rate: float = 1.0
    priority: int = 0
    deadline_ticks: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ConfigError(f"tenant weight must be > 0, got {self.weight}")
        if not self.models:
            raise ConfigError(f"tenant {self.name!r} needs at least one model")
        if any(w <= 0 for _, w in self.models):
            raise ConfigError(f"tenant {self.name!r} model weights must be > 0")
        if not 0.0 <= self.augment_rate <= 1.0:
            raise ConfigError(
                f"augment_rate must be in [0, 1], got {self.augment_rate}"
            )
        if self.deadline_ticks is not None and self.deadline_ticks < 1:
            raise ConfigError(
                f"deadline_ticks must be >= 1 or None, got {self.deadline_ticks}"
            )


@dataclass(frozen=True)
class TrafficConfig(Record):
    """Everything that shapes a synthetic trace (all of it seed-pure).

    ``mean_gap_ticks`` sets the average inter-arrival gap; the arrival
    ``process`` shapes how gaps cluster around it.  ``zipf_exponent``
    skews prompt popularity over the pool (1.0–1.3 is web-like; higher
    concentrates traffic on fewer prompts, which is what makes the
    complement cache earn its keep).  The bursty process alternates
    bursts of ~``burst_len`` requests at ``burst_factor``× the base rate
    with idle stretches of ~``idle_len`` requests at the base rate; the
    diurnal process modulates the Poisson rate by ``1 + amplitude·sin``
    over ``period_ticks``.
    """

    n_requests: int = 1024
    seed: int = 0
    process: str = "poisson"
    mean_gap_ticks: float = 1.0
    zipf_exponent: float = 1.1
    burst_factor: float = 8.0
    burst_len: int = 64
    idle_len: int = 16
    period_ticks: int = 4096
    amplitude: float = 0.8
    tenants: tuple[TenantProfile, ...] = (TenantProfile("default"),)

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"unknown arrival process {self.process!r}; "
                f"expected one of {ARRIVAL_PROCESSES}"
            )
        if self.mean_gap_ticks <= 0:
            raise ConfigError(
                f"mean_gap_ticks must be > 0, got {self.mean_gap_ticks}"
            )
        if self.zipf_exponent <= 0:
            raise ConfigError(
                f"zipf_exponent must be > 0, got {self.zipf_exponent}"
            )
        if self.burst_factor < 1.0:
            raise ConfigError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if self.burst_len < 1 or self.idle_len < 1:
            raise ConfigError("burst_len and idle_len must be >= 1")
        if self.period_ticks < 2:
            raise ConfigError(f"period_ticks must be >= 2, got {self.period_ticks}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if not self.tenants:
            raise ConfigError("at least one tenant profile is required")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {sorted(names)}")


for _serializable in (TenantProfile, TrafficConfig):
    register(_serializable)
del _serializable


class TrafficGenerator:
    """Turn a prompt pool and a :class:`TrafficConfig` into a timed trace.

    All randomness flows from one named stream under ``config.seed``
    (prompt popularity ranking, arrival gaps, tenant/model mixes), so
    :meth:`trace` is referentially transparent — call it twice, get the
    same objects' worth of data twice.

    >>> from repro.serve.traffic import TrafficConfig, TrafficGenerator
    >>> gen = TrafficGenerator(["alpha prompt", "beta prompt"], TrafficConfig(n_requests=4))
    >>> [t.tick for t in gen.trace()] == [t.tick for t in gen.trace()]
    True
    """

    def __init__(self, prompts: Sequence[str], config: TrafficConfig | None = None):
        self.prompts = list(prompts)
        if not self.prompts:
            raise ConfigError("prompt pool must be non-empty")
        self.config = config or TrafficConfig()

    # -- arrival gaps --------------------------------------------------- #

    def _gaps(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        n, mean = cfg.n_requests, cfg.mean_gap_ticks
        if cfg.process == "uniform":
            return np.full(n, mean)
        if cfg.process == "poisson":
            return rng.exponential(mean, n)
        if cfg.process == "diurnal":
            # Rate-modulated Poisson on nominal time: request i sits near
            # t ≈ mean·i, where the day's phase scales its expected gap.
            phase = 2.0 * np.pi * (mean * np.arange(n)) / cfg.period_ticks
            rate = 1.0 + cfg.amplitude * np.sin(phase)
            return rng.exponential(mean, n) / rate
        # bursty: alternate burst segments (burst_factor× the rate) with
        # idle segments at the base rate; segment lengths are geometric.
        chunks: list[np.ndarray] = []
        total = 0
        in_burst = True
        while total < n:
            mean_len = cfg.burst_len if in_burst else cfg.idle_len
            length = int(rng.geometric(1.0 / mean_len))
            length = min(length, n - total)
            seg_mean = mean / cfg.burst_factor if in_burst else mean
            chunks.append(rng.exponential(seg_mean, length))
            total += length
            in_burst = not in_burst
        return np.concatenate(chunks)

    # -- the trace ------------------------------------------------------ #

    def trace(self) -> list[TimedRequest]:
        """The full timed trace, in non-decreasing tick order."""
        cfg = self.config
        n = cfg.n_requests
        rng = derive_rng(cfg.seed, "serve.traffic")

        # Popularity: a seed-specific ranking of the pool under a Zipf law.
        ranking = rng.permutation(len(self.prompts))
        weights = 1.0 / np.power(
            np.arange(1, len(self.prompts) + 1, dtype=np.float64), cfg.zipf_exponent
        )
        prompt_cdf = np.cumsum(weights / weights.sum())
        prompt_idx = ranking[
            np.searchsorted(prompt_cdf, rng.random(n), side="right").clip(
                0, len(self.prompts) - 1
            )
        ]

        # Arrivals: cumulative gaps, floored onto the integer clock.
        ticks = np.floor(np.cumsum(self._gaps(rng))).astype(np.int64) + 1

        # Tenant mix, then each tenant's model mix.
        tenant_weights = np.array([t.weight for t in cfg.tenants], dtype=np.float64)
        tenant_cdf = np.cumsum(tenant_weights / tenant_weights.sum())
        tenant_idx = np.searchsorted(tenant_cdf, rng.random(n), side="right").clip(
            0, len(cfg.tenants) - 1
        )
        model_draw = rng.random(n)
        augment_draw = rng.random(n)

        model_cdfs: list[tuple[list[str], np.ndarray]] = []
        for tenant in cfg.tenants:
            names = [name for name, _ in tenant.models]
            mw = np.array([w for _, w in tenant.models], dtype=np.float64)
            model_cdfs.append((names, np.cumsum(mw / mw.sum())))

        pool = self.prompts
        out: list[TimedRequest] = []
        for i in range(n):
            tenant = cfg.tenants[tenant_idx[i]]
            names, cdf = model_cdfs[tenant_idx[i]]
            model = names[min(int(np.searchsorted(cdf, model_draw[i], side="right")), len(names) - 1)]
            out.append(
                TimedRequest(
                    tick=int(ticks[i]),
                    request=ServeRequest(
                        prompt=pool[prompt_idx[i]],
                        model=model,
                        augment=bool(augment_draw[i] < tenant.augment_rate),
                        request_id=f"{tenant.name}-{i:07d}",
                        tenant=tenant.name,
                    ),
                    tenant=tenant.name,
                    priority=tenant.priority,
                    deadline_ticks=tenant.deadline_ticks,
                )
            )
        return out
