"""Cost-based admission control for the open-loop serving path.

The policy decision — admit a request at full fidelity, degrade it to
the base mesh, or shed it — lives behind this module:
:class:`CostGovernor` meters the estimated cost of what is executing
against an in-flight budget, and one :class:`TokenBucket` per tenant
keeps a hot tenant from starving the rest.  The governor is pure
policy: the caller prices each request
(:meth:`repro.core.engine.QueryEngine.submit` charges the store's
serving estimator, predicted cluster-run pages), asks for a verdict
before anything is queued and carries it out; nothing here touches the
store, a cost model or the executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import QueryError
from repro.obs.lockwatch import watched_lock

__all__ = [
    "ADMIT",
    "DEGRADE",
    "SHED",
    "AdmissionDecision",
    "CostGovernor",
    "TokenBucket",
]

#: Admission actions (see :class:`CostGovernor.decide`).
ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"


class TokenBucket:
    """A thread-safe token bucket metered in *cost units*.

    The :class:`CostGovernor` keeps one per tenant, refilled at
    ``rate`` units per second up to ``burst``; a request is charged
    its estimated disk accesses, so a tenant issuing few expensive
    queries and one issuing many cheap queries drain their buckets at
    the same (cost-weighted) pace — fair queueing in the currency the
    disks actually spend.

    ``clock`` is injectable so admission decisions are unit-testable
    with a deterministic clock (no sleeps, no wall-time flake).
    """

    __slots__ = ("_burst", "_clock", "_last", "_lock", "_rate", "_tokens")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise QueryError(f"token rate must be > 0, got {rate}")
        if burst <= 0:
            raise QueryError(f"token burst must be > 0, got {burst}")
        self._lock = watched_lock("TokenBucket._lock")
        self._rate = rate
        self._burst = burst
        self._clock = clock
        self._tokens = burst
        self._last = clock()

    def _refill_locked(self) -> None:
        """Advance the bucket to the current clock reading."""
        now = self._clock()
        elapsed = now - self._last
        self._last = now
        if elapsed > 0:
            self._tokens = min(self._burst, self._tokens + elapsed * self._rate)

    def try_take(self, amount: float) -> bool:
        """Atomically consume ``amount`` tokens; False when short.

        A failed take consumes nothing (no partial debits), so a
        request denied here can still be served by the degraded path
        without distorting the tenant's balance.
        """
        with self._lock:
            self._refill_locked()
            if amount <= self._tokens + 1e-9:
                self._tokens -= amount
                return True
            return False

    @property
    def tokens(self) -> float:
        """Current balance (after refilling to the clock)."""
        with self._lock:
            self._refill_locked()
            return self._tokens


@dataclass(frozen=True)
class AdmissionDecision:
    """One request's verdict from the :class:`CostGovernor`.

    ``reserved_cost`` is what was debited from the in-flight budget
    (the full estimate for :data:`ADMIT`, the degraded-probe cost for
    :data:`DEGRADE`, zero for :data:`SHED`) and must be released when
    the request completes.  ``throttled`` records that the tenant's
    token bucket denied full fidelity, whatever the final action.
    """

    action: str
    estimated_cost: float
    reserved_cost: float
    throttled: bool = False


class CostGovernor:
    """Cost-based admission control for the open-loop serving path.

    The caller estimates each request's I/O cost before executing it
    (the paper's Section 5.3 idea of pricing a range query ahead of
    time, applied to the pages serving reads); the sum of estimates of
    everything currently executing is a predicted I/O backlog, and
    holding that sum under a budget bounds queueing ahead of time
    instead of discovering collapse in p999.

    Decision ladder for a request of estimated cost ``c``:

    1. **admit** — tenant bucket grants ``min(c, burst)`` and
       ``inflight + c <= budget``: reserve ``c``, run at full
       fidelity.
    2. **degrade** — otherwise, while ``inflight + degraded_cost <=
       budget * degrade_headroom`` (and the request is degradable):
       reserve only ``degraded_cost`` and serve the base mesh — the
       paper's ``e' > e`` guarantee makes that a *valid* cheaper
       answer, so overload sheds fidelity before it sheds requests.
    3. **shed** — beyond headroom: reserve nothing; the engine
       answers from its base-mesh snapshot with zero queueing.

    Because every executing request reserves at least
    ``min(1, degraded_cost)`` units, the number in flight — hence the
    executor queue — is bounded by ``budget * degrade_headroom``
    regardless of the offered rate.

    Args:
        budget: in-flight estimated-cost budget for full-fidelity
            admissions, in the unit the caller prices requests in.
        degraded_cost: reserved cost of one base-mesh probe (a
            handful of root records; default 1 page).
        degrade_headroom: multiple of ``budget`` the degraded tier
            may fill before requests are shed outright.
        tenant_rate: per-tenant token refill in cost units/second
            (``None`` disables per-tenant fairness).
        tenant_burst: per-tenant bucket capacity (defaults to
            ``budget`` when ``tenant_rate`` is set).
        clock: time source for the buckets (injectable for tests).
    """

    def __init__(
        self,
        budget: float,
        degraded_cost: float = 1.0,
        degrade_headroom: float = 2.0,
        tenant_rate: float | None = None,
        tenant_burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget <= 0:
            raise QueryError(f"budget must be > 0, got {budget}")
        if degraded_cost <= 0:
            raise QueryError(
                f"degraded_cost must be > 0, got {degraded_cost}"
            )
        if degrade_headroom < 1.0:
            raise QueryError(
                f"degrade_headroom must be >= 1, got {degrade_headroom}"
            )
        if tenant_rate is not None and tenant_rate <= 0:
            raise QueryError(
                f"tenant_rate must be > 0 or None, got {tenant_rate}"
            )
        self._budget = budget
        self._degraded_cost = degraded_cost
        self._degrade_headroom = degrade_headroom
        self._tenant_rate = tenant_rate
        self._tenant_burst = (
            budget if tenant_burst is None else tenant_burst
        )
        self._clock = clock
        self._lock = watched_lock("CostGovernor._lock")
        self._inflight = 0.0
        self._buckets: dict[str, TokenBucket] = {}

    @property
    def inflight_cost(self) -> float:
        """Sum of reserved cost currently executing."""
        with self._lock:
            return self._inflight

    def _tenant_bucket(self, tenant: str) -> TokenBucket | None:
        if self._tenant_rate is None:
            return None
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    self._tenant_rate, self._tenant_burst, clock=self._clock
                )
                self._buckets[tenant] = bucket
            return bucket

    def decide(
        self, tenant: str, cost: float, degradable: bool = True
    ) -> AdmissionDecision:
        """Admit, degrade, or shed a request of estimated ``cost``.

        The charge against the tenant bucket is capped at the burst
        size so a single query costlier than the whole bucket can
        still (eventually) be admitted rather than starving forever.
        """
        bucket = self._tenant_bucket(tenant)
        throttled = bucket is not None and not bucket.try_take(
            min(cost, self._tenant_burst)
        )
        with self._lock:
            if not throttled and self._inflight + cost <= self._budget:
                self._inflight += cost
                return AdmissionDecision(ADMIT, cost, cost)
            ceiling = self._budget * self._degrade_headroom
            if degradable and self._inflight + self._degraded_cost <= ceiling:
                self._inflight += self._degraded_cost
                return AdmissionDecision(
                    DEGRADE, cost, self._degraded_cost, throttled=throttled
                )
            return AdmissionDecision(SHED, cost, 0.0, throttled=throttled)

    def release(self, reserved: float) -> None:
        """Return a completed request's reservation to the budget."""
        if reserved <= 0:
            return
        with self._lock:
            self._inflight = max(0.0, self._inflight - reserved)
