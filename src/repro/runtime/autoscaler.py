"""Utility-driven elastic worker autoscaling.

The paper's economic argument (§4.5.2) prices speculation in cores: a
speculative worker earns its keep only while the expected utility of
the allocator chain — jump length x probability of use — covers the
cost of running it. The CLI's ``--workers N`` freezes that trade for a
whole run, which is exactly wrong at the two ends of the cache
lifecycle: a cold run pays N cores of overhead for speculations that
rarely land (the ``cold-*`` workloads of ``BENCHMARK.json`` *lose*
wall-clock to sequential), and a warm phase-changing run wants
capacity back the moment the recognized RIP regains utility.

An :class:`Autoscaler` closes the loop online. The engine samples it at
every superstep boundary with :class:`AutoscaleSignals` — counters the
run already computes: allocator expected utility, cache hit rate,
waste (shipped-but-unused entries), dispatch backpressure, queue
occupancy. The policy answers with a target worker count; the engine
applies it through :meth:`WorkerPool.resize`, which grows fresh slots
(bootstrapped via the delta protocol's full-state fallback) or parks
live ones (through the supervisor's retirement teardown, so a parked
worker leaks neither a process nor a ``/dev/shm`` segment).

Three policy families, selectable via ``--autoscale``:

* ``react`` — thresholds on windowed payoff and hit rate: shrink while
  speculation is underwater, grow one step while it pays and dispatch
  is backpressured. Cheap, stateless beyond one window.
* ``hist`` — a sliding histogram of windowed payoff; the target scales
  with the fraction of recent boundaries whose payoff beat the
  overhead floor, so one good (or bad) boundary cannot whipsaw the
  pool.
* ``reg`` — least-squares trend fit on recent payoff; the target maps
  the *extrapolated* payoff, so a warming cache grows capacity before
  the histogram would and a dying phase sheds it before react's
  thresholds trip.

``--autoscale off`` constructs no autoscaler at all
(:func:`resolve_autoscaler` returns ``None``) — the engine's boundary
loop is byte-identical to the fixed-width runtime.
"""

import numpy as np

#: Policy registry names (the ``--autoscale`` choices, minus ``off``).
POLICIES = ("react", "hist", "reg")


class AutoscaleSignals:
    """One boundary's worth of scaling evidence (cumulative counters;
    policies difference consecutive samples themselves)."""

    __slots__ = ("superstep", "active_workers", "parked_workers",
                 "queue_depth", "inflight", "expected_utility", "stride",
                 "hits", "queries", "executed", "fast_forwarded",
                 "shipped", "used", "backpressure")

    def __init__(self, superstep, active_workers, parked_workers,
                 queue_depth, inflight, expected_utility, stride, hits,
                 queries, executed, fast_forwarded, shipped, used,
                 backpressure):
        self.superstep = superstep
        self.active_workers = active_workers
        self.parked_workers = parked_workers
        self.queue_depth = queue_depth  # per-worker submit capacity
        self.inflight = inflight  # tasks currently on workers
        self.expected_utility = expected_utility  # sum(p_i) * mean_jump
        self.stride = stride  # instructions per superstep
        self.hits = hits
        self.queries = queries
        self.executed = executed
        self.fast_forwarded = fast_forwarded
        self.shipped = shipped  # entries workers delivered
        self.used = used  # shipped entries that fast-forwarded main
        self.backpressure = backpressure  # dispatches refused, cumulative

    def __repr__(self):
        return ("AutoscaleSignals(superstep=%d, active=%d, utility=%.1f, "
                "hits=%d/%d, ff=%d, exec=%d)"
                % (self.superstep, self.active_workers,
                   self.expected_utility, self.hits, self.queries,
                   self.fast_forwarded, self.executed))


class _Window:
    """Differences consecutive signal samples into per-boundary rates."""

    __slots__ = ("prev", "payoffs", "hit_rates", "backpressure", "size")

    def __init__(self, size):
        self.prev = None
        self.payoffs = []  # ff / (ff + exec) per inter-sample gap
        self.hit_rates = []
        self.backpressure = []  # refused dispatches per gap
        self.size = size

    def push(self, sig):
        prev, self.prev = self.prev, sig
        if prev is None:
            return
        d_ff = sig.fast_forwarded - prev.fast_forwarded
        d_exec = sig.executed - prev.executed
        d_hits = sig.hits - prev.hits
        d_queries = sig.queries - prev.queries
        if d_ff + d_exec > 0:
            self.payoffs.append(d_ff / float(d_ff + d_exec))
        if d_queries > 0:
            self.hit_rates.append(d_hits / float(d_queries))
        self.backpressure.append(sig.backpressure - prev.backpressure)
        del self.payoffs[:-self.size]
        del self.hit_rates[:-self.size]
        del self.backpressure[:-self.size]


class Autoscaler:
    """Base policy: sampling cadence, clamping, decision records.

    ``min_workers`` may be 0 — "stop speculating entirely" is the
    paper-faithful answer when utility is underwater; the engine keeps
    making sequential progress and the pool regrows on demand.
    Decisions are rate-limited to one per ``cooldown`` boundaries so a
    resize settles (new workers warm up, parked slots drain) before it
    is judged.
    """

    name = "base"

    def __init__(self, min_workers=0, max_workers=8, cooldown=8,
                 window=16):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not 0 <= min_workers <= max_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.cooldown = max(1, cooldown)
        self.window = _Window(window)
        self.decisions = []  # dicts, mirrored into RuntimeStats
        self._last_decision_step = None

    def observe(self, sig):
        """Ingest one boundary sample; returns a target worker count
        when the policy wants a resize, else ``None``."""
        self.window.push(sig)
        last = self._last_decision_step
        if last is not None and sig.superstep - last < self.cooldown:
            return None
        target = self._decide(sig)
        if target is None:
            return None
        self._last_decision_step = sig.superstep
        target = max(self.min_workers, min(self.max_workers, int(target)))
        if target == sig.active_workers:
            return None
        self.decisions.append({
            "superstep": sig.superstep, "policy": self.name,
            "from": sig.active_workers, "target": target,
            "payoff": round(self._payoff(), 4),
            "utility": round(sig.expected_utility, 2),
        })
        return target

    def _payoff(self):
        payoffs = self.window.payoffs
        return payoffs[-1] if payoffs else 0.0

    def _decide(self, sig):
        raise NotImplementedError

    def __repr__(self):
        return ("%s(min=%d, max=%d, cooldown=%d, decisions=%d)"
                % (type(self).__name__, self.min_workers,
                   self.max_workers, self.cooldown, len(self.decisions)))


class ReactiveAutoscaler(Autoscaler):
    """Threshold reactions on the latest window.

    Shrink one step while speculation is underwater: payoff below
    ``low_payoff``, with the allocator's expected utility (under one
    superstep's worth of instructions means nothing worth dispatching)
    able to veto the shrink only until the window holds three real
    payoff samples — measurement outranks forecast. Grow one step
    while payoff clears ``high_payoff`` and dispatch saw backpressure
    in the window (idle demand exists). Otherwise hold.
    """

    name = "react"

    def __init__(self, low_payoff=0.15, high_payoff=0.5, **kwargs):
        super(ReactiveAutoscaler, self).__init__(**kwargs)
        self.low_payoff = low_payoff
        self.high_payoff = high_payoff

    def _decide(self, sig):
        if not self.window.payoffs:
            # No evidence either way yet: a cold run bleeds boundary
            # overhead until proven otherwise, so lean down one step.
            if sig.expected_utility < sig.stride:
                return sig.active_workers - 1
            return None
        payoff = self._payoff()
        pressured = any(b > 0 for b in self.window.backpressure)
        if payoff <= self.low_payoff:
            # Expected utility is the allocator's *forecast*; realized
            # payoff is ground truth. The forecast gets the benefit of
            # the doubt only until the window holds real evidence —
            # otherwise a confident predictor whose entries never land
            # (cold cache, dead phase) pins the pool wide forever.
            if (len(self.window.payoffs) >= 3
                    or sig.expected_utility < sig.stride):
                return sig.active_workers - 1
            return None
        if payoff >= self.high_payoff and pressured:
            return sig.active_workers + 1
        return None


class HistogramAutoscaler(Autoscaler):
    """Occupancy of the windowed payoff distribution above a floor.

    The fraction of recent boundaries whose payoff beat
    ``payoff_floor`` maps linearly onto ``[min_workers, max_workers]``.
    A payoff distribution piled at zero (cold cache, dead phase)
    collapses the pool; one piled near 1.0 saturates it; a mixed
    distribution holds a proportional middle — the whole window votes,
    so outlier boundaries are outvoted rather than obeyed.
    """

    name = "hist"

    def __init__(self, payoff_floor=0.25, **kwargs):
        super(HistogramAutoscaler, self).__init__(**kwargs)
        self.payoff_floor = payoff_floor

    def _decide(self, sig):
        payoffs = self.window.payoffs
        if len(payoffs) < 3:
            return None
        above = sum(1 for p in payoffs if p >= self.payoff_floor)
        fraction = above / float(len(payoffs))
        span = self.max_workers - self.min_workers
        return self.min_workers + int(round(fraction * span))


class RegressionAutoscaler(Autoscaler):
    """Trend-fit on recent payoff, provisioning for where it is going.

    A degree-1 least-squares fit over the window extrapolates payoff
    ``cooldown`` boundaries ahead; the forecast maps linearly onto
    ``[min_workers, max_workers]``. A warming cache (positive slope)
    earns capacity before its current payoff alone would justify it; a
    phase falling off a cliff sheds workers while the histogram is
    still averaging over the good times.
    """

    name = "reg"

    def __init__(self, **kwargs):
        super(RegressionAutoscaler, self).__init__(**kwargs)

    def _decide(self, sig):
        payoffs = self.window.payoffs
        if len(payoffs) < 4:
            return None
        ys = np.asarray(payoffs, dtype=np.float64)
        xs = np.arange(len(ys), dtype=np.float64)
        slope, intercept = np.polyfit(xs, ys, 1)
        forecast = intercept + slope * (len(ys) - 1 + self.cooldown)
        forecast = min(1.0, max(0.0, forecast))
        span = self.max_workers - self.min_workers
        return self.min_workers + int(round(forecast * span))


_POLICY_CLASSES = {
    "react": ReactiveAutoscaler,
    "hist": HistogramAutoscaler,
    "reg": RegressionAutoscaler,
}


def make_autoscaler(policy, **kwargs):
    """Construct a policy by registry name (``react``/``hist``/``reg``)."""
    try:
        cls = _POLICY_CLASSES[policy]
    except KeyError:
        raise ValueError("unknown autoscale policy %r (want one of %s)"
                         % (policy, "/".join(POLICIES)))
    return cls(**kwargs)


def resolve_autoscaler(runtime_config):
    """The run's autoscaler per its :class:`RuntimeConfig` — ``None``
    when the policy is ``off`` (the engine then never samples, keeping
    the fixed-width path byte-identical)."""
    policy = runtime_config.autoscale
    if policy in (None, "off"):
        return None
    return make_autoscaler(
        policy,
        min_workers=runtime_config.autoscale_min_workers,
        max_workers=(runtime_config.autoscale_max_workers
                     or runtime_config.n_workers),
        cooldown=runtime_config.autoscale_cooldown,
        window=runtime_config.autoscale_window)
