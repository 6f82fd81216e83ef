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
run already computes: allocator expected utility, realized payoff
(fast-forwarded vs executed instructions), dispatch backpressure. The
policy answers with a target worker count; the engine applies it
through :meth:`WorkerPool.resize`, which grows fresh slots
(bootstrapped via the delta protocol's full-state fallback) or parks
live ones (through the supervisor's retirement teardown, so a parked
worker leaks neither a process nor a ``/dev/shm`` segment).

There is one policy, ``react`` (DESIGN.md §14 records the two it
outlived). ``--autoscale off`` constructs no autoscaler at all
(:func:`resolve_autoscaler` returns ``None``) — the engine's boundary
loop is byte-identical to the fixed-width runtime.
"""

import collections

#: The ``autoscale`` values ``RuntimeConfig``, ``ServeConfig`` and the
#: ``--autoscale`` flag accept.
AUTOSCALE_CHOICES = ("off", "react")

#: Payoff at or below which the pool shrinks, and at or above which a
#: backpressured pool grows.
_LOW_PAYOFF, _HIGH_PAYOFF = 0.15, 0.5


#: One boundary's worth of scaling evidence. ``executed``,
#: ``fast_forwarded`` (instructions) and ``backpressure`` (dispatches
#: refused) are cumulative — the policy differences consecutive samples
#: itself; ``expected_utility`` is ``sum(p_i) * mean_jump`` and
#: ``stride`` the instructions per superstep.
AutoscaleSignals = collections.namedtuple("AutoscaleSignals", (
    "superstep", "active_workers", "expected_utility", "stride",
    "executed", "fast_forwarded", "backpressure"))


class _Window:
    """Differences consecutive signal samples into per-boundary rates."""

    __slots__ = ("prev", "payoffs", "backpressure", "size")

    def __init__(self, size):
        self.prev = None
        self.payoffs = []  # ff / (ff + exec) per inter-sample gap
        self.backpressure = []  # refused dispatches per gap
        self.size = size

    def push(self, sig):
        prev, self.prev = self.prev, sig
        if prev is None:
            return
        d_ff = sig.fast_forwarded - prev.fast_forwarded
        d_exec = sig.executed - prev.executed
        if d_ff + d_exec > 0:
            self.payoffs.append(d_ff / float(d_ff + d_exec))
        self.backpressure.append(sig.backpressure - prev.backpressure)
        del self.payoffs[:-self.size]
        del self.backpressure[:-self.size]


class Autoscaler:
    """Threshold reactions on the latest window, rate-limited and
    clamped, each applied decision recorded.

    Shrink one step while speculation is underwater: payoff below
    ``_LOW_PAYOFF``, with the allocator's expected utility (under one
    superstep's worth of instructions means nothing worth dispatching)
    able to veto the shrink only until the window holds three real
    payoff samples — measurement outranks forecast. Grow one step
    while payoff clears ``_HIGH_PAYOFF`` and dispatch saw backpressure
    in the window (idle demand exists). Otherwise hold.

    ``min_workers`` may be 0 — "stop speculating entirely" is the
    paper-faithful answer when utility is underwater; the engine keeps
    making sequential progress and the pool regrows on demand.
    Decisions are rate-limited to one per ``cooldown`` boundaries so a
    resize settles (new workers warm up, parked slots drain) before it
    is judged.
    """

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
        payoffs = self.window.payoffs
        self.decisions.append({
            "superstep": sig.superstep, "policy": "react",
            "from": sig.active_workers, "target": target,
            "payoff": round(payoffs[-1] if payoffs else 0.0, 4),
            "utility": round(sig.expected_utility, 2),
        })
        return target

    def _decide(self, sig):
        payoffs = self.window.payoffs
        if not payoffs or payoffs[-1] <= _LOW_PAYOFF:
            # No payoff yet counts as low: a cold run bleeds boundary
            # overhead until proven otherwise. Expected utility is the
            # allocator's *forecast*; realized payoff is ground truth.
            # The forecast gets the benefit of the doubt only until the
            # window holds real evidence — otherwise a confident
            # predictor whose entries never land (cold cache, dead
            # phase) pins the pool wide forever.
            if len(payoffs) >= 3 or sig.expected_utility < sig.stride:
                return sig.active_workers - 1
            return None
        if payoffs[-1] >= _HIGH_PAYOFF \
                and any(b > 0 for b in self.window.backpressure):
            return sig.active_workers + 1
        return None

    def __repr__(self):
        return ("Autoscaler(min=%d, max=%d, cooldown=%d, decisions=%d)"
                % (self.min_workers, self.max_workers, self.cooldown,
                   len(self.decisions)))


def resolve_autoscaler(rtc):
    """The run's autoscaler per its :class:`RuntimeConfig` — ``None``
    when the policy is ``off`` (the engine then never samples, keeping
    the fixed-width path byte-identical)."""
    if rtc.autoscale == "off":
        return None
    return Autoscaler(
        min_workers=rtc.autoscale_min_workers,
        max_workers=rtc.autoscale_max_workers or rtc.n_workers,
        cooldown=rtc.autoscale_cooldown, window=rtc.autoscale_window)
