"""Engine and learning configuration."""


class EngineConfig:
    """All tunables for the LASC components in one place.

    The defaults correspond to the paper's described behavior, scaled to
    this repo's smaller workloads (the paper ignores predictions closer
    than 1e4 instructions; our benchmarks run ~1e4x fewer instructions,
    so the default ``min_superstep_instructions`` is proportionally
    smaller). Benchmarks override per-workload knobs explicitly.
    """

    def __init__(self,
                 # -- excitation tracking --------------------------------
                 warmup_observations=6,
                 grow_targets=True,
                 growth_batch_observations=16,
                 # -- recognizer -----------------------------------------
                 recognizer_window=60_000,
                 recognizer_max_window_doublings=3,
                 recognizer_validate_states=24,
                 recognizer_min_occurrences=4,
                 min_superstep_instructions=800,
                 use_compiler_hints=False,
                 # -- predictors -----------------------------------------
                 logistic_learning_rates=(0.5, 0.05),
                 rwma_beta=0.3,
                 rwma_randomized=False,
                 seed=0,
                 # -- allocator / speculation ----------------------------
                 converge_supersteps_charge=None,
                 max_rollout=None,
                 # -- memoization mode -----------------------------------
                 memo_block=8,
                 # -- cache ------------------------------------------------
                 cache_capacity_bytes=None,
                 # -- interpreter tier -------------------------------------
                 # None follows REPRO_FAST_PATH (on by default); False
                 # forces the reference interpreter everywhere.
                 fast_path=None):
        self.warmup_observations = warmup_observations
        self.grow_targets = grow_targets
        self.growth_batch_observations = growth_batch_observations
        self.recognizer_window = recognizer_window
        self.recognizer_max_window_doublings = recognizer_max_window_doublings
        self.recognizer_validate_states = recognizer_validate_states
        self.recognizer_min_occurrences = recognizer_min_occurrences
        # Restrict the recognizer's candidate IPs to the compiler's
        # loop-header/function-entry hints when the program carries them
        # (§2.1: importing static analysis as priors). Hybrid mode: the
        # online validation still decides among the hinted candidates.
        self.use_compiler_hints = use_compiler_hints
        self.min_superstep_instructions = min_superstep_instructions
        # How much simulated time the recognizer search occupies before
        # speculation may begin, expressed in supersteps. None charges the
        # recognizer's real observation span. The paper's measured
        # converge/jump ratio is ~2 (Table 1: 2.3e7 converge vs 1.2e7
        # jump): its search ran on thousands of spare cores watching the
        # live trajectory, while ours validates candidates sequentially
        # in Python — figure generation sets 2.0 for paper parity and
        # EXPERIMENTS.md reports both charges.
        self.converge_supersteps_charge = converge_supersteps_charge
        self.logistic_learning_rates = tuple(logistic_learning_rates)
        self.rwma_beta = rwma_beta
        self.rwma_randomized = rwma_randomized
        self.seed = seed
        self.max_rollout = max_rollout
        self.memo_block = memo_block
        self.cache_capacity_bytes = cache_capacity_bytes
        self.fast_path = fast_path

    def replace(self, **kwargs):
        """A copy with the given fields overridden."""
        fields = dict(self.__dict__)
        fields.update(kwargs)
        return EngineConfig(**fields)

    def __repr__(self):
        inner = ", ".join("%s=%r" % kv for kv in sorted(self.__dict__.items()))
        return "EngineConfig(%s)" % inner
