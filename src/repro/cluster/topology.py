"""Platform presets mirroring the paper's three testbeds."""

from repro.cluster.costmodel import CostModel


class Platform:
    """A named machine: core count plus communication cost model.

    ``memory_bytes_per_core`` optionally bounds the distributed trajectory
    cache (the paper's "scale by adding more memory" axis); ``None`` means
    unbounded.
    """

    def __init__(self, name, n_cores, cost_model=None,
                 memory_bytes_per_core=None):
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1, got %r" % (n_cores,))
        self.name = name
        self.n_cores = int(n_cores)
        self.cost_model = cost_model or CostModel()
        self.memory_bytes_per_core = memory_bytes_per_core

    @property
    def cache_capacity_bytes(self):
        if self.memory_bytes_per_core is None:
            return None
        return self.memory_bytes_per_core * self.n_cores

    def with_cores(self, n_cores):
        """Same platform at a different core count (for scaling sweeps)."""
        return Platform(self.name, n_cores, self.cost_model,
                        self.memory_bytes_per_core)

    def __repr__(self):
        return "Platform(%r, n_cores=%d)" % (self.name, self.n_cores)


def server32(n_cores=32, cost_model=None):
    """The paper's 32-core 1.4 GHz x86 Linux server with MPI."""
    return Platform("server32", n_cores, cost_model or CostModel())


def bluegene_p(n_cores=4096, cost_model=None):
    """The paper's IBM Blue Gene/P slice.

    512 MB RAM per core; the ASIC-accelerated tree reduction makes the
    per-hop reduce cost 4x cheaper than the commodity server's.
    """
    base = cost_model or CostModel()
    tuned = CostModel(
        mips_base=base.mips_base,
        mips_dep=base.mips_dep,
        rollout_seconds_per_bit=base.rollout_seconds_per_bit,
        rollout_seconds_base=base.rollout_seconds_base,
        query_base_seconds=base.query_base_seconds,
        query_seconds_per_bit=base.query_seconds_per_bit,
        reduce_hop_seconds=base.reduce_hop_seconds / 4.0,
        p2p_seconds=base.p2p_seconds,
        fast_forward_seconds=base.fast_forward_seconds,
        local_query_seconds=base.local_query_seconds,
    )
    return Platform("bluegene_p", n_cores, tuned,
                    memory_bytes_per_core=512 * 1024 * 1024)


def laptop1(cost_model=None):
    """The paper's single-core 2.4 GHz laptop (memoization-only mode)."""
    return Platform("laptop1", 1, cost_model or CostModel())
