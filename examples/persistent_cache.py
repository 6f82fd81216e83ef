"""Cache reuse across invocations and compiler hints (§6 extensions).

Run:  python examples/persistent_cache.py

Two of the paper's future-work directions, working together:

* the Mini-C compiler hands the recognizer its loop and function
  addresses, so recognition searches a handful of candidates instead of
  every instruction address;
* the trajectory cache earned by one invocation is saved to disk and
  preloaded by the next, which starts fast-forwarding immediately —
  computation amortized across program runs.
"""

import os
import tempfile

from repro import build_collatz
from repro.cluster import CostModel, laptop1
from repro.core.cache_io import load_cache, serialize_cache
from repro.core.engine import MemoizingEngine
from repro.core.recognizer import Recognizer
from repro.durable import write_atomic


def main():
    workload = build_collatz(count=700, memoize=True)
    config = workload.config.replace(use_compiler_hints=True)
    print("hints from the compiler: %r" % (workload.program.hints,))

    recognized = Recognizer(config).find_for_memoization(workload.program)
    print("recognizer (hint-assisted) chose IP 0x%x" % recognized.ip)
    factor = max(recognized.superstep_instructions / 2.3e6 / 5.22, 1e-7)
    platform = laptop1(CostModel().scaled(factor))

    print("\nfirst invocation (cold cache)...")
    cold = MemoizingEngine(workload.program, platform, config=config,
                           recognized=recognized).run()
    print("  scaling %.3fx, %d hits, cache holds %d entries (%d bytes)"
          % (cold.scaling, cold.stats.hits, len(cold.cache),
             cold.cache.total_bytes))

    path = os.path.join(tempfile.gettempdir(), "collatz.ascc")
    write_atomic(path, serialize_cache(cold.cache))
    print("  cache saved to %s" % path)

    print("\nsecond invocation (cache preloaded from disk)...")
    warm = MemoizingEngine(workload.program, platform, config=config,
                           recognized=recognized,
                           initial_cache=load_cache(path)).run()
    print("  scaling %.3fx, %d hits" % (warm.scaling, warm.stats.hits))

    print("\nspeedup carried across invocations: %.3fx -> %.3fx"
          % (cold.scaling, warm.scaling))
    print("Every fast-forward remains byte-exact: a stale entry whose "
          "dependencies no longer\nmatch simply never fires.")


if __name__ == "__main__":
    main()
