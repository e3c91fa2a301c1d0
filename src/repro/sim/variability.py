"""Run-to-run variability model.

The paper reports "the most likely performance value without doing an
exhaustive variability analysis" and treats variability "as a
characteristic of the system, rather than an effect of the programming
model" (Sec. IV).  We model it the same way: each *node* has a noise
coefficient, samples are log-normally jittered around the nominal time
(runtimes are positive and right-skewed), and the first repetition carries
the warm-up cost (JIT compilation, first-touch page faults, device
context creation) that the methodology excludes.

Everything is keyed deterministic: the same (seed, experiment key,
repetition) always yields the same sample, so benchmark output is
reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # numpy loads on the first draw, not on import
    import numpy as np

__all__ = ["VariabilityModel", "NODE_VARIABILITY", "rng_for"]

#: Observed-run scatter per system.  Crusher's early-access software stack
#: was noisier than Wombat's (the paper calls out "the variability on this
#: particular system" for the MI250X).
NODE_VARIABILITY = {
    "Crusher": 0.030,
    "Wombat": 0.015,
}


def rng_for(seed: int, key: str) -> np.random.Generator:
    """Deterministic generator for one (seed, key) stream.

    The shared keyed-randomness primitive of the simulator: the
    variability model draws its jitter from it and the fault injector its
    fault stream, each under disjoint key namespaces, so the two never
    perturb each other's samples.
    """
    import numpy as np

    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# Backwards-compatible private alias (pre-fault-layer name).
_rng_for = rng_for


@dataclass(frozen=True)
class VariabilityModel:
    """Deterministic noise generator for one experiment run."""

    seed: int = 2023
    sigma: float = 0.02

    @classmethod
    def for_node(cls, node_name: str, seed: int = 2023) -> "VariabilityModel":
        return cls(seed=seed, sigma=NODE_VARIABILITY.get(node_name, 0.02))

    def samples(self, nominal_seconds: float, key: str, reps: int,
                warmup_extra_seconds: float = 0.0) -> List[float]:
        """``reps`` timing samples; sample 0 includes the warm-up cost.

        Log-normal jitter with median = nominal: exp(sigma * N(0,1)).
        """
        if nominal_seconds <= 0:
            raise ValueError("nominal time must be positive")
        if reps < 1:
            raise ValueError("need at least one repetition")
        import numpy as np

        rng = rng_for(self.seed, key)
        jitter = np.exp(self.sigma * rng.standard_normal(reps))
        out = (nominal_seconds * jitter).tolist()
        out[0] += warmup_extra_seconds
        return out
