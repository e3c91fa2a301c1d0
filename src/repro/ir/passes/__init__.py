"""Optimisation passes applied by programming-model frontends."""

from ..._lazy import lazy_exports

__all__ = [
    "Pass",
    "PassPipeline",
    "PassRecord",
    "ElideBoundsChecks",
    "InsertBoundsChecks",
    "SetFastMath",
    "InterchangeLoops",
    "LoopInvariantMotion",
    "UnrollInnerLoop",
    "VectorizeInnerLoop",
    "vectorization_legal",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Pass", "PassPipeline", "PassRecord"),
    ".bounds_check": ("ElideBoundsChecks", "InsertBoundsChecks"),
    ".fastmath": ("SetFastMath",),
    ".interchange": ("InterchangeLoops",),
    ".invariant": ("LoopInvariantMotion",),
    ".unroll": ("UnrollInnerLoop",),
    ".vectorize": ("VectorizeInnerLoop", "vectorization_legal"),
})
