"""Random number generator helpers.

Every stochastic component in the library accepts either ``None`` (fresh
entropy), an integer seed, or an existing :class:`numpy.random.Generator`.
Centralising the coercion here keeps the rest of the code free of
seed-handling boilerplate and makes experiments reproducible end to end.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for fresh OS entropy, an ``int`` seed, or an existing
        generator which is returned unchanged.

    Returns
    -------
    numpy.random.Generator
        A generator ready for use.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"rng must be None, an int seed, or a numpy Generator; got {type(rng)!r}"
    )


def spawn_streams(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent, reproducible generators from one root seed.

    This is the stream factory used by the staged synthesis pipeline and the
    parallel Monte-Carlo runner: children are derived through
    :meth:`numpy.random.SeedSequence.spawn`, so

    * the streams are statistically independent of each other and of any
      generator later derived from the same root;
    * the i-th stream is a pure function of ``(seed, i)`` — workers can be
      handed their stream (or build it locally) in any order and still
      reproduce a serial run bit for bit;
    * two calls with the same ``int``/``SeedSequence`` root yield identical
      stream lists.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an ``int`` root seed, an existing
        :class:`numpy.random.SeedSequence`, or a
        :class:`numpy.random.Generator` (spawned through its own seed
        sequence; repeated calls on the same generator yield *new* streams
        each time, per numpy's spawn-counter semantics).
    count:
        Number of child generators (non-negative).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(count))
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif seed is None or isinstance(seed, (int, np.integer)):
        root = np.random.SeedSequence(int(seed) if seed is not None else None)
    else:
        raise TypeError(
            "seed must be None, an int, a SeedSequence, or a Generator; "
            f"got {type(seed)!r}"
        )
    return [np.random.default_rng(child) for child in root.spawn(count)]
