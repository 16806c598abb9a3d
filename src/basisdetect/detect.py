"""Per-class detection: one criterion, run once per term-order class.

Detection enumerates the term-order classes of a generator set and runs
one criterion per class: Buchberger's S-pair criterion for Groebner bases,
or the subduction or Hilbert-function criterion for SAGBI bases.  The
verdict is constant on each class, so the class certificate decides it.
``verdicts`` is the only loop over classes; the library entry points and
the command line both go through it.

Each criterion's module is imported where that criterion runs, so a
command loads only the layers it uses.
"""

from __future__ import annotations

import os
from collections.abc import Generator
from functools import partial

from .orders import OrderClass, extract_weight_vectors
from .polyring import Polynomial


def _pool_size(jobs: int, nclasses: int, cpus: int | None) -> int:
    """Worker count: never more than the CPUs or the classes to check.

    Under fork, ``ProcessPoolExecutor`` starts all ``max_workers`` processes
    up front, so an unclamped job count would fork that many at once.
    """
    return max(1, min(jobs, cpus or 1, nclasses))


# the Groebner check turns a class into its order (module level so worker
# processes can import it)


def _check_gb(polys: list[Polynomial], cls: OrderClass) -> bool:
    from .groebner import is_groebner_basis

    return is_groebner_basis(polys, cls.order())


def _checked(check, classes: list[OrderClass], workers: int):
    if workers == 1:
        for cls in classes:
            yield cls, check(cls)
        return
    # imported only here: loading multiprocessing would cost every serial
    # run about 2 MB of peak memory
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(check, cls) for cls in classes]
        for cls, future in zip(classes, futures):
            yield cls, future.result()
    finally:
        # a caller that stops early (first counterexample) or an error
        # leaves checks that nobody will read
        pool.shutdown(cancel_futures=True)


def verdicts(
    polys: list[Polynomial],
    criterion: str,
    *,
    bound: int | None = None,
    jobs: int = 1,
) -> Generator[tuple[OrderClass, bool], None, None]:
    """``(class, verdict)`` for every term-order class, in sorted order.

    ``criterion`` is 'buchberger' (Groebner basis), 'subduction' (SAGBI,
    exact, at most ``sagbi.SUBDUCTION_CAP`` steps per subduction) or
    'hilbert' (SAGBI, homogeneous generators, compared up to the degree
    limit resolved from ``bound``, with a HilbertBoundWarning when that
    limit truncates).  The arguments are validated and the classes
    enumerated when this is called; the verdicts are computed lazily, one
    class per step, or by up to ``jobs`` worker processes.  Checks not yet
    read are cancelled when the iterator is closed.  'hilbert' always runs
    in this process: each class's Hilbert vector is compared with the
    subalgebra's Hilbert function, which is computed once for all classes,
    one degree at a time, only as far as some class still agrees.
    'subduction' in one process computes the relations of each lattice
    ker A of lead matrices once for all classes that share it (the
    ``shared`` keyword of ``is_sagbi_subduction``).
    """
    if criterion == "hilbert":
        from .hilbert import _resolve_hilbert_bound, _subalgebra_matcher, hilbert_vector

        limit = _resolve_hilbert_bound(polys, bound)
        matches = _subalgebra_matcher(polys)

        def check(cls: OrderClass) -> bool:
            return matches(hilbert_vector(polys, cls, limit))

        # the shared subalgebra ranks are nearly all of the cost; workers
        # could take only the cheap class vectors
        jobs = 1
    elif criterion not in ("buchberger", "subduction"):
        raise ValueError("criterion must be 'buchberger', 'subduction' or 'hilbert'")
    classes = extract_weight_vectors(polys)
    workers = _pool_size(jobs, len(classes), os.cpu_count())
    if criterion == "buchberger":
        check = partial(_check_gb, polys)
    elif criterion == "subduction":
        from .sagbi import _RelationSource, is_sagbi_subduction

        # a serial run shares the relations of each lattice between its
        # classes; each worker process gets an empty source
        shared = _RelationSource(classes if workers == 1 else ())
        check = partial(is_sagbi_subduction, polys, shared=shared)
    return _checked(check, classes, workers)


def weight_vectors_realizing_gb(polys: list[Polynomial]) -> list[OrderClass]:
    """Classes of term orders for which the input is a Groebner basis."""
    return [cls for cls, ok in verdicts(polys, "buchberger") if ok]


def is_universal_gb(polys: list[Polynomial]) -> bool:
    """True when the set is a Groebner basis for every term order."""
    return all(ok for _, ok in verdicts(polys, "buchberger"))


def weight_vectors_realizing_sagbi(
    polys: list[Polynomial],
    method: str = "subduction",
    bound: int | None = None,
) -> list[OrderClass]:
    """Classes of term orders for which the input is a SAGBI basis.

    ``method`` is 'subduction' (default, no homogeneity needed) or
    'hilbert' (homogeneous generators, degree-capped comparison).
    """
    if method not in ("subduction", "hilbert"):
        raise ValueError("method must be 'subduction' or 'hilbert'")
    return [cls for cls, ok in verdicts(polys, method, bound=bound) if ok]


def is_universal_sagbi(polys: list[Polynomial]) -> bool:
    """True when the set is a SAGBI basis for every term order."""
    return all(ok for _, ok in verdicts(polys, "subduction"))
