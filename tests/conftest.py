import math
from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def eigh_solves(monkeypatch):
    """``eigh_solves(call, *args, **kwargs)`` runs a call and counts its `np.linalg.eigh` solves.

    It returns a Counter of the matrices solved, by size: a stacked call on
    (k, n, n) counts k matrices of size n.  The shape and dtype of each
    call's argument are kept, in order, in ``eigh_solves.calls``.
    """
    eigh = np.linalg.eigh
    calls = []

    def recording(a, *args, **kwargs):
        calls.append((a.shape, a.dtype))
        return eigh(a, *args, **kwargs)

    def solves(call, *args, **kwargs):
        calls.clear()
        call(*args, **kwargs)
        solved = Counter()
        for shape, _ in calls:
            solved[shape[-1]] += math.prod(shape[:-2])
        return +solved  # no entry of count 0

    monkeypatch.setattr(np.linalg, "eigh", recording)
    solves.calls = calls
    return solves
