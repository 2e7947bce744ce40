import math
from collections import Counter

import numpy as np
import pytest

import cavity3q.entanglement as ent


@pytest.fixture
def global_solves(monkeypatch):
    """Counter of the matrices, by size, that `eigh` solves inside the global-negativity stage."""
    solved = Counter()
    inside = []
    eigh, global_split = np.linalg.eigh, ent._global_split

    def counting_eigh(a, *args, **kwargs):
        if inside:
            solved[a.shape[-1]] += math.prod(a.shape[:-2])
        return eigh(a, *args, **kwargs)

    def tracked_split(*args, **kwargs):
        inside.append(True)
        try:
            return global_split(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(ent, "_global_split", tracked_split)
    return solved
