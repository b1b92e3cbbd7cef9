"""Pin the BLAS thread pools to one thread for the test run.

The Fock-oracle tests make many small dense calls (per-sector beam-splitter
matmuls, displacement eigendecompositions), which OpenBLAS's default thread pool
slows several-fold when the cores are shared with other work.  numpy reads
these variables when it is first imported, after pytest has loaded this
file; a value already set in the environment wins.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def no_reference_evaluator(monkeypatch):
    """Make the Gaussian-mixture reference evaluator (``qkd_reference``) and
    every function and class defined in ``gaussian`` raise; ``entropy_g`` and
    ``NumericsError``, which it imports from the key-rate kernel, are left as
    they are.  ``monkeypatch.undo()`` restores them."""
    import qkd_reference
    from vacfilter import gaussian

    def never(*args, **kwargs):
        raise AssertionError("the reference evaluator ran")

    for name in ("joint_state", "filtered_covariance", "_symmetric_form", "key_rate"):
        monkeypatch.setattr(qkd_reference, name, never)
    for name, obj in list(vars(gaussian).items()):
        if callable(obj) and getattr(obj, "__module__", "") == gaussian.__name__:
            monkeypatch.setattr(gaussian, name, never)
