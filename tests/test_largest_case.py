"""The largest case that fits on a 7 GB machine: peskin N=640 r=8."""
import numpy as np
import pytest

from twogrid.harness import run_case
from twogrid.problems import make_problem


@pytest.mark.slow
def test_peskin_640_8_is_pinned():
    # about 10 s and a 730 MB process peak on a 2-vCPU machine; its float64
    # refinement floor misses the contract, so it finishes in longdouble
    out = run_case(make_problem("peskin_circle"), 640, 8, detail=True)
    A = out.system.matrix
    assert A.shape == (753_993, 753_993)
    assert A.nnz == 5_409_761
    assert out.solution.dtype == np.longdouble
    assert out.report.err_coarse == pytest.approx(1.2892e-8, rel=1e-3)
    assert out.report.err_fine == pytest.approx(1.4042e-8, rel=1e-3)
