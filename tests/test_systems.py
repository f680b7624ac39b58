"""Tests for declarative system descriptions compiled from term lists.

Oracles: every cell must equal its term-by-term sum of c * prod(x ** e),
and the origin pair must be the degree-one drift coefficients (A) and the
constant input coefficients (B). The inline cascade y' = -y^3 + x,
x' = x y^2 + u has the hand-derived blocks H1 = 0, H2 = 1, F1 = F2 = 0,
G = 1.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_clf import PLANAR_PLANTS

from clfsynth.errors import ConfigError
from clfsynth.sampling import Box, sample_box
from clfsynth.structured import FeedforwardSystem, StrictFeedbackSystem
from clfsynth.systems import load_system


def term_sum(cell, x):
    return sum(t["coeff"] * np.prod(np.asarray(x, dtype=float) ** np.array(t["exponents"]))
               for t in cell)


def terms_of_degree(cell, degree):
    return [t for t in cell if sum(t["exponents"]) == degree]


class TestPolynomialSystem:
    @settings(max_examples=30, deadline=None)
    @given(spec=PLANAR_PLANTS, seed=st.integers(0, 2 ** 16))
    def test_cells_equal_term_by_term_sums(self, spec, seed):
        with warnings.catch_warnings(record=True):  # unstabilizable draws warn
            sys_ = load_system(spec)
        for x in sample_box(Box.centered([1.5, 1.5]), 16, seed=seed):
            drift = [term_sum(cell, x) for cell in spec["drift"]]
            inputs = [[term_sum(cell, x) for cell in row] for row in spec["input"]]
            np.testing.assert_allclose(sys_.a(x), drift, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(sys_.b(x), inputs, rtol=1e-13, atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(spec=PLANAR_PLANTS)
    def test_origin_pair_is_read_from_the_terms(self, spec):
        with warnings.catch_warnings(record=True):
            lin = load_system(spec).linearization
        A = np.zeros((2, 2))
        for i, cell in enumerate(spec["drift"]):
            for t in terms_of_degree(cell, 1):
                A[i, int(np.argmax(t["exponents"]))] += t["coeff"]
        B = [[sum(t["coeff"] for t in terms_of_degree(cell, 0)) for cell in row]
             for row in spec["input"]]
        np.testing.assert_allclose(lin.A, A, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(lin.B, B, rtol=1e-15, atol=0.0)


STRICT_FEEDBACK = {
    "structure": "strict_feedback", "n_y": 1,
    "h1": [[{"coeff": -1.0, "exponents": [3]}]],
    "h2": [[{"coeff": 1.0, "exponents": [0]}]],
    "f": [{"coeff": 1.0, "exponents": [2, 1]}],
    "g": [{"coeff": 1.0, "exponents": [0, 0]}],
}
FEEDFORWARD = {
    "structure": "feedforward", "n_x": 1, "p": 1,
    "h": [{"coeff": 1.0, "exponents": [1]}],
    "f": [[{"coeff": 1.0, "exponents": [2]}]],
    "g": [[[{"coeff": 1.0, "exponents": [0]}]]],
}


class TestStructuredSpecs:
    def test_strict_feedback_blocks_are_exact(self):
        sys_ = load_system(STRICT_FEEDBACK)
        assert isinstance(sys_, StrictFeedbackSystem)
        assert np.array_equal(sys_.H1, [[0.0]])
        assert np.array_equal(sys_.H2, [1.0])
        assert np.array_equal(sys_.F1, [0.0])
        assert (sys_.F2, sys_.G) == (0.0, 1.0)

    def test_strict_feedback_field(self):
        full = load_system(STRICT_FEEDBACK)
        y, x = 0.7, -1.3
        assert np.allclose(full.a([y, x]), [-y ** 3 + x, x * y ** 2], rtol=1e-15)
        assert np.array_equal(full.b([y, x]), [[0.0], [1.0]])

    def test_feedforward_blocks_are_exact(self):
        sys_ = load_system(FEEDFORWARD)
        assert isinstance(sys_, FeedforwardSystem)
        assert np.array_equal(sys_.H, [1.0])
        assert np.array_equal(sys_.F, [[0.0]])
        assert np.array_equal(sys_.G, [[1.0]])


def polynomial(**changes):
    spec = {"n": 1, "p": 1, "drift": [[{"coeff": 1.0, "exponents": [1]}]],
            "input": [[[{"coeff": 1.0, "exponents": [0]}]]]}
    spec.update(changes)
    return spec


class TestSpecErrors:
    @pytest.mark.parametrize("spec, message", [
        (polynomial(drift=[[{"coeff": 1.0}]]), "drift\\[0\\]: malformed term"),
        (polynomial(drift=[[{"coeff": 1.0, "exponents": [1, 0]}]]),
         "drift\\[0\\]: term has 2 exponents, expected 1"),
        (polynomial(input=[[[{"coeff": 1.0, "exponents": [-1]}]]]),
         "input\\[0\\]\\[0\\]: exponents must be nonnegative"),
        (polynomial(drift=[]), "one row per state"),
        (polynomial(input=[[[], []]]), "input\\[0\\] needs one entry per input channel"),
        ({"n": 1, "p": 1, "drift": [[]]}, "missing field 'input'"),
        (dict(STRICT_FEEDBACK, h2=[]), "h1 and h2 need one row per y coordinate"),
        (dict(STRICT_FEEDBACK, f=[{"exponents": [1, 0]}]),
         "f: malformed term"),
        (dict(FEEDFORWARD, h=[{"coeff": 1.0, "exponents": [1, 1]}]),
         "h: term has 2 exponents, expected 1"),
        ({"structure": "cascade"}, "unknown structure tag"),
    ])
    def test_rejected_with_message(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            load_system(spec)
