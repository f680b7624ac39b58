"""Memoized Halton draws of sampling.sample_box.

sample_box keeps one read-only unit-cube draw per (dimension, seed) and
serves a request as a prefix of it. These tests check that the in-house
draw has the bits, shape and strides of a fresh scipy engine asked for
that many points, and pinned digests that hold whatever scipy later does;
that every result of sample_box has those bits whatever the order of the
requests, that a caller cannot write into the memo, that the memo stays
bounded, also with threads sharing it, that a seed which does not name one
sequence, a count that is not a positive integer and a box with a
non-finite bound are refused, how many draws one design makes, and that
importing the package leaves scipy.stats unloaded.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.stats import qmc

from clfsynth import runner, sampling
from clfsynth.runner import DEFAULT_PROBLEMS, expand_level_grid
from clfsynth.sampling import Box, sample_box
from clfsynth.systems import load_system


@pytest.fixture(autouse=True)
def empty_memo():
    sampling._halton_memo.clear()
    yield
    sampling._halton_memo.clear()


def unit_box(dim):
    return Box(np.zeros(dim), np.ones(dim))


def fresh(dim, n, seed):
    return qmc.Halton(d=dim, scramble=True, seed=seed).random(n)


@pytest.mark.parametrize("dim", (*range(1, 9), 12, 20, 50))
def test_in_house_draw_equals_scipy_bit_for_bit(dim):
    wrong = []
    for seed in (*range(40), 2**31 - 1):
        for n in (1, 2, 7, 500, 3000):
            ours, theirs = sampling._halton(dim, n, seed), fresh(dim, n, seed)
            if (ours.shape, ours.strides, ours.dtype, ours.tobytes()) != \
                    (theirs.shape, theirs.strides, theirs.dtype, theirs.tobytes()):
                wrong.append((seed, n))
    assert wrong == []


@pytest.mark.parametrize("dim, n, seed, digest", (
    (2, 2000, 0, "ad5569d314b92c8055194f36973bdf467da86750ffb72de78a0bda1f24dbf31d"),
    (4, 1500, 17, "11d5a25af107120fbcbd8f2729a554f281c009449d8b5ea31e9dbb3e8206a423"),
    (50, 3000, 2**31 - 1, "5569649c52f74ecd61f4ad15b9c7a60468db63892e25d1e8798f6a8888540262"),
))
def test_draws_keep_their_pinned_digest(dim, n, seed, digest):
    assert hashlib.sha256(sampling._halton(dim, n, seed).tobytes()).hexdigest() == digest


def test_importing_the_package_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, clfsynth, clfsynth.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# each order asks for a smaller draw after a larger one and a larger after a smaller
ORDERS = ((1, 3000, 7, 2999, 500), (3000, 100, 2500, 3000, 1), (64, 128, 32, 2048, 3000))


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("seed", (0, 1, 17, 23))
@pytest.mark.parametrize("order", ORDERS, ids=("small-first", "large-first", "mixed"))
def test_draws_equal_a_fresh_engine(dim, seed, order):
    for n in order:
        assert sample_box(unit_box(dim), n, seed=seed).tobytes() == fresh(dim, n, seed).tobytes()


def test_box_points_are_the_affine_image_of_the_fresh_draw():
    box = Box([-1.5, 0.25, -3.0], [2.0, 0.5, -1.0])
    sample_box(box, 900, seed=5)
    u = fresh(3, 300, 5)
    expected = box.lows + u * (box.highs - box.lows)
    assert sample_box(box, 300, seed=5).tobytes() == expected.tobytes()


def test_writing_into_a_result_leaves_the_next_draw_unchanged():
    box = unit_box(2)
    first = sample_box(box, 200, seed=3)
    first[:] = 7.0
    assert sample_box(box, 200, seed=3).tobytes() == fresh(2, 200, 3).tobytes()
    shorter = sample_box(box, 50, seed=3)
    shorter[0, 0] = -1.0
    assert sample_box(box, 200, seed=3).tobytes() == fresh(2, 200, 3).tobytes()
    held = sampling._halton_memo[(2, 3)]
    assert not held.flags.writeable
    with pytest.raises(ValueError):
        held[0, 0] = 0.5


def test_memo_stays_bounded_and_evicts_the_least_recently_used():
    size = sampling.HALTON_MEMO_SIZE
    for seed in range(size + 20):
        sample_box(unit_box(2), 10, seed=seed)
        sample_box(unit_box(1), 10, seed=0)
        assert len(sampling._halton_memo) <= size
    assert len(sampling._halton_memo) == size
    assert (1, 0) in sampling._halton_memo
    assert (2, size + 19) in sampling._halton_memo
    assert (2, 0) not in sampling._halton_memo


def test_threads_sharing_the_memo_get_fresh_engine_bits():
    size = sampling.HALTON_MEMO_SIZE
    expected = {seed: fresh(2, 40, seed) for seed in range(size + 8)}
    wrong, errors = [], []

    def work(offset):
        try:
            for i in range(4 * len(expected)):
                seed = (offset + 7 * i) % len(expected)
                n = 10 + (i + offset) % 31
                if sample_box(unit_box(2), n, seed=seed).tobytes() != \
                        expected[seed][:n].tobytes():
                    wrong.append((seed, n))
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
    assert len(sampling._halton_memo) <= size


@pytest.mark.parametrize("seed", (None, 1.0, 2.5, True, False, -1, "3",
                                  np.random.default_rng(0)),
                         ids=("None", "float", "fraction", "True", "False", "negative",
                              "string", "Generator"))
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="sampling seed must be a non-negative integer") as e:
        sample_box(unit_box(2), 10, seed=seed)
    assert repr(seed) in str(e.value)
    assert not sampling._halton_memo


@pytest.mark.parametrize("n", (0, -2, True, False, 2.5, 3.0, "3", None, np.float64(4.0)),
                         ids=("zero", "negative", "True", "False", "fraction", "whole-float",
                              "string", "None", "numpy-float"))
def test_sample_count_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="sample count must be positive") as e:
        sample_box(unit_box(2), n, seed=0)
    assert repr(n) in str(e.value)
    assert not sampling._halton_memo


@pytest.mark.parametrize("n", (np.int64(40), np.int32(40), np.uint16(40)))
def test_numpy_integer_counts_draw_the_int_count(n):
    assert sample_box(unit_box(2), n, seed=4).tobytes() == fresh(2, 40, 4).tobytes()


@pytest.mark.parametrize("make, coordinate", (
    (lambda: Box([np.nan], [1.0]), 0),
    (lambda: Box.centered([np.inf]), 0),
    (lambda: Box([0.0, -np.inf], [1.0, 1.0]), 1),
    (lambda: Box([0.0, 0.0, 0.0], [1.0, 1.0, np.nan]), 2),
), ids=("nan-low", "inf-half-width", "minus-inf-low", "nan-high"))
def test_box_bounds_must_be_finite(make, coordinate):
    with pytest.raises(ValueError, match=f"box bounds must be finite; coordinate {coordinate} "):
        make()


@pytest.mark.parametrize("seed", (np.int64(4), np.int32(4), np.uint8(4)))
def test_numpy_integer_seeds_share_the_int_sequence(seed):
    expected = sample_box(unit_box(2), 40, seed=4)
    assert sample_box(unit_box(2), 40, seed=seed).tobytes() == expected.tobytes()
    assert list(sampling._halton_memo) == [(2, 4)]


def test_one_design_builds_three_engines_and_a_repeat_builds_none(monkeypatch):
    built = []
    halton = sampling._halton

    def counting(dim, n, seed):
        built.append(seed)
        return halton(dim, n, seed)

    monkeypatch.setattr(sampling, "_halton", counting)
    problem = DEFAULT_PROBLEMS["strict_feedback_demo"]
    box = Box.from_dict(problem["box"])
    grid = expand_level_grid(problem["level_grid"])
    system = load_system("strict_feedback_demo")
    Q, R = np.eye(2), np.eye(1)

    def design():
        synth = runner.synthesize_problem(system, Q, R, box, grid, n_samples=500, seed=3)
        return runner.reconstruct_cost(synth.full, synth.V, Q, R, box, grid, k_max=4,
                                       n_samples=500, seed=3)

    first = design()
    assert sorted(built) == [3, 4, 20]
    built.clear()
    second = design()
    assert built == []
    assert second.to_dict() == first.to_dict()
