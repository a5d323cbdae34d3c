"""Memory bounds of the score pipeline, measured with tracemalloc.

A score file is records x labels floats, so every whole-matrix copy the
pipeline makes is a multiple of the data.  These tests hold the parse to
the array plus a fixed text budget and the whole ``metrics`` command to
twice the array.
"""

import tracemalloc

import numpy as np
import pytest

from argmaxable import reportio
from argmaxable.cli import run
from argmaxable.reportio import parse_scores

RECORDS, LABELS = 300, 3000


@pytest.fixture(scope="module")
def score_files(tmp_path_factory):
    rng = np.random.default_rng(27)
    scores = rng.standard_normal((RECORDS, LABELS))
    directory = tmp_path_factory.mktemp("scores")
    target = directory / "scores.csv"
    target.write_text(
        "".join(",".join(map(repr, row)) + "\n" for row in scores.tolist())
    )
    gold = directory / "gold.txt"
    gold.write_text(
        f"n={LABELS}\n"
        + "".join(
            ",".join(map(str, sorted(rng.choice(LABELS, 5, replace=False) + 1)))
            + "\n"
            for _ in range(RECORDS)
        )
    )
    return target, gold, scores.nbytes


def _peak(call):
    """The call's result and the most memory it held at once, in bytes."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_parse_holds_the_array_and_one_block(score_files):
    target, _, nbytes = score_files
    arr, peak = _peak(lambda: parse_scores(target))
    assert arr.nbytes == nbytes
    # np.loadtxt reading an iterator does not know the row count, so it
    # grows its array by about a quarter at a time; the text it is fed
    # is one block's raw bytes, decoded text and lines.
    budget = 16 * reportio._BLOCK_BYTES
    assert peak <= 1.25 * nbytes + budget, (peak, nbytes)


def test_metrics_command_stays_under_twice_the_array(score_files, tmp_path):
    target, gold, nbytes = score_files
    argv = ["metrics", "--scores", str(target), "--gold", str(gold)]
    argv += ["--k", "1,5,10", "--deterministic", "--out", str(tmp_path / "m.json")]
    code, peak = _peak(lambda: run(argv))
    assert code == 0
    assert peak <= 2 * nbytes, (peak, nbytes)
