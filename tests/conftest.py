import json
import os

import pytest

from rectcrys.crystal import CrystalElement, RectSequence
from rectcrys.energy import _lrt_energies
from rectcrys.tableaux import Tableau
from rectcrys.verify import rect_sequences

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load_fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def golden():
    """The seven-letter worked example: element, promotions, pairs, energies."""
    return load_fixture("golden_n7.json")


@pytest.fixture(scope="session")
def golden_seq(golden):
    return RectSequence(golden["rects"])


@pytest.fixture(scope="session")
def golden_b(golden, golden_seq):
    return CrystalElement(
        golden_seq,
        [Tableau.from_json(t, n=golden_seq.n) for t in golden["b"]],
    )


def element_from(fix, seq_key, factors_key):
    seq = RectSequence(fix[seq_key])
    return CrystalElement(
        seq, [Tableau.from_json(t, n=seq.n) for t in fix[factors_key]]
    )


def canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


def lr_family(n_max: int, max_cells: int, min_rects: int):
    """(seq, LR tableau) for every shape of every R of ``rect_sequences``
    with at least ``min_rects`` rectangles."""
    for seq in rect_sequences(n_max, max_cells):
        if seq.m >= min_rects:
            for group in _lrt_energies(seq).values():
                for rows in group:
                    yield seq, Tableau._raw(rows, (), seq.n)
