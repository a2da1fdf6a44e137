import itertools

import numpy as np
import pytest

from quditsim import (
    DigitLabel,
    QuditSystem,
    add_mod,
    dot_mod,
    enumerate_labels,
    index_to_label,
    is_prime,
    label_to_index,
)
from quditsim.fourier import planewave, planewave_rows
from quditsim.groups import functional_rows, functional_values


def label(digits, n, d):
    return DigitLabel(tuple(digits), QuditSystem(n, d))


def test_system_validation():
    with pytest.raises(ValueError):
        QuditSystem(0, 3)
    with pytest.raises(ValueError):
        QuditSystem(2, 1)
    with pytest.raises(ValueError):
        QuditSystem(10_000, 10)  # blows past the platform index range
    assert QuditSystem(2, 3).dim == 9


def test_huge_n_rejected_before_the_power():
    # 3**(10**9) would take minutes to build; the n bound alone rejects it
    with pytest.raises(ValueError) as info:
        QuditSystem(10**9, 3)
    assert str(info.value) == "dimension 3**1000000000 exceeds the platform index range"
    assert QuditSystem(62, 2).dim == 2**62
    with pytest.raises(ValueError, match="platform index range"):
        QuditSystem(63, 2)


def test_numpy_integer_sizes_do_not_wrap():
    # np.int64(3)**40 wraps to -6289078614652622815 before any bound sees it
    with pytest.raises(ValueError, match="platform index range"):
        QuditSystem(40, np.int64(3))
    system = QuditSystem(np.int64(2), np.uint8(3))
    assert type(system.n) is int and type(system.d) is int
    assert type(system.dim) is int and system.dim == 9


@pytest.mark.parametrize("n,d", [(2.0, 3), (2, 3.0), ("2", 3), (2, None)])
def test_non_integer_sizes_rejected(n, d):
    with pytest.raises(ValueError, match="is not an integer"):
        QuditSystem(n, d)


def test_label_validation():
    sys32 = QuditSystem(2, 3)
    with pytest.raises(ValueError):
        DigitLabel((1,), sys32)
    with pytest.raises(ValueError):
        DigitLabel((0, 3), sys32)
    with pytest.raises(ValueError):
        DigitLabel((-1, 0), sys32)
    assert DigitLabel([1, 2], sys32).digits == (1, 2)


def test_add_mod_examples():
    assert add_mod(label((1, 2), 2, 3), label((2, 2), 2, 3)).digits == (0, 1)
    a = label((2, 0, 1), 3, 3)
    assert add_mod(a, label((0, 0, 0), 3, 3)) == a
    assert add_mod(label((1, 1), 2, 2), label((1, 1), 2, 2)).digits == (0, 0)


def test_add_mod_system_mismatch():
    with pytest.raises(ValueError):
        add_mod(label((1,), 1, 3), label((1,), 1, 4))
    with pytest.raises(ValueError):
        add_mod(label((1, 0), 2, 3), label((1,), 1, 3))


def test_dot_mod_examples():
    assert dot_mod(label((2, 1), 2, 3), label((1, 2), 2, 3)) == 1
    assert dot_mod(label((0, 0), 2, 3), label((2, 2), 2, 3)) == 0
    assert dot_mod(label((0, 1), 2, 3), label((2, 2), 2, 3)) == 2


@pytest.mark.parametrize("n,d", [(2, 2), (1, 3), (1, 6)])
def test_group_axioms_exhaustive(n, d):
    labels = enumerate_labels(QuditSystem(n, d))
    zero = labels[0]
    for a in labels:
        assert add_mod(a, zero) == a
        assert any(add_mod(a, b) == zero for b in labels)  # inverse exists
    for a, b in itertools.product(labels, labels):
        assert add_mod(a, b) == add_mod(b, a)
    for a, b, c in itertools.product(labels, labels, labels):
        assert add_mod(add_mod(a, b), c) == add_mod(a, add_mod(b, c))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
def test_group_axioms_sampled(n, d):
    labels = enumerate_labels(QuditSystem(n, d))
    rng = np.random.default_rng(7)
    zero = labels[0]
    for a in labels:
        assert add_mod(a, zero) == a
    for _ in range(2000):
        a, b, c = (labels[int(i)] for i in rng.integers(len(labels), size=3))
        assert add_mod(a, b) == add_mod(b, a)
        assert add_mod(add_mod(a, b), c) == add_mod(a, add_mod(b, c))


@pytest.mark.parametrize("n,d", [(2, 2), (1, 6)])
def test_dot_mod_bilinear_exhaustive(n, d):
    labels = enumerate_labels(QuditSystem(n, d))
    for k, a, b in itertools.product(labels, labels, labels):
        assert dot_mod(k, add_mod(a, b)) == (dot_mod(k, a) + dot_mod(k, b)) % d


def test_dot_mod_bilinear_sampled():
    labels = enumerate_labels(QuditSystem(2, 3))
    rng = np.random.default_rng(11)
    for _ in range(2000):
        k, a, b = (labels[int(i)] for i in rng.integers(len(labels), size=3))
        assert dot_mod(k, add_mod(a, b)) == (dot_mod(k, a) + dot_mod(k, b)) % 3


# the batched rows equal the per-label calls byte for byte, so verify may
# compare the oracle with either
@pytest.mark.parametrize(
    "n,d",
    [(1, 2), (1, 5), (2, 3), (3, 2), (2, 4), (3, 3), (5, 2), (4, 3), (3, 6), (2, 12)],
)
def test_functional_values_match_dot_mod(n, d):
    system = QuditSystem(n, d)
    labels = enumerate_labels(system)
    digits = np.array([k.digits for k in labels])
    rows, waves = functional_rows(digits, d), planewave_rows(system, digits)
    assert rows.dtype == np.uint8
    for k, row, wave in zip(labels, rows, waves, strict=True):
        values = functional_values(k)
        assert values.tolist() == [dot_mod(k, q) for q in labels]
        assert (row.dtype, row.tobytes()) == (values.dtype, values.tobytes())
        assert wave.tobytes() == planewave(k).amplitudes.tobytes()


# the smallest unsigned dtype that holds a sum of two residues, 2(d - 1);
# the values are those of the int64 formula on either side of the boundary
@pytest.mark.parametrize(
    "n,d,dtype",
    [(2, 2, np.uint8), (1, 128, np.uint8), (1, 129, np.uint16), (2, 129, np.uint16)],
)
def test_functional_rows_dtype_holds_a_sum_of_two_residues(n, d, dtype):
    digits = np.array([[d - 1] * n, [1] + [d // 2] * (n - 1), [0] * n])
    rows = functional_rows(digits, d)
    labels = np.indices((d,) * n).reshape(n, -1)
    assert rows.dtype == dtype
    assert np.array_equal(rows, (digits @ labels) % d)


def test_label_index_examples():
    assert label_to_index(label((1, 2), 2, 3)) == 5
    assert label_to_index(label((0, 0), 2, 3)) == 0
    assert label_to_index(label((1, 0, 1), 3, 2)) == 5
    assert index_to_label(5, QuditSystem(2, 3)).digits == (1, 2)
    assert index_to_label(8, QuditSystem(2, 3)).digits == (2, 2)
    assert index_to_label(1, QuditSystem(1, 2)).digits == (1,)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        index_to_label(9, QuditSystem(2, 3))
    with pytest.raises(ValueError):
        index_to_label(-1, QuditSystem(2, 3))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (2, 4), (1, 7)])
def test_index_bijection(n, d):
    system = QuditSystem(n, d)
    for i in range(system.dim):
        assert label_to_index(index_to_label(i, system)) == i
    for lab in enumerate_labels(system):
        assert index_to_label(label_to_index(lab), system) == lab


def test_enumerate_labels():
    labels = enumerate_labels(QuditSystem(2, 3))
    assert len(labels) == 9
    assert labels[0].digits == (0, 0)
    assert labels[-1].digits == (2, 2)
    assert [lab.digits for lab in enumerate_labels(QuditSystem(1, 2))] == [(0,), (1,)]
    assert len(enumerate_labels(QuditSystem(2, 4))) == 16


@pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (2, 3), (4, 3), (2, 12), (1, 64)])
def test_enumerate_labels_in_index_order(n, d):
    system = QuditSystem(n, d)
    digits = [q.digits for q in enumerate_labels(system)]
    assert digits == [index_to_label(i, system).digits for i in range(system.dim)]
    rows = np.indices((d,) * n).reshape(n, -1).T
    assert digits == [tuple(row) for row in rows.tolist()]


def test_ket_strings():
    assert label((1, 2), 2, 3).ket() == "12"
    assert label((0, 11), 2, 12).ket() == "0,11"
    # the separator starts where a digit can take two characters
    assert label((9, 0), 2, 10).ket() == "90"
    assert label((10, 0), 2, 11).ket() == "10,0"


def test_is_prime():
    assert [d for d in range(2, 17) if is_prime(d)] == [2, 3, 5, 7, 11, 13]
    assert not is_prime(6)
    with pytest.raises(ValueError):
        is_prime(1)
