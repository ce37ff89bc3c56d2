from types import SimpleNamespace

import pytest

from wrpg.sip import encode_w_to_sip, template_failures


def blocks(elements) -> SimpleNamespace:
    """Slice a codeword into ``pi1 || pi2 || pi3 || pi4``: ``k`` is the
    length of the leading run ``(n+1, .., n+k)``, ``alpha`` the fixed
    point ``n+k+1``, ``beta`` the last element of ``pi2`` and ``gamma``
    the last of ``pi4`` (None when ``pi2`` is empty)."""
    elems = tuple(elements)
    n = (len(elems) - 1) // 2
    k = 1
    while k < n and elems[k] == n + 1 + k:
        k += 1
    pi2, pi4 = elems[k:n], elems[n + k + 1 :]
    return SimpleNamespace(
        pi1=elems[:k],
        pi2=pi2,
        pi3=elems[n : n + k + 1],
        pi4=pi4,
        k=k,
        alpha=n + k + 1,
        beta=pi2[-1] if pi2 else None,
        gamma=pi4[-1] if pi4 else None,
    )


def test_decompose_zero_and_one_example():
    permutation, _ = encode_w_to_sip(12)
    assert template_failures(permutation) == []
    d = blocks(permutation)
    assert d.pi1 == (5, 6)
    assert d.pi2 == (9, 8)
    assert d.pi3 == (1, 2, 7)
    assert d.pi4 == (4, 3)
    assert (d.k, d.alpha, d.beta, d.gamma) == (2, 7, 8, 3)


def test_decompose_all_one_example():
    permutation, _ = encode_w_to_sip(7)
    assert template_failures(permutation) == []
    d = blocks(permutation)
    assert d.pi1 == (4, 5, 6)
    assert d.pi2 == ()
    assert d.pi3 == (1, 2, 3, 7)
    assert d.pi4 == ()
    assert (d.k, d.alpha, d.beta, d.gamma) == (3, 7, None, None)


def test_decompose_rejects_wrong_first_element():
    # a valid involution that does not start with n+1
    assert [clause for clause, _ in template_failures((2, 1, 3, 5, 4))] == ["pi1_start"]


def test_decompose_rejects_non_bitonic_pi2():
    # structurally sliceable, with pi2 = (9, 7, 8) dipping then rising
    failures = template_failures((5, 9, 7, 8, 1, 6, 3, 4, 2))
    assert [clause for clause, _ in failures] == ["pi2_bitonic"]


def test_decompose_reports_first_failed_clause():
    # pi1 ok, pi2 holds the wrong element set
    failures = template_failures((5, 8, 7, 9, 1, 6, 3, 2, 4))
    assert failures
    assert failures[0][0] in {"pi2_elements", "pi2_bitonic", "pi3_form", "pi4_positions"}


def test_every_codeword_decomposes_with_the_stated_relations():
    for w in range(2, 1 << 10):
        permutation, _ = encode_w_to_sip(w)
        n = w.bit_length()
        assert template_failures(permutation) == []
        d = blocks(permutation)
        elems = permutation.elements
        # pi1: consecutive run from n+1
        assert d.pi1 == tuple(range(n + 1, n + d.k + 1))
        # pi2 and pi4 have equal length n-k; empty exactly for all-ones
        assert len(d.pi2) == len(d.pi4) == n - d.k
        assert (not d.pi2) == (w == (1 << n) - 1)
        # alpha is the fixed point, n+k+1 (which is 2n+1 when k = n)
        assert d.alpha == n + d.k + 1 == permutation.alpha
        if d.pi2:
            assert set(d.pi2) == set(range(n + d.k + 2, 2 * n + 2))
            # gamma is the position of the maximum element 2n+1
            assert elems[d.gamma - 1] == 2 * n + 1
            # beta dominates everything in pi3 || pi4
            assert d.beta > max(d.pi3 + d.pi4)
            # every pi2 element exceeds every pi1 element
            assert min(d.pi2) > max(d.pi1)


def test_decompose_accepts_every_codeword_and_rejects_corruptions():
    permutation, _ = encode_w_to_sip(44)
    elems = list(permutation.elements)
    elems[0], elems[1] = elems[1], elems[0]
    assert template_failures(tuple(elems))


@pytest.mark.parametrize("elements", [(True, 3, 2), (1.0, 3, 2), ("a", 1, 2)])
def test_template_rejects_elements_that_are_not_ints(elements):
    assert template_failures(elements) == [
        ("not_a_permutation", "input is not an odd-length permutation of 1..n*")
    ]
