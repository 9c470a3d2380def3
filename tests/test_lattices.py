import itertools

import pytest

from ppmod.fields import GF
from ppmod.algebra import truncated_dvr
from ppmod.linalg import Matrix, Subspace
from ppmod.catalog import dvr_chain_module
from ppmod.lattices import (ChainDescriptor, FiniteLattice,
                            collapse_simple_intervals, finite_chain,
                            generated_sublattice, mdim, omega_plus)
from ppmod.ppformula import annihilator, bottom, divisibility, tautology

F2 = GF(2)


@pytest.fixture(scope="module")
def d3():
    return truncated_dvr(3, F2)


def all_pp_subgroups_brute(module):
    """Oracle: all subspaces of the module closed under every pp operation
    realised as {phi(M)}: here, for the chain algebra, all action-invariant
    subspaces (every invariant subspace of V/m^N is x^j V/m^N)."""
    from ppmod.modules import hom_space
    from ppmod.linalg import subspace_leq
    import itertools as it
    f = module.algebra.field
    d = module.dim
    out = set()
    for rows in range(d + 1):
        for combo in it.combinations(range(1 << d), rows):
            vecs = [[(c >> j) & 1 for j in range(d)] for c in combo]
            if not vecs:
                s = Subspace.zero(f, d)
            else:
                s = Subspace.from_matrix(d, Matrix.from_rows(f, vecs))
            if s.dim != rows:
                continue
            inv = all(subspace_leq(
                Subspace.from_matrix(d, s.basis * a), s)
                for a in module.action)
            if inv:
                out.add(s.key())
    return out


def test_two_point_lattice_complete(d3):
    m = dvr_chain_module(d3, 3)
    lat, complete = generated_sublattice(m, [bottom(d3), tautology(d3)])
    assert complete
    assert len(lat) == 2


def test_chain_lattice_of_truncation_derived(d3):
    # oracle: enumerate all invariant subspaces of V/m^3 by brute force;
    # the pp-subgroup lattice of the chain module is the full chain
    m = dvr_chain_module(d3, 3)
    x = d3.el_from_label("x")
    x2 = d3.el_from_label("x^2")
    gens = [divisibility(d3, x), divisibility(d3, x2),
            annihilator(d3, x), annihilator(d3, x2)]
    lat, complete = generated_sublattice(m, gens)
    assert complete
    expected = all_pp_subgroups_brute(m)
    assert {s.key() for s in lat.elements} <= expected
    # the four generators already give the full chain 0 < x^2 M < x M < M
    assert len(lat) == 4
    dims = sorted(s.dim for s in lat.elements)
    assert dims == [0, 1, 2, 3]


def test_diamond_from_two_generic_lines():
    # two distinct lines in k^2 plus their sum and meet: the diamond
    lat = FiniteLattice.from_subspaces([
        Subspace.zero(F2, 2),
        Subspace.from_matrix(2, Matrix.from_rows(F2, [[1, 0]])),
        Subspace.from_matrix(2, Matrix.from_rows(F2, [[0, 1]])),
        Subspace.full(F2, 2)])
    assert len(lat) == 4
    q = collapse_simple_intervals(lat)
    assert len(q) == 1


def test_collapse_idempotent_on_image():
    lat = FiniteLattice.from_subspaces([
        Subspace.zero(F2, 2),
        Subspace.from_matrix(2, Matrix.from_rows(F2, [[1, 0]])),
        Subspace.full(F2, 2)])
    q = collapse_simple_intervals(lat)
    assert len(q) == 1
    qq = collapse_simple_intervals(q)
    assert len(qq) == 1


def test_one_point_lattice_collapse_to_itself():
    lat = FiniteLattice.from_subspaces([Subspace.zero(F2, 1)])
    q = collapse_simple_intervals(lat)
    assert len(q) == 1
    assert mdim(lat) == 0


def test_finite_chains_collapse_to_point():
    for n in (2, 3, 5):
        subs = []
        for j in range(n):
            if j == 0:
                subs.append(Subspace.zero(F2, n - 1))
            else:
                subs.append(Subspace.from_matrix(
                    n - 1, Matrix.identity(F2, n - 1).submatrix(
                        range(j), range(n - 1))))
        lat = FiniteLattice.from_subspaces(subs)
        assert len(collapse_simple_intervals(lat)) == 1
        assert mdim(lat) == 0


def test_mdim_descriptors():
    assert mdim(finite_chain(1)) == 0
    assert mdim(finite_chain(7)) == 0
    assert mdim(omega_plus(1)) == 1  # the chain of type omega + 1
    assert mdim(omega_plus(3)) == 1
    assert mdim(omega_plus(0)) == 0  # plain omega collapses in one round


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ChainDescriptor("finite", 0)
    with pytest.raises(ValueError):
        ChainDescriptor("weird", 2)


def test_longest_chain_steps():
    lat = FiniteLattice.from_subspaces([
        Subspace.zero(F2, 2),
        Subspace.from_matrix(2, Matrix.from_rows(F2, [[1, 0]])),
        Subspace.full(F2, 2)])
    assert lat.longest_chain_steps() == 2
