"""Structure-constant algebras: builders, ideals, quotients, nilpotency."""

import pytest

from fqidtest.algebra import (
    STRUCTURE_CAP,
    Algebra,
    Ideal,
    as_ideal,
    builtin,
    count_subspaces,
    enumerate_ideals,
    field_as_algebra,
    from_json_dict,
    full_ideal,
    gaussian_binomial,
    heisenberg,
    ideal_generated,
    load_algebra,
    matrix_algebra,
    nilpotency_index,
    quotient,
    reduce_against,
    restrict,
    rref,
    save_algebra,
    strictly_upper_triangular_lie,
    to_json_dict,
    truncated,
    upper_triangular,
    vec_add,
    zero_ideal,
)
from fqidtest.errors import (
    BudgetExceeded,
    DimensionMismatch,
    LieAxiomViolation,
    NotAnIdeal,
    SearchSpaceTooLarge,
    ShapeMismatch,
    UnknownBuilder,
)
from fqidtest.gf import Field

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)


# builders


def test_matrix_units():
    A = matrix_algebra(2, 2)
    assert A.dim == 4
    assert A.basis_names == ("e11", "e12", "e21", "e22")
    e11, e12, e21, e22 = (A.basis_vec(i) for i in range(4))
    assert A.mul(e11, e12) == e12
    assert A.mul(e12, e21) == e11
    assert A.mul(e12, e12) == A.zero_vec()
    assert A.mul(vec_add(F2, e11, e12), e21) == e11


def test_upper_triangular_shape():
    A = upper_triangular(2, 2)
    assert A.dim == 3
    assert A.basis_names == ("e11", "e12", "e22")
    e11, e12, e22 = (A.basis_vec(i) for i in range(3))
    assert A.mul(e11, e12) == e12
    assert A.mul(e12, e22) == e12
    assert A.mul(e12, e11) == A.zero_vec()


def test_truncated_multiplication():
    A = truncated(2, 3)
    t, t2 = A.basis_vec(0), A.basis_vec(1)
    assert A.mul(t, t) == t2
    assert A.mul(t, t2) == A.zero_vec()
    x = vec_add(F2, t, t2)
    assert A.mul(x, x) == t2  # (t + t^2)^2 = t^2 + 2t^3 + t^4 = t^2


def test_heisenberg_bracket():
    L = heisenberg(3)
    b1, b2, b3 = (L.basis_vec(i) for i in range(3))
    assert L.bracket
    assert L.mul(b1, b2) == b3
    assert L.mul(b2, b1) == (0, 0, 2)
    assert L.mul(b1, b3) == L.zero_vec()


def test_strictly_upper_triangular_lie():
    L = strictly_upper_triangular_lie(4, 2)
    assert L.dim == 6
    assert L.basis_names == ("e12", "e13", "e14", "e23", "e24", "e34")
    idx = {name: i for i, name in enumerate(L.basis_names)}
    e12 = L.basis_vec(idx["e12"])
    e23 = L.basis_vec(idx["e23"])
    e34 = L.basis_vec(idx["e34"])
    assert L.mul(e12, e23) == L.basis_vec(idx["e13"])
    assert L.mul(e23, e12) == L.basis_vec(idx["e13"])  # char 2
    assert L.mul(e12, e34) == L.zero_vec()


def test_stu3_is_heisenberg_after_reordering():
    L = strictly_upper_triangular_lie(3, 2)
    H = heisenberg(2)
    # basis of L is e12, e13, e23; send b1 -> e12, b2 -> e23, b3 -> e13
    perm = (0, 2, 1)
    for i in range(3):
        for j in range(3):
            got = L.mul(L.basis_vec(perm[i]), L.basis_vec(perm[j]))
            want = H.mul(H.basis_vec(i), H.basis_vec(j))
            assert tuple(got[perm[s]] for s in range(3)) == want


def test_field_as_algebra():
    A = field_as_algebra(4)
    assert A.dim == 1
    assert A.mul((2,), (2,)) == (3,)


def test_zero_dimensional_algebra():
    A = truncated(2, 1)
    assert A.dim == 0
    assert list(A.elements()) == [()]
    assert A.mul((), ()) == ()
    assert nilpotency_index(A) == 1


# lie validation


def test_alternating_violation():
    table = [[[1]]]
    with pytest.raises(LieAxiomViolation) as info:
        Algebra(F2, 1, table, bracket=True)
    assert info.value.axiom == "alternating product"


def test_antisymmetry_violation():
    table = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(LieAxiomViolation) as info:
        Algebra(F3, 2, table, bracket=True)
    assert info.value.axiom == "antisymmetry"


def test_jacobi_violation():
    # [b1,b2] = b3, [b1,b3] = b1, [b2,b3] = 0 fails Jacobi on (1,2,3)
    z = [0, 0, 0]
    table = [
        [z, [0, 0, 1], [1, 0, 0]],
        [[0, 0, 2], z, z],
        [[2, 0, 0], z, z],
    ]
    with pytest.raises(LieAxiomViolation) as info:
        Algebra(F3, 3, table, bracket=True)
    assert info.value.axiom == "jacobi identity"


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        Algebra(F2, 2, [[[0, 0], [0, 0]]])
    with pytest.raises(ShapeMismatch):
        Algebra(F2, 1, [[[5]]])
    with pytest.raises(DimensionMismatch):
        truncated(2, 3).mul((1, 0, 0), (1, 0))


# row echelon form


def test_rref_canonical():
    rows, pivots = rref(F3, [(1, 2, 0), (2, 1, 0), (0, 0, 1)], 3)
    assert rows == ((1, 2, 0), (0, 0, 1))
    assert pivots == (0, 2)
    again, _ = rref(F3, [(0, 0, 2), (2, 1, 0)], 3)
    assert again == rows


def test_reduce_against_zeroes_pivots():
    rows, pivots = rref(F3, [(1, 1, 0), (0, 0, 1)], 3)
    res = reduce_against(F3, rows, pivots, (2, 1, 2))
    assert res[0] == 0 and res[2] == 0
    assert res == (0, 2, 0)


# ideals


def test_ideal_generated_single_matrix_unit():
    A = upper_triangular(2, 2)
    e12 = A.basis_vec(1)
    ideal = ideal_generated(A, [e12])
    assert ideal.basis == ((0, 1, 0),)
    assert ideal.rank == 1


def test_ideal_generated_closure():
    A = truncated(2, 3)
    ideal = ideal_generated(A, [A.basis_vec(0)])
    assert ideal.rank == 2  # t generates t^2 as well


def test_enumerate_ideals_truncated():
    A = truncated(2, 3)
    ideals = enumerate_ideals(A)
    assert [i.codim for i in ideals] == [0, 1, 2]
    assert ideals[0].basis == ((1, 0), (0, 1))
    assert ideals[1].basis == ((0, 1),)
    assert ideals[2].basis == ()


def test_enumerate_ideals_heisenberg_against_brute_force():
    L = heisenberg(2)
    ideals = enumerate_ideals(L)
    assert len(ideals) == 6

    # independent oracle: filter all subsets of the 8 vectors
    from itertools import combinations, product

    vectors = list(product(range(2), repeat=3))
    subspaces = []
    for size in (1, 2, 4, 8):
        for sub in combinations(vectors, size):
            s = set(sub)
            if (0, 0, 0) not in s:
                continue
            if any(vec_add(F2, u, v) not in s for u in s for v in s):
                continue
            subspaces.append(s)
    invariant = []
    for s in subspaces:
        basis = [L.basis_vec(i) for i in range(3)]
        if all(L.mul(e, v) in s and L.mul(v, e) in s for e in basis for v in s):
            invariant.append(s)
    assert len(invariant) == 6
    enumerated = [frozenset(i.elements()) for i in ideals]
    assert set(enumerated) == {frozenset(s) for s in invariant}


def test_enumerate_ideals_ordering():
    ideals = enumerate_ideals(heisenberg(2))
    codims = [i.codim for i in ideals]
    assert codims == sorted(codims)
    assert ideals[0].rank == 3
    assert ideals[-1].rank == 0
    # all proper nonzero ideals contain the center b3
    for i in ideals[1:-1]:
        assert i.contains((0, 0, 1))


def test_enumerate_ideals_cap():
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_ideals(matrix_algebra(2, 2), cap=10)


def test_subspace_counts():
    assert gaussian_binomial(4, 2, 2) == 35
    assert count_subspaces(2, 4) == 67
    assert count_subspaces(2, 3) == 16
    assert count_subspaces(3, 2) == 6


def test_ideal_membership_and_elements():
    A = truncated(2, 3)
    ideal = enumerate_ideals(A)[1]
    assert list(ideal.elements()) == [(0, 0), (0, 1)]
    assert ideal.contains((0, 1))
    assert not ideal.contains((1, 0))
    assert ideal.size() == 2


def test_as_ideal_rejects_non_invariant_span():
    A = truncated(2, 3)
    with pytest.raises(NotAnIdeal):
        as_ideal(A, [A.basis_vec(0)])  # span{t} alone is not closed


def test_ideal_constructors_take_only_coordinate_vectors():
    Z = Algebra(F4, 2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])  # zero product
    T = truncated(2, 4)
    cases = [
        (Z, (1, -1)),  # once read through negative indexing
        (Z, (1, 4)),
        (Z, (1,)),
        (T, (0, 5, 0)),  # once an IndexError in Field.inv
        (T, (0, 1, 0, 0)),
        (T, (0, 0.5, 0)),  # entries must be ints: once a TypeError
        (T, (0, 1.0, 0)),
        (Z, ("1", 0)),
    ]
    for A, v in cases:
        for build, what in ((ideal_generated, "generator"), (as_ideal, "vector")):
            with pytest.raises(DimensionMismatch) as info:
                build(A, [A.basis_vec(0), v])
            assert str(info.value) == (
                f"{what} {v!r} is not a coordinate vector of length {A.dim}"
            )
    # any iterable of vectors, read once
    assert ideal_generated(T, iter([(0, 1, 0)])).rank == 2
    assert as_ideal(Z, iter([(1, 3)])).basis == ((1, 3),)


def test_zero_and_full_ideal():
    A = matrix_algebra(2, 2)
    assert zero_ideal(A).rank == 0
    assert full_ideal(A).rank == 4
    assert zero_ideal(A) <= full_ideal(A)
    assert not full_ideal(A) <= zero_ideal(A)


# quotients and restrictions


def test_quotient_truncated():
    A = truncated(2, 3)
    ideal = enumerate_ideals(A)[1]  # span{t^2}
    Q, qmap = quotient(A, ideal)
    assert Q.dim == 1
    assert Q.mul((1,), (1,)) == (0,)  # t*t falls into the ideal
    assert qmap.project((1, 1)) == (1,)
    assert qmap.lift((1,)) == (1, 0)
    assert qmap.project(qmap.lift((1,))) == (1,)


def test_quotient_heisenberg_by_center():
    L = heisenberg(2)
    center = ideal_generated(L, [(0, 0, 1)])
    Q, _ = quotient(L, center)
    assert Q.dim == 2
    assert Q.bracket
    assert all(Q.mul(Q.basis_vec(i), Q.basis_vec(j)) == (0, 0) for i in range(2) for j in range(2))


def test_quotient_requires_ideal():
    A = truncated(2, 3)
    bad = Ideal(F2, 2, ((1, 0),), (0,))  # span{t} as a raw subspace
    with pytest.raises(NotAnIdeal):
        quotient(A, bad)
    with pytest.raises(NotAnIdeal):
        restrict(A, bad)


def test_quotient_size_identity():
    A = upper_triangular(2, 2)
    for ideal in enumerate_ideals(A):
        Q, qmap = quotient(A, ideal)
        assert Q.order() * ideal.size() == A.order()
        for u in Q.elements():
            assert qmap.project(qmap.lift(u)) == u


def inclusion_coordinates(inc, v):
    """The coordinates in the restricted algebra of a member v of the
    ideal: its entries on the ideal's pivot columns."""
    if not inc.ideal.contains(v):
        raise DimensionMismatch("vector is not a member of the ideal")
    return tuple(v[p] for p in inc.ideal.pivots)


def test_restrict_truncated():
    A = truncated(2, 3)
    ideal = enumerate_ideals(A)[1]
    sub, inc = restrict(A, ideal)
    assert sub.dim == 1
    assert sub.mul((1,), (1,)) == (0,)
    assert inclusion_coordinates(inc, (0, 1)) == (1,)
    with pytest.raises(DimensionMismatch):
        inclusion_coordinates(inc, (1, 0))


def test_restrict_full_is_same_algebra():
    A = heisenberg(2)
    sub, _ = restrict(A, full_ideal(A))
    assert sub == A or sub.table == A.table


# nilpotency


def test_nilpotency_truncated():
    assert nilpotency_index(truncated(2, 3)) == 3
    assert nilpotency_index(truncated(5, 3)) == 3
    assert nilpotency_index(truncated(2, 4)) == 4
    assert nilpotency_index(truncated(3, 5)) == 5


def test_nilpotency_heisenberg():
    assert nilpotency_index(heisenberg(2)) == 3
    assert nilpotency_index(heisenberg(3)) == 3


def test_nilpotency_strictly_upper():
    assert nilpotency_index(strictly_upper_triangular_lie(3, 2)) == 3
    assert nilpotency_index(strictly_upper_triangular_lie(4, 2)) == 4


def test_not_nilpotent():
    assert nilpotency_index(matrix_algebra(2, 2)) is None
    assert nilpotency_index(upper_triangular(2, 2)) is None
    assert nilpotency_index(field_as_algebra(2)) is None


def test_zero_multiplication_algebra():
    z = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    assert nilpotency_index(Algebra(F2, 2, z)) == 2


def test_nilpotency_survives_a_stalled_chain():
    # a*a = b, b*b = c: the product-span chain stalls at <c> for two steps
    # (lengths 3 and 4) before dying at length 5
    z = [0, 0, 0]
    table = [
        [[0, 1, 0], z, z],
        [z, [0, 0, 1], z],
        [z, z, z],
    ]
    A = Algebra(F2, 3, table)
    assert nilpotency_index(A) == 5


# builders by name and files


def test_builtin_specs():
    assert builtin("matrix(2,2)") == matrix_algebra(2, 2)
    assert builtin("field(2)") == field_as_algebra(2)
    assert builtin("field_as_algebra(3)") == field_as_algebra(3)
    assert builtin("heisenberg(2)") == heisenberg(2)
    assert builtin(" truncated( 2 , 3 ) ") == truncated(2, 3)
    with pytest.raises(UnknownBuilder):
        builtin("frobnicate(1)")
    with pytest.raises(UnknownBuilder):
        builtin("matrix(2,2")
    with pytest.raises(ValueError):
        builtin("matrix(2)")


def test_structure_cap_refuses_before_any_table_is_built():
    # the first dimension past the cap, for each builder whose dimension
    # grows with its arguments; heisenberg and field have fixed dimension
    for build, args, dim in (
        (matrix_algebra, (6, 2), 36),
        (upper_triangular, (8, 2), 36),
        (strictly_upper_triangular_lie, (9, 2), 36),
        (truncated, (2, 34), 33),
        (truncated, (2, 99999), 99998),
    ):
        with pytest.raises(BudgetExceeded, match=f"dimension {dim} needs {dim**3} structure"):
            build(*args)
    assert truncated(2, 33).dim ** 3 == STRUCTURE_CAP
    for spec, dim in (
        ("strictly_upper_triangular_lie(5,2)", 10),
        ("heisenberg(5)", 3),
        ("upper_triangular(3,2)", 6),
        ("matrix(5,2)", 25),
        ("strictly_upper_triangular_lie(8,2)", 28),
    ):
        assert builtin(spec).dim == dim
    # a document is refused on its dim, before its table is read
    with pytest.raises(BudgetExceeded, match="dimension 33 needs 35937"):
        from_json_dict({"field": {"p": 2}, "dim": 33, "table": "not read"})


ALL_BUILDERS = [
    matrix_algebra(2, 2),
    upper_triangular(2, 2),
    strictly_upper_triangular_lie(3, 2),
    strictly_upper_triangular_lie(4, 2),
    heisenberg(2),
    heisenberg(3),
    truncated(2, 3),
    truncated(3, 3),
    truncated(5, 3),
    field_as_algebra(2),
    field_as_algebra(4),
    field_as_algebra(9),
]


@pytest.mark.parametrize("A", ALL_BUILDERS, ids=lambda a: a.name)
def test_json_round_trip(A):
    doc = to_json_dict(A)
    back = from_json_dict(doc)
    assert back == A
    assert back.basis_names == A.basis_names


def test_save_and_load(tmp_path):
    A = heisenberg(3)
    path = tmp_path / "h3.json"
    save_algebra(A, str(path))
    B = load_algebra(str(path))
    assert B == A


def test_from_json_rejects_malformed():
    with pytest.raises(ShapeMismatch):
        from_json_dict({"dim": 1})
    with pytest.raises(ShapeMismatch):
        from_json_dict({"field": {"p": 2}, "dim": 1, "table": "nope"})
    # basis_names: absent, null or a list of strings, nothing else
    doc = {"field": {"p": 2}, "dim": 2, "table": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
    for names in (5, "ab", ["a", 2], {"a": 1, "b": 2}, True):
        with pytest.raises(ShapeMismatch, match="basis_names must be a JSON list of strings"):
            from_json_dict({**doc, "basis_names": names})
    assert from_json_dict(doc).basis_names == ("b1", "b2")
    assert from_json_dict({**doc, "basis_names": None}).basis_names == ("b1", "b2")
    assert from_json_dict({**doc, "basis_names": ["u", "v"]}).basis_names == ("u", "v")


# exhaustive consistency on every dim-2 table over F_2


def test_dim2_f2_ideal_machinery_exhaustive():
    from itertools import product as iproduct

    vecs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    count = 0
    for cells in iproduct(vecs, repeat=4):
        table = [[cells[0], cells[1]], [cells[2], cells[3]]]
        A = Algebra(F2, 2, table)
        count += 1
        ideals = enumerate_ideals(A)
        # regenerating each ideal from its own basis is a fixed point
        for ideal in ideals:
            assert ideal_generated(A, ideal.basis) == ideal
            Q, qmap = quotient(A, ideal)
            assert Q.order() * ideal.size() == A.order()
        ranks = sorted(i.rank for i in ideals)
        assert ranks[0] == 0 and ranks[-1] == 2
    assert count == 256
