import math
import random
import sys

import pytest
from hypothesis import assume, given, strategies as st

from logcy2.lattice import (
    MAT_ID,
    NonPrimitiveError,
    NonUnimodularError,
    PLMap,
    ccw_sorted,
    complement_matrix,
    cross,
    elementary_shear,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    pl_apply,
    pl_compose,
    pl_elementary,
    pl_inverse,
    pl_validate,
    require_primitive,
    require_unimodular,
    sector_index,
)
from logcy2.sampling import random_primitive

primitive_vectors = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50)
).filter(lambda v: math.gcd(v[0], v[1]) == 1)


def test_complement_fixed_point():
    assert complement_matrix((0, 1)) == MAT_ID


def test_complement_derived_examples():
    assert complement_matrix((1, 0)) == ((0, -1), (1, 0))
    assert complement_matrix((2, 3)) == ((3, -2), (-1, 1))


def test_complement_rejects_imprimitive():
    with pytest.raises(NonPrimitiveError):
        complement_matrix((2, 4))
    with pytest.raises(NonPrimitiveError):
        complement_matrix((0, 0))



def test_errors_quote_integers_past_the_digit_limit_by_a_stand_in():
    huge = 10**5000  # str() refuses it
    stand_in = f"<a value with an integer of more than {sys.get_int_max_str_digits()} digits>"
    with pytest.raises(NonPrimitiveError) as err:
        require_primitive((huge, 0))
    assert str(err.value) == f"vector ({stand_in}, 0) is not primitive"
    with pytest.raises(NonUnimodularError) as err:
        require_unimodular(((huge, 0), (0, 1)))
    assert str(err.value) == f"matrix (({stand_in}, 0), (0, 1)) has determinant {stand_in}"

def _complement_by_window(n):
    """Reference complement: an extended gcd, then the |c|-minimal solution in a window."""
    n1, n2 = n
    if n2 == 0:
        return ((n2, -n1), (n1, 0))
    old_r, r = n1, n2
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    c0, d0 = old_s, old_t
    kf = -c0 // n2
    candidates = [(c0 + k * n2, d0 - k * n1) for k in range(kf - 1, kf + 3)]
    c, d = min(candidates, key=lambda cd: (abs(cd[0]), cd[0] < 0, abs(cd[1]), cd[1] < 0))
    return ((n2, -n1), (c, d))


def test_complement_is_the_window_minimum_on_a_box():
    box = range(-200, 201)
    for n in ((a, b) for a in box for b in box if math.gcd(a, b) == 1):
        assert complement_matrix(n) == _complement_by_window(n), n


def test_complement_is_the_window_minimum_on_huge_entries():
    rng = random.Random(20_000)
    bound = 10**30
    found = 0
    while found < 20_000:
        n = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if math.gcd(*n) == 1:
            found += 1
            assert complement_matrix(n) == _complement_by_window(n), n


@given(primitive_vectors)
def test_complement_property(n):
    a = complement_matrix(n)
    assert mat_vec(a, n) == (0, 1)
    assert mat_det(a) == 1


def _in_sector_by_keys(a, b, v) -> bool:
    """Reference ``in_sector``: rank v and b by their position ccw from a."""
    if v == (0, 0):
        return True

    def key(w):
        c = cross(a, w)
        if c == 0:
            return 0 if a[0] * w[0] + a[1] * w[1] > 0 else 2
        return 1 if c > 0 else 3

    kv, kb = key(v), key(b)
    if kv == kb and kv in (1, 3):
        return cross(v, b) > 0
    return kv < kb


small_vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(small_vectors, small_vectors, small_vectors)
def test_in_sector_matches_reference(a, b, v):
    # The two-ray fan (a, b): sector 0 is [a, b), sector 1 is [b, a).
    assume(a != (0, 0) and b != (0, 0) and not (cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] > 0))
    assert (sector_index((a, b), v) == 0) == _in_sector_by_keys(a, b, v)


def _sector_by_scan(rays, v) -> int:
    """Reference ``sector_index``: the first cyclic sector [rays[i], rays[i+1]) that holds v."""
    k = len(rays)
    return next(i for i in range(k) if _in_sector_by_keys(rays[i], rays[(i + 1) % k], v))


def test_sector_index_matches_a_scan_in_every_rotation(srng):
    for bound in [3] * 150 + [50] * 100 + [10**30] * 100:
        fan = ccw_sorted(list({random_primitive(srng, bound) for _ in range(srng.randint(2, 12))}))
        if len(fan) < 2:
            continue
        probes = fan + [(-x, -y) for x, y in fan] + [(0, 0)]
        probes += [(srng.randint(-bound, bound), srng.randint(-bound, bound)) for _ in range(10)]
        for start in range(len(fan)):
            rays = tuple(fan[start:] + fan[:start])
            for v in probes:
                assert sector_index(rays, v) == _sector_by_scan(rays, v), (rays, v)


def test_sector_index_on_opposite_rays():
    for a in [(1, 0), (2, -3), (10**30, 1 - 10**30)]:
        rays = (a, (-a[0], -a[1]))
        assert sector_index(rays, a) == 0
        assert sector_index(rays, (3 * a[0], 3 * a[1])) == 0
        assert sector_index(rays, rays[1]) == 1
        assert sector_index(rays, (-a[1], a[0])) == 0  # ccw of a
        assert sector_index(rays, (a[1], -a[0])) == 1  # cw of a
        assert sector_index(rays, (0, 0)) == 0
        assert sector_index(rays[::-1], a) == 1


def test_pl_identity():
    assert pl_apply(PLMap.identity(), (5, -7)) == (5, -7)


def test_elementary_trop_examples():
    t = pl_elementary()
    assert pl_apply(t, (-1, 0)) == (-1, 1)
    assert pl_apply(t, (0, 1)) == (0, 1)
    assert pl_apply(t, (1, 5)) == (1, 5)
    pl_validate(t)


# The shear the elementary map at (0, 1) applies on the left half-plane, and
# the nodal monodromy along (0, 1); at any other n both were once built by
# conjugating these with the complement of n.
SHEAR_LEFT_UP = ((1, 0), (-1, 1))
MONODROMY_SHEAR = ((1, 0), (1, 1))


def _conjugate_by_complement(n, m):
    c = complement_matrix(n)
    return mat_mul(mat_inv(c), mat_mul(m, c))


def test_elementary_shear_is_the_complement_conjugate(srng):
    half_plane = PLMap(((0, 1), (0, -1)), (SHEAR_LEFT_UP, MAT_ID))
    for bound in [50] * 40 + [10**30] * 20:
        n = random_primitive(srng, bound)
        assert elementary_shear(n, 1) == _conjugate_by_complement(n, SHEAR_LEFT_UP)
        assert elementary_shear(n, -1) == _conjugate_by_complement(n, MONODROMY_SHEAR)
        c = complement_matrix(n)
        reference = pl_compose(PLMap.linear(mat_inv(c)), pl_compose(half_plane, PLMap.linear(c)))
        assert pl_elementary(n) == pl_elementary(n, 1) == reference
        assert pl_elementary(n, -1) == pl_inverse(reference)
        pl_validate(pl_elementary(n, -1))


def test_compose_with_identity_is_canonical():
    t = pl_elementary()
    assert pl_compose(t, PLMap.identity()) == t
    assert pl_compose(PLMap.identity(), t) == t


def test_shear_and_inverse_cancel():
    t = pl_elementary()
    assert pl_compose(t, pl_inverse(t)) == PLMap.identity()
    assert pl_compose(pl_inverse(t), t) == PLMap.identity()


def test_linear_pieces_multiply():
    a = ((1, 1), (0, 1))
    b = ((0, -1), (1, 0))
    assert pl_compose(PLMap.linear(a), PLMap.linear(b)) == PLMap.linear(mat_mul(a, b))


def test_compose_associates_pointwise(srng):
    maps = [
        pl_elementary(),
        pl_elementary((1, 0)),
        pl_inverse(pl_elementary((1, 2))),
        PLMap.linear(((0, -1), (1, 0))),
        PLMap.linear(((1, 0), (0, -1))),
    ]
    for _ in range(50):
        p = srng.choice(maps)
        q = srng.choice(maps)
        pq = pl_compose(p, q)
        v = (srng.randint(-20, 20), srng.randint(-20, 20))
        assert pl_apply(pq, v) == pl_apply(p, pl_apply(q, v))


def test_bijection_via_inverse(srng):
    m = pl_compose(pl_elementary((1, 1)), pl_compose(PLMap.linear(((1, 1), (0, 1))), pl_elementary()))
    # The det -1 map sends each piece's sector onto one that starts at the image of its end ray.
    swapped = pl_compose(PLMap.linear(((0, 1), (1, 0))), m)
    assert pl_apply(pl_inverse(swapped), pl_apply(swapped, (1, 0))) == (1, 0)
    for p in (m, swapped):
        inv = pl_inverse(p)
        for _ in range(100):
            v = (srng.randint(-30, 30), srng.randint(-30, 30))
            assert pl_apply(inv, pl_apply(p, v)) == v
            assert pl_apply(p, pl_apply(inv, v)) == v


def test_inverse_is_canonical(srng):
    # The inverse's rays are the images of p's, in p's order turned by p's
    # pieces (and reversed by a det -1 map), so pl_inverse must sort them.
    flip = PLMap.linear(((0, 1), (1, 0)))
    for _ in range(40):
        p = flip if srng.random() < 0.5 else PLMap.identity()
        for _ in range(srng.randint(1, 4)):
            p = pl_compose(p, pl_elementary(random_primitive(srng, 3), srng.choice((1, -1))))
        inv = pl_inverse(p)
        pl_validate(inv)
        assert pl_inverse(inv) == p


def test_validate_raises_assertion_error_on_a_non_primitive_ray():
    # A malformed map is a library fault, not an input fault: no NonPrimitiveError.
    with pytest.raises(AssertionError, match="not primitive"):
        pl_validate(PLMap(((2, 0), (0, 1)), (MAT_ID, MAT_ID)))


def test_validate_catches_discontinuity():
    broken = PLMap(((0, 1), (0, -1)), (((1, 1), (0, 1)), MAT_ID))
    with pytest.raises(AssertionError):
        pl_validate(broken)
