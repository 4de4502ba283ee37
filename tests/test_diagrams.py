from fractions import Fraction

import pytest

from logcy2.diagrams import (
    BaseDiagram,
    BlockedError,
    InvalidDiagramError,
    OffEigenlineError,
    PreconditionFailedError,
    apply_linear,
    cut_transfer,
    diagram,
    elementary_move,
    elementary_move_inverse,
    from_json,
    make_node,
    monodromy_for,
    nodal_slide,
    render_svg,
    to_json,
    visible_spheres,
)
from logcy2.lattice import mat_vec
from logcy2.sampling import random_elementary_setup, random_surface, random_unimodular
from logcy2.surfaces import cubic_surface, interior_blowup, p1xp1, p2, pushforward
from logcy2.words import Elementary, Linear, Word


def F(a, b=1):
    return Fraction(a, b)


def positions(d: BaseDiagram):
    return sorted(n.position for n in d.nodes)


def test_diagram_of_cubic():
    d = diagram(cubic_surface())
    assert positions(d) == sorted(
        [(F(1), F(0)), (F(2), F(0)), (F(0), F(1)), (F(0), F(2)), (F(-1), F(-1)), (F(-2), F(-2))]
    )


def test_diagram_trivial_cases():
    assert diagram(p2()).nodes == ()
    d = diagram(p1xp1((0, 1, 0, 0)))
    assert positions(d) == [(F(0), F(1))]


def test_node_monodromy_fixes_direction():
    for direction in ((0, 1), (1, 0), (1, -1), (2, 1), (-3, 1)):
        m = monodromy_for(direction)
        assert mat_vec(m, direction) == direction or mat_vec(m, direction) == tuple(
            -c for c in direction
        )


def test_all_diagram_nodes_satisfy_eigen_invariant(srng):
    for _ in range(10):
        d = diagram(random_surface(srng))
        for n in d.nodes:
            assert mat_vec(n.monodromy, n.direction) == n.direction
            assert n.position[0] * n.direction[1] == n.position[1] * n.direction[0]


def test_nodal_slide_outward():
    d = diagram(p1xp1((0, 2, 0, 0)))  # the only (0,1)-line nodes are (0,1),(0,2)
    moved = nodal_slide(d, d.node_at((F(0), F(2))), (F(0), F(3)))
    assert (F(0), F(3)) in [n.position for n in moved.nodes]


def test_nodal_slide_blocked():
    d = diagram(interior_blowup(p1xp1((0, 2, 0, 0)), (0, 1)))  # nodes at (0,1),(0,2),(0,3)
    i = d.node_at((F(0), F(2)))
    with pytest.raises(BlockedError):
        nodal_slide(d, i, (F(0), F(3)))
    with pytest.raises(BlockedError):
        nodal_slide(d, d.node_at((F(0), F(1))), (F(0), F(4)))
    moved = nodal_slide(d, d.node_at((F(0), F(3))), (F(0), F(4)))
    assert (F(0), F(4)) in [n.position for n in moved.nodes]


def test_nodal_slide_through_origin():
    d = diagram(p1xp1((0, 1, 0, 0)))
    moved = nodal_slide(d, 0, (F(0), F(-1)))
    assert positions(moved) == [(F(0), F(-1))]


def test_nodal_slide_off_line():
    d = diagram(p1xp1((0, 1, 0, 0)))
    with pytest.raises(OffEigenlineError):
        nodal_slide(d, 0, (F(1), F(1)))


def test_nodal_slide_origin_forbidden():
    d = diagram(p1xp1((0, 1, 0, 0)))
    with pytest.raises(BlockedError):
        nodal_slide(d, 0, (F(0), F(0)))


def test_cut_transfer_shears_other_half():
    nodes = (
        make_node((F(0), F(-1)), (0, 1), 1),  # cut points up, through the origin
        make_node((F(-1), F(0)), (-1, 0), 1),
    )
    d = BaseDiagram(nodes)
    out = cut_transfer(d, d.node_at((F(0), F(-1))))
    assert (F(-1), F(1)) in [n.position for n in out.nodes]


def test_cut_transfer_single_node_flips_sign_only():
    d = BaseDiagram((make_node((F(0), F(1)), (0, 1), 1),))
    out = cut_transfer(d, 0)
    assert out.nodes[0].position == (F(0), F(1))
    assert out.nodes[0].cut_sign == -1


def test_cut_transfer_involution(srng):
    for _ in range(25):
        d = diagram(random_surface(srng))
        if not d.nodes:
            continue
        i = srng.randrange(len(d.nodes))
        pos = d.nodes[i].position
        once = cut_transfer(d, i)
        again = cut_transfer(once, once.node_at(pos))
        assert again == d


def test_apply_linear_identity_and_rotation():
    d = diagram(cubic_surface())
    assert apply_linear(d, ((1, 0), (0, 1))) == d
    rot = apply_linear(d, ((0, -1), (1, 0)))
    assert (F(0), F(1)) in [n.position for n in rot.nodes]
    assert (F(1), F(-1)) in [n.position for n in rot.nodes]


def test_apply_linear_reflection_valid():
    d = diagram(cubic_surface())
    out = apply_linear(d, ((1, 0), (0, -1)))
    for n in out.nodes:
        assert mat_vec(n.monodromy, n.direction) == n.direction


def test_apply_linear_matches_pushforward(srng):
    for _ in range(25):
        s = random_surface(srng)
        m = random_unimodular(srng)
        w = Word(((Linear(m), 1),))
        assert apply_linear(diagram(s), m) == diagram(pushforward(w, s))


def test_elementary_move_central_example():
    s = p1xp1((0, 1, 0, 0))
    d = diagram(s)
    out = elementary_move(d, (0, 1))
    assert out == diagram(pushforward(Word(((Elementary((0, 1)), 1),)), s))


def test_elementary_move_matches_pushforward(srng):
    for _ in range(30):
        s, n = random_elementary_setup(srng)
        w = Word(((Elementary(n), 1),))
        assert elementary_move(diagram(s), n) == diagram(pushforward(w, s))


def test_elementary_move_then_inverse():
    d = diagram(insert_rays_for_cubic())
    out = elementary_move(d, (1, 0))
    assert elementary_move_inverse(out, (1, 0)) == d


def insert_rays_for_cubic():
    from logcy2.surfaces import insert_ray

    return insert_ray(cubic_surface(), (-1, 0))


def test_elementary_move_missing_node():
    d = diagram(p2((0, 1, 0)))
    with pytest.raises(PreconditionFailedError):
        elementary_move(d, (1, 0))


def test_moves_preserve_node_count(srng):
    for _ in range(15):
        s, n = random_elementary_setup(srng)
        d = diagram(s)
        out = elementary_move(d, n)
        assert len(out.nodes) == len(d.nodes)


def test_visible_spheres():
    assert len(visible_spheres(cubic_surface())) == 3
    assert visible_spheres(p2((1, 1, 1))) == []
    s = p1xp1((0, 4, 0, 0))
    assert visible_spheres(s) == [
        ((0, 1), (0, 2)),
        ((0, 2), (0, 3)),
        ((0, 3), (0, 4)),
    ]


def test_json_roundtrip():
    d = diagram(cubic_surface())
    assert from_json(to_json(d)) == d
    moved = elementary_move(diagram(insert_rays_for_cubic()), (1, 0))
    assert from_json(to_json(moved)) == moved


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"nodes": 3}',
        '{"nodes": [3]}',
        '{"nodes": [], "extra": 1}',
        '{"nodes": [{"position": ["1", "0"], "direction": [1, 0]}]}',
        '{"nodes": [{"position": "10", "direction": [1, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["x", "0"], "direction": [1, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["1/0", "0"], "direction": [1, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": [Infinity, 0], "direction": [1, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": [null, 0], "direction": [1, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["1", "0"], "direction": [1.0, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["1", "0"], "direction": [1, 0, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["2", "0"], "direction": [2, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["1", "1"], "direction": [1, 0], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["1", "0"], "direction": [1, 0], "cut_sign": 0}]}',
        '{"nodes": [{"position": ["1", "0"], "direction": [1, 0], "cut_sign": 1.0}]}',
        '{"nodes": [{"position": ["0", "1"], "direction": [false, true], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["0", "1"], "direction": [0, 1], "cut_sign": true}]}',
        '{"nodes": [{"position": [false, true], "direction": [0, 1], "cut_sign": 1}]}',
        '{"nodes": [{"position": ["1", "0"], "direction": [1, 0], "cut_sign": 1},'
        ' {"position": ["1", "0"], "direction": [1, 0], "cut_sign": -1}]}',
    ],
)
def test_json_rejects_malformed_input(text):
    with pytest.raises(InvalidDiagramError):
        from_json(text)


def test_svg_deterministic_and_structured():
    d = diagram(cubic_surface())
    svg1, svg2 = render_svg(d), render_svg(d)
    assert svg1 == svg2
    assert svg1.startswith("<?xml")
    assert svg1.count("stroke-dasharray") == len(d.nodes)
    empty = render_svg(BaseDiagram())
    assert "circle" in empty and "<line" not in empty
