import numpy as np
import numpy.testing as npt
import pytest

from qcilink import radial_forward, radial_inverse

SQRT2 = np.sqrt(2.0)


def test_origin_is_fixed():
    npt.assert_array_equal(radial_forward([0.0, 0.0]), [0.0, 0.0])
    npt.assert_array_equal(radial_inverse([0.0, 0.0]), [0.0, 0.0])


def test_diagonal_points_are_fixed():
    for p in ([1.0, 1.0], [-0.3, 0.3], [0.77, -0.77]):
        npt.assert_allclose(radial_forward(p), p, atol=1e-15)
        npt.assert_allclose(radial_inverse(p), p, atol=1e-15)


def test_hand_evaluated_forward_point():
    out = radial_forward([1.0, 1.0 / 3.0])
    npt.assert_allclose(out, [3.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)], rtol=1e-14)
    assert abs(out @ out - 2.0) < 1e-14


def test_inverse_of_hand_evaluated_point():
    out = radial_inverse([3.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)])
    npt.assert_allclose(out, [1.0, 1.0 / 3.0], rtol=1e-14)
    npt.assert_allclose(radial_inverse([SQRT2, 0.0]), [1.0, 0.0], rtol=1e-15)


def test_round_trip_on_the_square():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(100_000, 2))
    back = radial_inverse(radial_forward(pts))
    assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-12


def test_round_trip_outside_nominal_domains():
    # noisy received points land outside the square/disc; maps must still invert
    rng = np.random.default_rng(8)
    pts = rng.normal(0.0, 2.0, size=(20_000, 2))
    npt.assert_allclose(radial_inverse(radial_forward(pts)), pts, atol=1e-12)
    npt.assert_allclose(radial_forward(radial_inverse(pts)), pts, atol=1e-12)


def test_norm_law():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, size=(100_000, 2))
    norms = np.linalg.norm(radial_forward(pts), axis=1)
    expected = SQRT2 * np.max(np.abs(pts), axis=1)
    assert np.max(np.abs(norms - expected)) < 1e-12


def test_ray_preservation():
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1.0, 1.0, size=(50_000, 2))
    out = radial_forward(pts)
    cross = pts[:, 0] * out[:, 1] - pts[:, 1] * out[:, 0]
    assert np.max(np.abs(cross)) < 1e-12
    assert np.all(np.sum(pts * out, axis=1) >= 0.0)


@pytest.mark.parametrize("fn", [radial_forward, radial_inverse])
def test_commutes_with_positive_scaling(fn):
    # the radial factor depends only on the ray, so peak normalization commutes with both maps
    rng = np.random.default_rng(12)
    pts = rng.normal(0.0, 2.0, size=(200_000, 2))
    c = 10.0 ** rng.uniform(-3.0, 3.0, size=(200_000, 1))
    err = np.linalg.norm(fn(c * pts) - c * fn(pts), axis=1) / np.linalg.norm(c * pts, axis=1)
    assert np.max(err) <= 2e-15


def test_square_boundary_maps_to_circle():
    t = np.linspace(-1.0, 1.0, 501)
    edges = np.concatenate([
        np.column_stack([t, np.ones_like(t)]),
        np.column_stack([t, -np.ones_like(t)]),
        np.column_stack([np.ones_like(t), t]),
        np.column_stack([-np.ones_like(t), t]),
    ])
    radii = np.linalg.norm(radial_forward(edges), axis=1)
    npt.assert_allclose(radii, SQRT2, atol=1e-14)


@pytest.mark.parametrize("fn", [radial_forward, radial_inverse])
@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
def test_rejects_non_finite(fn, bad):
    with pytest.raises(ValueError, match="finite"):
        fn(bad)


@pytest.mark.parametrize("fn", [radial_forward, radial_inverse])
def test_rejects_wrong_shape(fn):
    with pytest.raises(ValueError):
        fn([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fn(1.0)


def test_batch_shapes_preserved():
    rng = np.random.default_rng(11)
    batch = rng.uniform(-1, 1, size=(5, 7, 2))
    assert radial_forward(batch).shape == (5, 7, 2)
    single = radial_forward(np.array([0.4, -0.2]))
    assert single.shape == (2,)
