"""Quaternion algebra properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdvk import quat

seeds = st.integers(0, 10**6)


def batch(seed, m=40, unit=False):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((m, 4))
    if unit:
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q


@given(seeds)
def test_mul_associative(seed):
    p, q, r = batch(seed), batch(seed + 1), batch(seed + 2)
    left = quat.mul(quat.mul(p, q), r)
    right = quat.mul(p, quat.mul(q, r))
    assert np.allclose(left, right, atol=1e-10)


@given(seeds)
def test_identity_and_conj(seed):
    p, q = batch(seed), batch(seed + 1)
    assert np.allclose(quat.mul(quat.ONE, p), p)
    assert np.allclose(quat.mul(p, quat.ONE), p)
    assert np.allclose(quat.conj(quat.mul(p, q)), quat.mul(quat.conj(q), quat.conj(p)))


@given(seeds)
def test_norm_multiplicative(seed):
    p, q = batch(seed), batch(seed + 1)
    assert np.allclose(quat.norm(quat.mul(p, q)), quat.norm(p) * quat.norm(q))


def test_normalize_repairs_small_drift_and_rejects_large():
    q = batch(5, unit=True) * (1.0 + 3e-10)
    n = quat.normalize(q)
    assert np.allclose(quat.norm(n), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        quat.normalize(batch(5) * 7.3)


def test_embed_im_roundtrip():
    v = batch(11)[:, 1:]
    q = quat.embed(v)
    assert np.allclose(q[..., 0], 0.0)
    assert np.allclose(quat.im(q), v)


@given(seeds)
def test_exp_log_roundtrip(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((30, 3))
    v *= (0.9 * np.pi / np.linalg.norm(v, axis=-1, keepdims=True)) * rng.random((30, 1))
    q = quat.exp_im(v)
    assert np.allclose(quat.norm(q), 1.0)
    assert np.allclose(quat.log_unit(q), v, atol=1e-10)


@given(seeds)
def test_conjugation_is_a_rotation(seed):
    u = batch(seed, unit=True)
    v, w = batch(seed + 1)[:, 1:], batch(seed + 2)[:, 1:]
    rv, rw = quat.conjugate_by(u, v), quat.conjugate_by(u, w)
    assert np.allclose(np.sum(rv * rw, axis=-1), np.sum(v * w, axis=-1), atol=1e-10)
    assert np.allclose(quat.conjugate_by(u, np.cross(v, w)), np.cross(rv, rw), atol=1e-10)


def test_hopf_projection():
    assert np.allclose(quat.hopf(quat.ONE), quat.IM_I)
    u = batch(3, unit=True)
    h = quat.hopf(u)
    assert np.allclose(np.linalg.norm(h, axis=-1), 1.0)
    # right circle action moves along the fiber, the projection is blind to it
    th = 0.77
    lam = np.array([np.cos(th), np.sin(th), 0.0, 0.0])
    assert np.allclose(quat.hopf(quat.mul(u, lam)), h, atol=1e-12)


def test_qmap_stabilizes_and_rotates_the_tangent_plane():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((50, 3))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    th = rng.uniform(-2.5, 2.5, 50)
    lam = np.stack([np.cos(th), np.sin(th), 0 * th, 0 * th], axis=-1)
    q = quat.qmap(z, lam)
    assert np.allclose(quat.norm(q), 1.0, atol=1e-12)
    assert np.allclose(quat.conjugate_by(q, z), z, atol=1e-10)
    # qmap(z, lam) = cos th + sin th * z, so conjugation turns the
    # tangent plane by twice the circle angle
    t = np.cross(z, rng.standard_normal((50, 3)))
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    rt = quat.conjugate_by(q, t)
    assert np.allclose(np.sum(rt * t, axis=-1), np.cos(2 * th), atol=1e-10)
    assert np.allclose(np.sum(np.cross(t, rt) * z, axis=-1), np.sin(2 * th), atol=1e-10)


def test_qmap_identity():
    z = np.array([0.36, -0.48, 0.8])
    assert np.allclose(quat.qmap(z, quat.ONE), quat.ONE, atol=1e-12)


def test_qmap_closed_form_matches_conjugation_by_a_square_root():
    # qmap(z, lam) = q lam q* for any unit q with z = q i q*, including z
    # on the far side z.i <= -1/2 and z = -i exactly (q = j, q = k)
    rng = np.random.default_rng(12)
    q = batch(12, unit=True)
    q = np.concatenate([q, [quat.J, quat.K]])
    z = quat.hopf(q)
    assert np.any(z[:-2, 0] <= -0.5)
    assert np.array_equal(z[-2:], [-quat.IM_I, -quat.IM_I])
    th = rng.uniform(-np.pi, np.pi, len(q))
    lam = np.stack([np.cos(th), np.sin(th), 0 * th, 0 * th], axis=-1)
    want = quat.mul(quat.mul(q, lam), quat.conj(q))
    assert np.max(np.abs(quat.qmap(z, lam) - want)) <= 1e-14
    with pytest.raises(ValueError):
        quat.qmap(z, np.broadcast_to(quat.J, lam.shape))


def test_qmap_broadcasts_over_leading_axes():
    z = np.array([0.36, -0.48, 0.8])
    th = np.linspace(-2.0, 2.0, 5)
    lam = np.stack([np.cos(th), np.sin(th), 0 * th, 0 * th], axis=-1)
    q = quat.qmap(z, lam)
    assert q.shape == (5, 4)
    assert np.array_equal(q, np.concatenate([lam[:, :1], lam[:, 1:2] * z], axis=-1))
    assert quat.qmap(np.broadcast_to(z, (2, 5, 3)), lam).shape == (2, 5, 4)
