import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsrg.lbptop
from tsrg.errors import ClipTooSmall, DimensionError, NonFiniteError
from tsrg.lbptop import (LbpTopParams, VideoClip, _block_bounds, _PLANES, _plane_codes,
                         circular_transitions, extract, uniform_lut)

from oracles import extract_reference, lbp_code, plane_codes_reference

DEFAULT = LbpTopParams()
SMALL = LbpTopParams(grids=(1, 2))


def random_clip(shape, seed=0, lo=0, hi=256):
    rng = np.random.default_rng(seed)
    return VideoClip(rng.integers(lo, hi, size=shape).astype(float))


class TestUniformMapping:
    def test_58_uniform_patterns_59_bins(self):
        # independent enumeration: count circular transitions by string rotation
        uniform = 0
        for code in range(256):
            bits = format(code, "08b")
            transitions = sum(bits[i] != bits[(i + 1) % 8] for i in range(8))
            if transitions <= 2:
                uniform += 1
        assert uniform == 58
        lut = uniform_lut(8)
        assert lut.max() == 58  # catch-all bin index
        assert len(set(lut.tolist())) == 59
        assert DEFAULT.num_bins == 59

    def test_uniform_patterns_get_unique_bins(self):
        lut = uniform_lut(8)
        uniform_codes = [c for c in range(256) if circular_transitions(c, 8) <= 2]
        bins = [lut[c] for c in uniform_codes]
        assert sorted(bins) == list(range(58))

    def test_non_uniform_share_catch_all(self):
        lut = uniform_lut(8)
        for c in range(256):
            if circular_transitions(c, 8) > 2:
                assert lut[c] == 58


class TestLbpCode:
    def test_constant_patch_all_ones_pattern(self):
        patch = np.full((7, 7), 5.0)
        # >= tie rule makes every bit 1 -> pattern 255, a uniform pattern
        assert lbp_code(patch, DEFAULT) == uniform_lut(8)[255]

    def test_peak_center_pattern_zero(self):
        patch = np.zeros((7, 7))
        patch[3, 3] = 10.0
        assert lbp_code(patch, DEFAULT) == uniform_lut(8)[0]

    def test_patch_too_small(self):
        with pytest.raises(DimensionError):
            lbp_code(np.zeros((5, 5)), DEFAULT)


class TestExtract:
    def test_default_feature_length(self):
        assert DEFAULT.feature_length == 85 * 3 * 59 == 15045
        clip = random_clip((8, 60, 60), seed=1)
        assert extract(clip, DEFAULT).shape == (15045,)

    def test_constant_clip_concentrates_mass(self):
        clip = VideoClip(np.full((8, 20, 20), 7.0))
        feats = extract(clip, SMALL)
        bins = SMALL.num_bins
        hot = uniform_lut(8)[255]
        for h in feats.reshape(-1, bins):
            assert h[hot] == pytest.approx(1.0)
            assert h.sum() == pytest.approx(1.0)

    def test_histograms_normalized(self):
        clip = random_clip((9, 24, 24), seed=2)
        feats = extract(clip, SMALL)
        sums = feats.reshape(-1, SMALL.num_bins).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_counts_match_center_count_oracle(self):
        clip = random_clip((9, 18, 20), seed=3)
        params = SMALL
        r = params.radius
        t, h, w = clip.shape
        counts = extract(clip, params, normalize=False).reshape(-1, params.num_bins).sum(axis=1)
        # independent center-counting loop: a center contributes to a plane
        # when its circular neighborhood in that plane's axes fits the block
        expected = []
        for g in params.grids:
            for r0, r1 in _block_bounds(h, g):
                for c0, c1 in _block_bounds(w, g):
                    for _, axis_u, axis_v in _PLANES:
                        n = 0
                        for tt in range(t):
                            for yy in range(r0, r1):
                                for xx in range(c0, c1):
                                    ok = True
                                    for axis, val, lo, hi in ((0, tt, 0, t), (1, yy, r0, r1),
                                                              (2, xx, c0, c1)):
                                        if axis in (axis_u, axis_v):
                                            if val < lo + r or val >= hi - r:
                                                ok = False
                                    if ok:
                                        n += 1
                        expected.append(n)
        np.testing.assert_array_equal(counts, np.array(expected, dtype=float))

    def test_gray_shift_invariance(self):
        clip = random_clip((8, 20, 20), seed=4, lo=0, hi=100)
        shifted = VideoClip(clip.frames + 37.0)
        np.testing.assert_array_equal(extract(clip, SMALL), extract(shifted, SMALL))

    def test_mirror_preserves_xy_mass_multiset(self):
        clip = random_clip((8, 22, 22), seed=5)
        mirrored = VideoClip(clip.frames[:, :, ::-1])
        bins = SMALL.num_bins
        def xy_masses(c):
            counts = extract(c, SMALL, normalize=False).reshape(-1, 3, bins)
            return sorted(counts[:, 0, :].sum(axis=1).tolist())
        assert xy_masses(clip) == xy_masses(mirrored)

    def test_block_codes_match_scalar_lbp_code(self):
        # XY-plane histogram of a single-grid extraction rebuilt via lbp_code
        clip = random_clip((7, 14, 14), seed=6)
        params = LbpTopParams(grids=(1,))
        counts = extract(clip, params, normalize=False).reshape(3, params.num_bins)
        r = params.radius
        t, h, w = clip.shape
        hist = np.zeros(params.num_bins)
        for tt in range(t):
            for yy in range(r, h - r):
                for xx in range(r, w - r):
                    patch = clip.frames[tt, yy - r:yy + r + 1, xx - r:xx + r + 1]
                    hist[lbp_code(patch, params)] += 1
        np.testing.assert_array_equal(counts[0], hist)

    def test_rejects_small_clip(self):
        with pytest.raises(ClipTooSmall):
            extract(random_clip((5, 20, 20)), SMALL)

    def test_rejects_small_blocks_naming_grid(self):
        with pytest.raises(ClipTooSmall, match="2x2"):
            extract(random_clip((8, 12, 12)), SMALL)

    def test_rejects_a_grid_too_fine_for_the_frame_before_building_blocks(self, monkeypatch):
        def no_bounds(n, g):
            raise AssertionError(f"built the bounds of a {g}-block grid")
        monkeypatch.setattr(tsrg.lbptop, "_block_bounds", no_bounds)
        with pytest.raises(ClipTooSmall, match="grid 100000000x100000000"):
            extract(random_clip((8, 20, 20)), LbpTopParams(grids=(1, 100_000_000)))

    @pytest.mark.parametrize("side", [3, 5, 7])
    def test_frame_check_agrees_with_the_block_bounds(self, side):
        # extract's g * side > n test is the per-block width check it replaces
        for n in range(1, 120):
            for g in range(1, 40):
                narrow = any(hi - lo < side for lo, hi in _block_bounds(n, g))
                assert narrow == (g * side > n), (n, g)

    @pytest.mark.parametrize("radius, points, message", [
        (0, 8, "radius and points must be positive"),
        (3, 0, "radius and points must be positive"),
        (-1, 8, "radius and points must be positive"),
        (3, 17, "points must be at most 16"),
        (3, 40, "points must be at most 16"),
    ])
    def test_rejects_bad_radius_or_points(self, radius, points, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LbpTopParams(radius=radius, points=points)

    def test_rejects_non_finite_pixels(self):
        bad = np.zeros((8, 20, 20))
        bad[0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            VideoClip(bad)


@st.composite
def lbp_cases(draw):
    """Parameters and a clip that fits them: tie-heavy (2 to 5 evenly spaced
    gray levels), 8-bit or float pixels, sometimes through a non-contiguous
    view."""
    r = draw(st.integers(1, 3))
    params = LbpTopParams(radius=r, points=draw(st.sampled_from((4, 6, 8, 16))),
                          grids=tuple(draw(st.lists(st.integers(1, 3), min_size=1,
                                                    max_size=2, unique=True))))
    side, g = 2 * r + 1, max(params.grids)
    shape = (draw(st.integers(side, side + 4)),
             g * side + draw(st.integers(0, 5)), g * side + draw(st.integers(0, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("ties", "bytes", "uint8", "float")))
    if kind == "ties":
        levels = rng.integers(0, draw(st.integers(2, 5)), size=shape)
        frames = levels * draw(st.sampled_from((1.0, 0.1, 3.7)))
    elif kind == "bytes":
        frames = rng.integers(0, 256, size=shape).astype(float)
    elif kind == "uint8":
        frames = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        frames = rng.standard_normal(shape) * 10.0 ** int(rng.integers(-3, 4))
    if draw(st.booleans()):
        frames = frames[:, ::-1, ::-1]
    return VideoClip(frames), params


@settings(max_examples=60, deadline=None)
@given(lbp_cases())
def test_flat_span_pass_matches_strided_reference(case):
    clip, params = case
    for _, axis_u, axis_v in _PLANES:
        np.testing.assert_array_equal(
            _plane_codes(clip.frames, axis_u, axis_v, params),
            plane_codes_reference(clip.frames, axis_u, axis_v, params))
    for normalize in (True, False):
        assert (extract(clip, params, normalize).tobytes()
                == extract_reference(clip, params, normalize).tobytes())


def test_bilinear_terms_add_in_order():
    # on this clip, adding each neighbor's last bilinear term first instead
    # of last changes the features
    frames = np.random.default_rng(0).integers(0, 5, size=(9, 13, 13)) * 3.7
    clip, params = VideoClip(frames), LbpTopParams(radius=2, points=16, grids=(1,))
    assert extract(clip, params).tobytes() == extract_reference(clip, params).tobytes()


@pytest.mark.parametrize("seed, shape, grids, digest", [
    (0, (7, 57, 61), (1, 2, 4), "356a3a5782bd0fa7016f283d30f9f9de178e05d15bd666f60dbb41a751eb9b02"),
    (0, (7, 57, 61), (1, 2, 4, 8), "5084acb8466c3740297acc1fb9a1a8c55cbfbc2b4829a5178e00fe3d0e45a972"),
    (1, (9, 63, 59), (1, 2, 4), "7c2083f6724e187318f51743e75852571f5dc391cc2e89bbf70612f456d0629c"),
    (1, (9, 63, 59), (1, 2, 4, 8), "71c6e46bcc4df538845ca4b42dee4268c409b1ec1b2918f491cdfb98175a4835"),
    (2, (11, 64, 64), (1, 2, 4), "5f311cda910e5bed41e659be5f8b0001b7aa21cdb0f842feea157629439f9198"),
    (2, (11, 64, 64), (1, 2, 4, 8), "376a0273dc35b5540628b36bc7af537b502311c1754dadab23c31a98fc7261c0"),
])
def test_feature_bytes_are_pinned(seed, shape, grids, digest):
    # digests of the strided-view implementation's features on 8-bit clips
    frames = np.random.default_rng(seed).integers(0, 256, size=shape).astype(float)
    feats = extract(VideoClip(frames), LbpTopParams(grids=grids))
    assert hashlib.sha256(feats.tobytes()).hexdigest() == digest
