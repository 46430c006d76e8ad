import numpy as np
import pytest

from ecgformer import attention_viz as av
from ecgformer import model as wm
from ecgformer.dsp import ProcessedWindow
from ecgformer.errors import ArgumentRangeError

from oracles import read_csv_map

TOY = wm.ModelConfig(
    num_leads=2, d_patch=64, d_model=16, num_layers=2, num_heads=2, d_ff=16,
    d_deep=8, d_wide=4, d_class=3, window_samples=192,
)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    params = wm.init_params(TOY, seed=1)
    window = ProcessedWindow(rng.uniform(-1, 1, size=(2, 192)), 192, 0)
    wide = rng.normal(size=4)
    return params, window, wide


class TestExtract:
    def test_patch_submatrix_shape(self, setup):
        params, window, wide = setup
        amap = av.extract_attention(window, wide, params, TOY, layer=1)
        assert amap.patch_submatrix.shape == (3, 3)
        assert amap.matrix.shape == (4, 4)
        assert amap.class_row.shape == (3,)

    def test_rows_sum_to_one(self, setup):
        params, window, wide = setup
        for layer in range(TOY.num_layers):
            amap = av.extract_attention(window, wide, params, TOY, layer=layer)
            np.testing.assert_allclose(amap.matrix.sum(axis=-1), 1.0, atol=1e-6)

    def test_mean_equals_average_of_heads(self, setup):
        params, window, wide = setup
        mean_map = av.extract_attention(window, wide, params, TOY, layer=0, head_mode="mean")
        singles = [av.extract_attention(window, wide, params, TOY, layer=0, head_mode=h).matrix
                   for h in range(TOY.num_heads)]
        np.testing.assert_allclose(mean_map.matrix, np.mean(singles, axis=0), atol=1e-12)

    def test_deterministic(self, setup):
        params, window, wide = setup
        a = av.extract_attention(window, wide, params, TOY, layer=0).matrix
        b = av.extract_attention(window, wide, params, TOY, layer=0).matrix
        np.testing.assert_array_equal(a, b)

    def test_layer_out_of_range(self, setup):
        params, window, wide = setup
        with pytest.raises(ArgumentRangeError):
            av.extract_attention(window, wide, params, TOY, layer=2)
        with pytest.raises(ArgumentRangeError):
            av.extract_attention(window, wide, params, TOY, layer=0, head_mode=7)


def uniform_map(n=3):
    t = n + 1
    return av.AttentionMap(layer=0, head_mode="mean", matrix=np.full((t, t), 1.0 / t))


class TestExport:
    def test_uniform_map_constant_pgm(self, tmp_path, setup):
        _, window, _ = setup
        path = av.export_heatmap(uniform_map(), window.signal[1], tmp_path / "u.pgm", fmt="pgm")
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 3\n255\n")
        pixels = data.split(b"255\n", 1)[1]
        assert len(set(pixels)) == 1

    def test_pgm_dimensions_by_region(self, tmp_path, setup):
        params, window, wide = setup
        amap = av.extract_attention(window, wide, params, TOY, layer=0)
        patch = av.export_heatmap(amap, window.signal[1], tmp_path / "p.pgm", fmt="pgm", region="patch")
        full = av.export_heatmap(amap, window.signal[1], tmp_path / "f.pgm", fmt="pgm", region="full")
        assert patch.read_bytes().startswith(b"P5\n3 3\n")
        assert full.read_bytes().startswith(b"P5\n4 4\n")

    def test_csv_round_trip(self, tmp_path, setup):
        params, window, wide = setup
        amap = av.extract_attention(window, wide, params, TOY, layer=1)
        path = av.export_heatmap(amap, window.signal[1], tmp_path / "m.csv", fmt="csv")
        back = read_csv_map(path)
        assert np.max(np.abs(back - amap.patch_submatrix)) < 1e-6
        # Row sums survive serialization.
        full_path = av.export_heatmap(amap, window.signal[1], tmp_path / "mf.csv", fmt="csv", region="full")
        full = read_csv_map(full_path)
        np.testing.assert_allclose(full.sum(axis=-1), amap.matrix.sum(axis=-1), atol=1e-6)

    def test_svg_rect_count_and_structure(self, tmp_path, setup):
        params, window, wide = setup
        amap = av.extract_attention(window, wide, params, TOY, layer=0)
        path = av.export_heatmap(amap, window.signal[1], tmp_path / "m.svg", fmt="svg")
        text = path.read_text()
        heat = text.split('<g id="heatmap">')[1].split("</g>")[0]
        assert heat.count("<rect ") == 3 * 3
        assert text.count("<polyline ") == 1
        assert 'version="1.1"' in text

    def test_files_byte_deterministic(self, tmp_path, setup):
        params, window, wide = setup
        amap = av.extract_attention(window, wide, params, TOY, layer=0)
        for fmt in ("pgm", "svg", "csv"):
            p1 = av.export_heatmap(amap, window.signal[1], tmp_path / f"a.{fmt}", fmt=fmt)
            p2 = av.export_heatmap(amap, window.signal[1], tmp_path / f"b.{fmt}", fmt=fmt)
            assert p1.read_bytes() == p2.read_bytes()

    def test_filename_convention(self):
        assert av.attention_filename("rec7", 11, "mean", "pgm") == "rec7_L11_mean.pgm"
        assert av.attention_filename("rec7", 0, "head3", "svg") == "rec7_L0_head3.svg"
