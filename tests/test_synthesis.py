import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regiondeblur import synthesis
from regiondeblur.demodata import eval_scene, random_motion_kernel, textured_scene
from regiondeblur.errors import DimensionError, ValidationError
from regiondeblur.imagecore import (
    Image,
    Kernel,
    convolve_direct,
    convolve_fft,
    read_image,
    write_image,
    write_kernel,
)
from regiondeblur.synthesis import (
    CorpusManifest,
    NoiseModel,
    PatchGridSpec,
    PatchRef,
    blur_image,
    derive_seed,
    extract,
    generate_corpus,
    map_jobs,
    patch_grid,
    splitmix64,
)


def test_splitmix64_known_vectors():
    # first outputs of the reference splitmix64 stream seeded at zero
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
    assert derive_seed(0, 2) == 0x06C45D188009454F


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValidationError):
        derive_seed(0, -1)


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 10_000))
def test_derive_seed_stays_64_bit(master, index):
    value = derive_seed(master, index)
    assert 0 <= value < 2 ** 64


def test_derive_seed_adjacent_indices_differ():
    seeds = {derive_seed(123, i) for i in range(100)}
    assert len(seeds) == 100


def test_noise_model_rejects_negative_sigma():
    with pytest.raises(ValidationError):
        NoiseModel(sigma=-1.0)


def test_blur_delta_no_noise_is_identity():
    img = textured_scene(32, seed=1)
    out = blur_image(img, Kernel.delta(3), NoiseModel(sigma=0.0, seed=0))
    assert np.array_equal(out.pixels, img.pixels)


def test_blur_noise_statistics():
    img = Image(np.full((256, 256), 0.5))
    out = blur_image(img, Kernel.delta(1), NoiseModel(sigma=4.0, seed=9))
    measured = float(np.std(out.pixels - 0.5))
    assert abs(measured - 4.0 / 255.0) / (4.0 / 255.0) < 0.05


def test_blur_noise_is_seeded():
    img = Image(np.full((16, 16), 0.5))
    a = blur_image(img, Kernel.delta(1), NoiseModel(sigma=4.0, seed=5))
    b = blur_image(img, Kernel.delta(1), NoiseModel(sigma=4.0, seed=5))
    c = blur_image(img, Kernel.delta(1), NoiseModel(sigma=4.0, seed=6))
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_blur_output_stays_in_unit_range():
    img = Image(np.full((32, 32), 0.9))
    out = blur_image(img, Kernel.delta(1), NoiseModel(sigma=80.0, seed=2))
    assert out.pixels.min() >= 0.0
    assert out.pixels.max() <= 1.0


def test_blur_interior_is_local():
    img = textured_scene(64, seed=3)
    k = random_motion_kernel(9, seed=4)
    half = 4
    full = blur_image(img, k, NoiseModel(sigma=0.0, seed=0))
    ref = PatchRef(20, 24, 16)
    window = Image(img.pixels[ref.row0 - half:ref.row0 + ref.size + half,
                              ref.col0 - half:ref.col0 + ref.size + half])
    local = convolve_direct(window, k).pixels[half:half + ref.size, half:half + ref.size]
    assert np.max(np.abs(extract(full, ref).pixels - local)) < 1e-10


def test_blur_image_is_the_fft_blur_plus_seeded_noise():
    img = eval_scene(64, seed=2)
    k = random_motion_kernel(11, seed=3)
    noise = NoiseModel(sigma=4.0, seed=21)
    conv = convolve_fft(img, k).pixels
    expected = np.clip(conv + np.random.default_rng(21).normal(0.0, 4.0 / 255.0, conv.shape), 0.0, 1.0)
    assert np.array_equal(blur_image(img, k, noise).pixels, expected)


@pytest.mark.parametrize("side", [64, 160, 384])
@pytest.mark.parametrize("ksize", [11, 15, 27])
def test_blur_image_matches_the_direct_route_before_noise(side, ksize):
    img = eval_scene(side, seed=side + ksize)
    k = random_motion_kernel(ksize, seed=ksize)
    blurred = blur_image(img, k, NoiseModel(sigma=0.0, seed=0)).pixels
    assert np.max(np.abs(blurred - convolve_direct(img, k).pixels)) <= 1e-14


def test_generate_corpus_writes_the_bytes_of_the_direct_route(tmp_path, monkeypatch):
    sharp_dir, kernel_dir = _make_inputs(tmp_path)
    write_image(eval_scene(96, seed=4), sharp_dir / "scene.pgm")
    write_kernel(random_motion_kernel(15, seed=5), kernel_dir / "k15.txt")
    generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=4.0, seed=6), tmp_path / "fft")
    monkeypatch.setattr(synthesis, "convolve_fft", convolve_direct)
    generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=4.0, seed=6), tmp_path / "direct")
    names = sorted(p.name for p in (tmp_path / "fft").glob("*.pfm"))
    assert len(names) == 9
    for name in names:
        assert (tmp_path / "fft" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


def test_patch_grid_counts_square():
    img = Image(np.zeros((450, 450)))
    refs = patch_grid(img, PatchGridSpec(patch_size=228, stride=20))
    assert len(refs) == 144


def test_patch_grid_counts_rectangular():
    img = Image(np.zeros((248, 268)))
    refs = patch_grid(img, PatchGridSpec(patch_size=228, stride=20))
    assert len(refs) == 6
    assert refs[0] == PatchRef(0, 0, 228)
    assert refs[1] == PatchRef(0, 20, 228)
    assert refs[3] == PatchRef(20, 0, 228)


def test_patch_grid_rejects_oversized_patch():
    img = Image(np.zeros((100, 100)))
    with pytest.raises(DimensionError):
        patch_grid(img, PatchGridSpec(patch_size=128, stride=20))


@given(st.integers(1, 40), st.integers(1, 15), st.integers(40, 120), st.integers(40, 120))
def test_patch_grid_count_formula(patch, stride, h, w):
    img = Image(np.zeros((h, w)))
    spec = PatchGridSpec(patch_size=patch, stride=stride)
    refs = patch_grid(img, spec)
    rows = (h - patch) // stride + 1
    cols = (w - patch) // stride + 1
    assert len(refs) == rows * cols
    assert all(r.row0 + patch <= h and r.col0 + patch <= w for r in refs)


def test_extract_copies_expected_window():
    img = Image(np.arange(36, dtype=float).reshape(6, 6) / 36)
    got = extract(img, PatchRef(1, 2, 3))
    assert np.array_equal(got.pixels, img.pixels[1:4, 2:5])


def test_extract_rejects_out_of_bounds():
    img = Image(np.zeros((6, 6)))
    with pytest.raises(ValidationError):
        extract(img, PatchRef(4, 4, 3))


def _make_inputs(root, n_sharp=2, n_kernels=2):
    sharp_dir = root / "sharp"
    kernel_dir = root / "kernels"
    sharp_dir.mkdir()
    kernel_dir.mkdir()
    for i in range(n_sharp):
        write_image(textured_scene(48, seed=i), sharp_dir / f"img{i}.pgm")
    for i in range(n_kernels):
        write_kernel(random_motion_kernel(11, seed=30 + i), kernel_dir / f"k{i}.txt")
    return sharp_dir, kernel_dir


def test_generate_corpus_pairs_every_sharp_with_every_kernel(tmp_path):
    sharp_dir, kernel_dir = _make_inputs(tmp_path)
    out = tmp_path / "corpus"
    manifest = generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=2.0, seed=5), out)
    assert len(manifest.entries) == 4
    for entry in manifest.entries:
        assert not entry.blurred_path.startswith("/")
        assert (out / entry.blurred_path).exists()
        img = read_image(manifest.resolve(entry.blurred_path))
        assert img.shape == (48, 48)


def test_generate_corpus_manifest_round_trip(tmp_path):
    sharp_dir, kernel_dir = _make_inputs(tmp_path)
    out = tmp_path / "corpus"
    manifest = generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=2.0, seed=5), out)
    loaded = CorpusManifest.load(out / "manifest.json")
    assert loaded.master_seed == manifest.master_seed
    assert [e.blurred_path for e in loaded.entries] == [e.blurred_path for e in manifest.entries]
    raw = json.loads((out / "manifest.json").read_text())
    assert raw["sigma_convention"] == "gaussian-std-on-0-255-scale"


def test_generate_corpus_is_deterministic(tmp_path):
    sharp_dir, kernel_dir = _make_inputs(tmp_path)
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=3.0, seed=8), out1)
    generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=3.0, seed=8), out2, jobs=2)
    for name in sorted(p.name for p in out1.iterdir()):
        if name.endswith(".pfm"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_corpus_seed_changes_noise(tmp_path):
    sharp_dir, kernel_dir = _make_inputs(tmp_path, n_sharp=1, n_kernels=1)
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    m1 = generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=3.0, seed=8), out1)
    m2 = generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=3.0, seed=9), out2)
    a = read_image(m1.resolve(m1.entries[0].blurred_path))
    b = read_image(m2.resolve(m2.entries[0].blurred_path))
    assert not np.array_equal(a.pixels, b.pixels)


def test_generate_corpus_rejects_empty_inputs(tmp_path):
    (tmp_path / "sharp").mkdir()
    (tmp_path / "kernels").mkdir()
    with pytest.raises(ValidationError):
        generate_corpus(tmp_path / "sharp", tmp_path / "kernels",
                        NoiseModel(), tmp_path / "corpus")


def test_generate_corpus_warns_on_unusual_kernel_size(tmp_path):
    sharp_dir, kernel_dir = _make_inputs(tmp_path, n_sharp=1, n_kernels=0)
    write_kernel(random_motion_kernel(9, seed=1), kernel_dir / "small.txt")
    with pytest.warns(UserWarning, match="outside"):
        generate_corpus(sharp_dir, kernel_dir, NoiseModel(sigma=0.0), tmp_path / "corpus")


def test_map_jobs_rejects_non_positive_jobs():
    with pytest.raises(ValidationError):
        map_jobs(abs, [1], 0)


@pytest.mark.parametrize("jobs, n_tasks, started", [
    (16, 3, [3]), (2, 5, [2]), (16, 1, []), (4, 0, []), (1, 5, []),
])
def test_map_jobs_starts_no_more_workers_than_tasks(monkeypatch, jobs, n_tasks, started):
    sizes = []

    class RecordingExecutor:
        """Records the pool size asked for and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(synthesis, "ProcessPoolExecutor", RecordingExecutor)
    assert map_jobs(abs, [-t for t in range(n_tasks)], jobs) == list(range(n_tasks))
    assert sizes == started
