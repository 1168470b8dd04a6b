import hashlib
import json
import struct
import time

import numpy as np
import pytest
from hypothesis import settings

from regiondeblur.classifier import (
    TrainConfig,
    TrainingSample,
    build_small_resnet,
    save_model,
    train,
)
from regiondeblur.demodata import (
    eval_scene,
    flat_patch,
    random_motion_kernel,
    smooth_ramp,
    stripe_texture,
    textured_scene,
)
from regiondeblur.estimator import EstimatorConfig, estimate_kernel
from regiondeblur.imagecore import Kernel, write_image, write_kernel
from regiondeblur.kernelsim import kernel_similarity
from regiondeblur.synthesis import NoiseModel, blur_image, generate_corpus

settings.register_profile("repo", deadline=None, max_examples=50)
settings.load_profile("repo")

ROUNDTRIP_SIDES = [9, 11, 13, 15, 9, 11, 13, 15, 9, 13]

# build seconds per session fixture, for tests that report wall-clock budgets
FIXTURE_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="session")
def roundtrip_cases():
    """Ten noiseless blind round trips on textured scenes, shared by tests
    that probe estimator quality from different angles."""
    t0 = time.perf_counter()
    cases = []
    for i, side in enumerate(ROUNDTRIP_SIDES):
        sharp = textured_scene(128, seed=100 + i)
        true_kernel = random_motion_kernel(side, seed=200 + i)
        blurred = blur_image(sharp, true_kernel, NoiseModel(sigma=0.0, seed=0))
        estimate = estimate_kernel(blurred, EstimatorConfig(kernel_size=side))
        cases.append({
            "side": side,
            "true_kernel": true_kernel,
            "estimate": estimate,
            "similarity": kernel_similarity(estimate.kernel, true_kernel),
        })
    FIXTURE_SECONDS["roundtrip_cases"] = time.perf_counter() - t0
    return cases


@pytest.fixture(scope="session")
def wide_kernel_corpus(tmp_path_factory):
    """One 96 px scene blurred by an 11 x 15 kernel, a horizontal sweep that
    wiggles up and down: only a square estimate of side 15 can hold it."""
    root = tmp_path_factory.mktemp("wide_kernel_corpus")
    weights = np.zeros((11, 15))
    for col in range(1, 14):
        weights[5 + round(3 * np.sin(col / 2.5)), col] = 1.0 + 0.1 * col
    (root / "sharp").mkdir()
    (root / "kernels").mkdir()
    write_image(eval_scene(96, seed=7), root / "sharp" / "scene.pgm")
    write_kernel(Kernel(weights / weights.sum()), root / "kernels" / "wide.txt")
    return generate_corpus(root / "sharp", root / "kernels", NoiseModel(sigma=1.0, seed=5),
                           root / "corpus")


def _patch_families(count: int, seed_base: int):
    """Deterministic mix of textured, striped, and featureless 64px patches."""
    rng = np.random.default_rng(seed_base)
    patches = []
    kinds = []
    for i in range(count):
        kind = i % 5
        if kind in (0, 1):
            patches.append(textured_scene(64, seed=seed_base + i, blobs=18))
            kinds.append("texture")
        elif kind == 2:
            period = 2 + (i // 5) % 3
            patches.append(stripe_texture(64, period=period, horizontal=bool(i % 2)))
            kinds.append("stripes")
        elif kind == 3:
            patches.append(flat_patch(64, 0.2 + 0.6 * ((i // 5) % 7) / 6))
            kinds.append("flat")
        else:
            lo = 0.3 + 0.1 * rng.uniform()
            patches.append(smooth_ramp(64, lo, lo + 0.25))
            kinds.append("ramp")
    return patches, kinds


@pytest.fixture(scope="session")
def acceptance_dataset():
    """400 labeled blurred patches: similarity of the blind estimate against
    the true kernel, thresholded at the median so classes balance 1:1."""
    t0 = time.perf_counter()
    patches, kinds = _patch_families(400, seed_base=1000)
    samples = []
    for i, (patch, kind) in enumerate(zip(patches, kinds)):
        side = (9, 11, 13)[i % 3]
        true_kernel = random_motion_kernel(side, seed=3000 + i)
        blurred = blur_image(patch, true_kernel, NoiseModel(sigma=1.0, seed=4000 + i))
        estimate = estimate_kernel(blurred, EstimatorConfig(kernel_size=side))
        sim = 0.0 if estimate.degenerate else kernel_similarity(estimate.kernel, true_kernel)
        samples.append({"patch": blurred, "similarity": sim, "kind": kind})
    threshold = float(np.median([s["similarity"] for s in samples]))
    labeled = [
        TrainingSample(patch=s["patch"], label=int(s["similarity"] >= threshold))
        for s in samples
    ]
    FIXTURE_SECONDS["acceptance_dataset"] = time.perf_counter() - t0
    return {"samples": labeled, "threshold": threshold, "kinds": kinds}


@pytest.fixture(scope="session")
def trained_model(acceptance_dataset):
    """Classifier trained on the first 320 samples; the last 80 are held out."""
    samples = acceptance_dataset["samples"]
    train_set, held_out = samples[:320], samples[320:]
    net = build_small_resnet(seed=11, input_side=64)
    cfg = TrainConfig(learning_rate=0.001, momentum=0.9, batch_size=32, epochs=20,
                      seed=17, input_side=64)
    t0 = time.perf_counter()
    result = train(net, train_set, cfg)
    FIXTURE_SECONDS["trained_model"] = time.perf_counter() - t0
    return {"net": result.network, "epochs": result.epochs, "config": cfg,
            "train_set": train_set, "held_out": held_out}


def _drop_stem_stride(header, payload):
    del header["layers"][0]["stride"]
    return header, payload


def _string_kernel_size(header, payload):
    header["layers"][0]["kernel_size"] = "7"
    return header, payload


def _even_kernel_size(header, payload):
    header["layers"][0]["kernel_size"] = 8
    return header, payload


def _string_layers(header, payload):
    header["layers"] = "conv"
    return header, payload


def _huge_stem(header, payload):
    header["layers"][0]["out_channels"] = 2 ** 40  # weights alone would take 392 TiB
    return header, payload


def _huge_head(header, payload):
    header["layers"][-1]["in_features"] = 2 ** 62  # more bytes than a 64-bit address space
    return header, payload


def _payload_short(header, payload):
    header["param_count"] -= 1
    return header, payload[:-8]


def _payload_long(header, payload):
    header["param_count"] += 1
    return header, payload + bytes(8)


# Each edit rewrites a valid model's header and payload; the checksum is
# recomputed, so only the edit itself makes the model malformed.
MALFORMED_MODEL_EDITS = {
    "layer-field-missing": _drop_stem_stride,
    "kernel-size-string": _string_kernel_size,
    "header-is-list": lambda header, payload: ([header], payload),
    "layers-is-string": _string_layers,
    "even-kernel-size": _even_kernel_size,
    "payload-8-bytes-short": _payload_short,
    "payload-8-bytes-long": _payload_long,
    "stem-2**40-channels": _huge_stem,
    "head-2**62-features": _huge_head,
}


@pytest.fixture(params=sorted(MALFORMED_MODEL_EDITS))
def malformed_model(request, tmp_path):
    """Path of a saved 16 px model whose header one edit made malformed."""
    path = tmp_path / "model.bin"
    save_model(build_small_resnet(seed=0, input_side=16), path)
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, 12)
    header = json.loads(data[20:20 + header_len])
    header, payload = MALFORMED_MODEL_EDITS[request.param](header, data[20 + header_len:])
    if isinstance(header, dict):
        header["sha256"] = hashlib.sha256(payload).hexdigest()
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:12] + struct.pack("<Q", len(blob)) + blob + payload)
    return path
