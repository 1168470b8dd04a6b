"""Deblurring quality metrics and whole-pipeline benchmark runs.

The headline metric is the error ratio: reconstruction error of the latent
image recovered with an estimated kernel divided by the error of the one
recovered with the true kernel. A ratio of 1 means the estimate deblurs as
well as the ground truth; the success curve reports what fraction of images
stay under each ratio threshold between 1 and 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateDenominatorError, DimensionError, RegionDeblurError, ValidationError
# perfbench's tracer test reads `evaluation.solve_latent`, so the name stays here.
from .estimator import EstimatorConfig, deconvolve, estimate_kernel, solve_latent  # noqa: F401
from .imagecore import Image, read_image, read_kernel
from .kernelsim import kernel_similarity
from .selector import score_patches
from .synthesis import CorpusManifest, PatchGridSpec, PatchRef, derive_seed, extract, patch_grid

EVAL_CSV_HEADER = "image_id,method,ER,PSNR_dB,similarity,patch_row,patch_col,status"
EVAL_METHODS = ("top", "random", "whole", "center", "gt")
_CURVE_STEPS = 41
_EPS = float(np.finfo(np.float64).eps)


def _interior(arr: np.ndarray, margin: int) -> np.ndarray:
    if margin < 0:
        raise ValidationError(f"margin must be non-negative, got {margin}")
    if margin == 0:
        return arr
    if arr.shape[0] <= 2 * margin or arr.shape[1] <= 2 * margin:
        raise DimensionError(f"margin {margin} leaves no interior in a {arr.shape} image")
    return arr[margin:arr.shape[0] - margin, margin:arr.shape[1] - margin]


def align_to_reference(image: Image, reference: Image, margin: int) -> Image:
    """Register ``image`` against ``reference`` by the best integer shift.

    Blind estimation recovers a kernel only up to translation, so a recovered
    latent image carries an unknown global shift; scored raw, the metric would
    measure that shift instead of restoration quality. The search covers all
    shifts of at most ``margin`` per axis and keeps the one with the smallest
    squared error inside a ``margin``-wide border, so pixels wrapped around
    by the shift never enter the comparison.

    Every shift's squared error is first approximated at once: window energy
    from a summed-area table of ``image**2``, cross term from one FFT
    correlation with the reference interior. Only shifts whose approximation
    lies within twice the rounding bound of the smallest are summed exactly,
    in row-major shift order with a strict ``<``, so the first exact minimum
    always wins.
    """
    if image.shape != reference.shape:
        raise DimensionError(f"shape mismatch: {image.shape} vs {reference.shape}")
    ref = _interior(reference.pixels, margin)
    if margin == 0:
        return image
    px = image.pixels
    h, w = ref.shape
    span = 2 * margin + 1
    # Shift (dy, dx) compares the h x w window of px at (margin - dy,
    # margin - dx) with ref. `energy` and `cross` are indexed by window
    # corner; flipped, index (i, j) is shift (i - margin, j - margin).
    sq = np.zeros((px.shape[0] + 1, px.shape[1] + 1))
    sq[1:, 1:] = np.cumsum(np.cumsum(px * px, axis=0), axis=1)
    energy = (sq[h:h + span, w:w + span] - sq[:span, w:w + span]
              - sq[h:h + span, :span] + sq[:span, :span])
    spectrum = np.fft.rfft2(px) * np.conj(np.fft.rfft2(ref, s=px.shape))
    cross = np.fft.irfft2(spectrum, s=px.shape)[:span, :span]
    ref_energy = float(np.sum(ref * ref))
    approx = (energy - 2.0 * cross + ref_energy)[::-1, ::-1]
    # Each approximation and each exact np.sum lies within `slack` of the true
    # squared error: no step adds more than px.size rounded terms, each
    # bounded by twice the total energy, and the FFT's error grows only with
    # log(px.size). Only shifts within 2 * slack of the smallest approximation
    # can hold the exact minimum; a non-finite value keeps every shift.
    slack = 8.0 * (px.size + 2) * _EPS * (float(sq[-1, -1]) + ref_energy)
    if np.all(np.isfinite(approx)) and math.isfinite(slack):
        near = approx <= approx.min() + 2.0 * slack
    else:
        near = np.ones(approx.shape, dtype=bool)
    best_ssd = math.inf
    best_shift = (0, 0)
    for i, j in zip(*np.nonzero(near)):
        dy, dx = int(i) - margin, int(j) - margin
        window = px[margin - dy:margin - dy + h, margin - dx:margin - dx + w]
        ssd = float(np.sum((window - ref) ** 2))
        if ssd < best_ssd:
            best_ssd = ssd
            best_shift = (dy, dx)
    return Image(np.roll(px, best_shift, axis=(0, 1)))


def error_ratio(estimated: Image, reference: Image, baseline: Image, margin: int = 0) -> float:
    """Squared-error ratio of two reconstructions over the interior region.

    The numerator compares ``estimated`` to ``reference``, the denominator
    ``baseline`` to ``reference``; both drop a ``margin``-wide border first.
    """
    if estimated.shape != reference.shape or baseline.shape != reference.shape:
        raise DimensionError(
            f"shape mismatch: {estimated.shape}, {reference.shape}, {baseline.shape}"
        )
    e = _interior(estimated.pixels, margin)
    r = _interior(reference.pixels, margin)
    b = _interior(baseline.pixels, margin)
    numerator = float(np.sum((e - r) ** 2))
    denominator = float(np.sum((b - r) ** 2))
    if denominator == 0.0:
        raise DegenerateDenominatorError(
            "baseline reconstruction matches the reference exactly; ratio is undefined"
        )
    return numerator / denominator


def psnr(image: Image, reference: Image) -> float:
    """Peak signal-to-noise ratio in dB against a unit dynamic range."""
    if image.shape != reference.shape:
        raise DimensionError(f"shape mismatch: {image.shape} vs {reference.shape}")
    mse = float(np.mean((image.pixels - reference.pixels) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def success_thresholds() -> list[float]:
    return [(10 + i) / 10 for i in range(_CURVE_STEPS)]


def success_curve(ratios) -> tuple[list[float], list[float]]:
    """Fraction of ratios at or under each threshold; NaN never succeeds."""
    values = [float(r) for r in ratios]
    if not values:
        raise ValidationError("no ratios to summarize")
    thresholds = success_thresholds()
    fractions = [
        sum(1 for v in values if not math.isnan(v) and v <= t) / len(values)
        for t in thresholds
    ]
    return thresholds, fractions


@dataclass(frozen=True)
class EvalRecord:
    image_id: str
    method: str
    error_ratio: float
    psnr_db: float
    similarity: float
    patch_row: int | None
    patch_col: int | None
    status: str


def _fmt(value: float) -> str:
    return repr(float(value))


def write_eval_csv(records, path) -> None:
    lines = [EVAL_CSV_HEADER]
    for rec in records:
        row = [
            rec.image_id,
            rec.method,
            _fmt(rec.error_ratio),
            _fmt(rec.psnr_db),
            _fmt(rec.similarity),
            "" if rec.patch_row is None else str(rec.patch_row),
            "" if rec.patch_col is None else str(rec.patch_col),
            rec.status,
        ]
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _interior_psnr(image: Image, reference: Image, margin: int) -> float:
    return psnr(Image(_interior(image.pixels, margin)), Image(_interior(reference.pixels, margin)))


def _region(method: str, blurred: Image, grid: PatchGridSpec, net, seed: int) -> PatchRef | None:
    """The patch ``method`` estimates from; None for ``whole``, the full image."""
    if method == "top":
        return score_patches(net, blurred, grid.stride)[0].ref
    if method == "random":
        refs = patch_grid(blurred, grid)
        return refs[int(np.random.default_rng(seed).integers(len(refs)))]
    if method == "center":
        size = grid.patch_size
        if size > blurred.height or size > blurred.width:
            raise DimensionError(f"patch {size} exceeds image {blurred.shape}")
        return PatchRef((blurred.height - size) // 2, (blurred.width - size) // 2, size)
    return None


def check_methods(methods) -> tuple[str, ...]:
    """The requested methods as a tuple; an empty, repeated or unknown one
    raises `ValidationError`."""
    methods = tuple(methods)
    if not methods:
        raise ValidationError("no evaluation methods requested")
    if len(set(methods)) != len(methods):
        raise ValidationError(f"evaluation methods must not repeat, got {','.join(methods)}")
    for m in methods:
        if m not in EVAL_METHODS:
            raise ValidationError(f"unknown evaluation method {m!r}")
    return methods


def evaluate_pipeline(manifest: CorpusManifest, grid: PatchGridSpec,
                      est_cfg: EstimatorConfig | None = None, *, net=None,
                      methods=EVAL_METHODS, master_seed: int = 0) -> list[EvalRecord]:
    """Benchmark kernel estimation from differently chosen regions.

    Methods: ``top`` (best patch by classifier score), ``random`` (seeded
    uniform patch), ``whole`` (full image), ``center`` (centered patch), and
    ``gt`` (true kernel, a control whose error ratio is 1 by construction).
    `_region` picks each method's patch; every estimate is made at the true
    kernel's longer side (`EstimatorConfig.for_kernel`), so ``est_cfg`` is
    unread; it stays because perfbench's ``deblur_unit`` passes one.
    Per-image failures become status rows instead of aborting the run.
    """
    methods = check_methods(methods)
    if "top" in methods and net is None:
        raise ValidationError("method 'top' needs a trained classifier")
    if "top" in methods and grid.patch_size != net.input_side:
        raise ValidationError(f"patch size {grid.patch_size} differs from the side {net.input_side} "
                              "that 'top' scores at; every method's patches must be one size")
    if not manifest.entries:
        raise ValidationError("corpus manifest has no entries")

    records: list[EvalRecord] = []
    for index, entry in enumerate(manifest.entries):
        image_id = Path(entry.blurred_path).stem
        blurred = read_image(manifest.resolve(entry.blurred_path))
        sharp = read_image(manifest.resolve(entry.sharp_path))
        true_kernel = read_kernel(manifest.resolve(entry.kernel_path))
        margin = max(true_kernel.side_h, true_kernel.side_w) // 2
        try:  # every method scores against the baseline
            baseline = align_to_reference(deconvolve(blurred, true_kernel), sharp, margin)
        except RegionDeblurError as exc:
            baseline = exc

        for method in methods:
            try:
                if isinstance(baseline, RegionDeblurError):
                    raise baseline
                if method == "gt":
                    ref, recovered, similarity, status = None, baseline, 1.0, "ok"
                else:
                    cfg = EstimatorConfig.for_kernel(true_kernel)
                    ref = _region(method, blurred, grid, net, derive_seed(master_seed, index))
                    estimate = estimate_kernel(blurred if ref is None else extract(blurred, ref), cfg)
                    recovered = align_to_reference(deconvolve(blurred, estimate.kernel), sharp, margin)
                    similarity = kernel_similarity(estimate.kernel, true_kernel)
                    status = "degenerate" if estimate.degenerate else "ok"
                scores = (error_ratio(recovered, sharp, baseline, margin),
                          _interior_psnr(recovered, sharp, margin), similarity)
                corner = (None, None) if ref is None else (ref.row0, ref.col0)
            except RegionDeblurError as exc:
                scores, corner, status = (math.nan,) * 3, (None, None), f"error:{type(exc).__name__}"
            records.append(EvalRecord(image_id, method, *scores, *corner, status))
    return records


_SVG_COLORS = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#e67e22")


def write_success_curve_svg(curves: dict, path) -> None:
    """Plot one success curve per method as a standalone SVG document.

    ``curves`` maps method name to (thresholds, fractions). The raw numbers
    are embedded in a metadata block so the figure doubles as a data file.
    """
    if not curves:
        raise ValidationError("no curves to plot")
    width, height = 480, 320
    left, right, top, bottom = 50, 16, 16, 40
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(t: float) -> float:
        return left + (t - 1.0) / 4.0 * plot_w

    def sy(f: float) -> float:
        return top + (1.0 - f) * plot_h

    names = sorted(curves)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<metadata>",
        "threshold," + ",".join(names),
    ]
    thresholds = curves[names[0]][0]
    for i, t in enumerate(thresholds):
        row = [f"{t:.1f}"] + [repr(float(curves[n][1][i])) for n in names]
        lines.append(",".join(row))
    lines.append("</metadata>")
    lines.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    lines.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        lines.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" font-size="10" text-anchor="end">{frac:g}</text>'
        )
    for t in (1.0, 2.0, 3.0, 4.0, 5.0):
        x = sx(t)
        lines.append(
            f'<text x="{x:.1f}" y="{height - bottom + 14}" font-size="10" '
            f'text-anchor="middle">{t:g}</text>'
        )
    lines.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" font-size="11" '
        'text-anchor="middle">error-ratio threshold</text>'
    )
    for ci, name in enumerate(names):
        ts, fs = curves[name]
        color = _SVG_COLORS[ci % len(_SVG_COLORS)]
        points = " ".join(f"{sx(t):.2f},{sy(f):.2f}" for t, f in zip(ts, fs))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = top + 14 + 14 * ci
        lines.append(
            f'<line x1="{left + 8}" y1="{ly - 4}" x2="{left + 28}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(f'<text x="{left + 33}" y="{ly}" font-size="11">{name}</text>')
    lines.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
