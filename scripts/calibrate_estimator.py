"""Measure blind round-trip quality on seeded noiseless scenes.

This is the calibration source for the round-trip acceptance bar: it blurs
textured scenes with known motion kernels, re-estimates each kernel blind,
and prints the similarity scores. Rerun it after estimator changes to see
whether the frozen threshold still has margin.
"""

import argparse

from regiondeblur.demodata import random_motion_kernel, textured_scene
from regiondeblur.estimator import EstimatorConfig, estimate_kernel
from regiondeblur.kernelsim import kernel_similarity
from regiondeblur.synthesis import NoiseModel, blur_image

SIDES = (9, 11, 13, 15, 9, 11, 13, 15, 9, 13)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--image-side", type=int, default=128)
    ap.add_argument("--sigma", type=float, default=0.0, help="noise std on the 0-255 scale")
    ap.add_argument("--scene-seed", type=int, default=100)
    ap.add_argument("--kernel-seed", type=int, default=200)
    args = ap.parse_args()

    sims = []
    for i, side in enumerate(SIDES):
        sharp = textured_scene(args.image_side, seed=args.scene_seed + i)
        true_kernel = random_motion_kernel(side, seed=args.kernel_seed + i)
        blurred = blur_image(sharp, true_kernel, NoiseModel(sigma=args.sigma, seed=i))
        estimate = estimate_kernel(blurred, EstimatorConfig(kernel_size=side))
        sim = kernel_similarity(estimate.kernel, true_kernel)
        sims.append(sim)
        flag = " degenerate" if estimate.degenerate else ""
        print(f"case {i}: {side}x{side} kernel, similarity {sim:.4f}{flag}")

    sims.sort()
    print(f"min {sims[0]:.4f}  median {sims[len(sims) // 2]:.4f}  max {sims[-1]:.4f}")
    print(f"at least 8/10 over 0.8: {'yes' if sum(s >= 0.8 for s in sims) >= 8 else 'NO'}")


if __name__ == "__main__":
    main()
