"""Take a field apart by frequency octave and put it back together.

The dyadic partition slices a field into blocks Delta_q f supported on
frequency annuli |n| ~ 2^q.  This script prints the block spectrum of a
random field, checks the partition identities, measures the Bernstein
ratio |grad Delta_q f| / (2^q |Delta_q f|) block by block, and splits a
product into its two paraproducts and remainder.

Run:  python3 demos/03_dyadic_toolkit.py
"""

import numpy as np

from nematicflow import (
    DyadicPartition,
    GridSpec,
    SpectralField,
    besov_norm,
    bony_split,
    gradient,
    l2_norm,
    product,
    random_scalar,
    vector_l2_norm,
)

grid = GridSpec(64)
partition = DyadicPartition(grid)
rng = np.random.default_rng(5)
f = random_scalar(grid, rng, decay=1.5, zero_mean=False)
g = random_scalar(grid, rng, decay=1.5, zero_mean=False)

print(f"N = {grid.n_modes}: blocks q = -1 .. {partition.q_max}\n")
print(f"{'q':>3} {'|Delta_q f|':>12} {'bernstein ratio':>16}")
blocks = partition.blocks(f)
for q, block in zip(partition.q_range, blocks):
    norm = l2_norm(block)
    ratio = vector_l2_norm(gradient(block)) / (2.0 ** q * norm)
    print(f"{q:3d} {norm:12.6f} {ratio:16.3f}")

recon = SpectralField.zero(grid)
for block in blocks:
    recon = recon + block
total = l2_norm(f)
sumsq = sum(l2_norm(b) ** 2 for b in blocks)
print(f"\nreconstruction residual |sum_q Delta_q f - f| = "
      f"{l2_norm(recon - f):.3e}")
print(f"block energy / total energy = {sumsq / total ** 2:.4f} "
      f"(quasi-orthogonality keeps this in [0.5, 1])")
print(f"Besov B^0_22 norm = {besov_norm(f, 0.0, 2, 2, partition):.6f}  "
      f"vs  L2 norm = {total:.6f}")

t_fg, t_gf, remainder = bony_split(f, g, partition)
fg = product(f, g)
print(f"\nparaproduct split of fg:")
print(f"  |T_f g| = {l2_norm(t_fg):.6f}, |T_g f| = {l2_norm(t_gf):.6f}, "
      f"|R(f,g)| = {l2_norm(remainder):.6f}")
print(f"  split residual = "
      f"{l2_norm(t_fg + t_gf + remainder - fg):.3e}")
