"""The polar source-resolvability codec, exactly.

Profiles a Bern(0.3) source across block lengths, shows the three encoding
tiers, and evaluates the exact distance between the encoder's output law and
the i.i.d. target.  At these tiny block lengths the distance is large and
(at beta = 0.25) grows with N: polarization thresholds need far longer
blocks before the asymptotics bite.  The seed rate already tracks H(X).
"""

import numpy as np

from macresolve import Dist, compute_profile, make_rng
from macresolve.polar import encode_batch, output_pmf_exact, profile_to_csv
from macresolve.probcore import all_bit_rows

source = Dist.bernoulli(0.3)
h_x = 0.8812908992306927

for n in (2, 3, 4):
    block = 1 << n
    code = compute_profile(source, n, beta=0.25)
    weights = all_bit_rows(block).sum(axis=1)
    target = 0.3 ** weights * 0.7 ** (block - weights)
    tv = np.abs(output_pmf_exact(code) - target).sum()
    print(f"N={block:3d}: seed {code.seed_len:2d} bits (rate "
          f"{code.seed_len / block:.3f} vs H(X)={h_x:.3f}), "
          f"middle {code.local_randomness_bits} bits, exact distance {tv:.4f}")

# one encoded block, seeded explicitly
code = compute_profile(source, 3)
rng = make_rng(7)
seed = rng.integers(0, 2, code.seed_len, dtype=np.uint8)
print("seed   :", seed)
print("block  :", encode_batch(code, seed[None], rng)[0])

profile_to_csv(code, "profile_bern03_n8.csv")
print("wrote profile_bern03_n8.csv (index, cond_entropy, in_v_set, in_h_set)")
