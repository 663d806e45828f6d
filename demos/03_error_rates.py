#!/usr/bin/env python3
"""Monte-Carlo BER curves against the union bound.

Simulates the low-order scheme set over a coarse SNR grid and overlays the
closed-form union bound for the selected ordered-full book. Runs in about
a minute; raise MIN_ERRORS for smoother tails.
"""

from spmofdm import SimConfig, build_scheme, simulate_ber, union_bound_ber

GRID = (0.0, 10.0, 20.0, 30.0, 40.0)
MIN_ERRORS = 300
SEED = 20240501


def main():
    schemes = {
        "spm(4,2,2)": build_scheme("spm", 4, k=2, m=2, selection="alg1"),
        "ospm(4,2,2)": build_scheme("ospm", 4, k=2, m=2, selection="alg1"),
        "mm(2,2)": build_scheme("mm", 2, m=2),
        "dm(4,2)": build_scheme("dm", 4, m=2),
        "ofdm-im(4,2,4)": build_scheme("ofdm-im", 4, m=4, n_active=2),
        "ofdm(bpsk)": build_scheme("ofdm", 1, m=2),
        "ofspm(4,2)": build_scheme("ofspm", 4, m=2, selection="alg2"),
    }
    header = "scheme          rate  " + "  ".join(f"{s:>9.0f}dB" for s in GRID)
    print(header)
    print("-" * len(header))
    for name, scheme in schemes.items():
        cfg = SimConfig(scheme=scheme, snr_db_grid=GRID, min_bit_errors=MIN_ERRORS,
                        max_blocks=3_000_000, master_seed=SEED)
        rep = simulate_ber(cfg)
        cells = "  ".join(
            f"{p.ber:9.3e}" + ("" if p.converged else "!") for p in rep.points
        )
        print(f"{name:15s} {scheme.rate_bits_per_subcarrier:4.2f}  {cells}")

    ofspm = schemes["ofspm(4,2)"]
    bounds = [union_bound_ber(ofspm, 10 ** (s / 10)).ber_bound for s in GRID]
    print(f"{'bound ofspm':15s} {'':4s}  " + "  ".join(f"{b:9.3e}" for b in bounds))
    print("\n'!' marks points that hit the block budget before the error")
    print("target; the bound is tight only in the high-SNR region.")


if __name__ == "__main__":
    main()
