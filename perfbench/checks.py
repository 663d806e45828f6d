"""Output checks. Every SNR point, rate point, bound point, selection run
and codebook run is one op; an op fails if any check on it fails.

Reference values (reference.json) were recorded at REFERENCE_SEED from
the unoptimised code. Seed-independent outputs (bounds, cliques,
distances) are compared on every seed; BER counts and rates only at the
reference seed. Invariants hold for any seed, and every op must give the
same output in every pass of a run.
"""

import math

BPSK_KEY = "ofdmbpsk"


def bpsk_rayleigh_ber(snr_db):
    """Exact BER of BPSK over Rayleigh fading with ML detection."""
    g = 10.0 ** (snr_db / 10.0)
    return 0.5 * (1.0 - math.sqrt(g / (1.0 + g)))


class Checker:
    def __init__(self, reference, seed):
        self.ops = reference["ops"]
        self.seeded = seed == reference["seed"]
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ops):
        for op_id, kind, value in ops:
            self.attempted += 1
            problems = self._problems(op_id, kind, value)
            if op_id in self.first and self.first[op_id] != value:
                problems.append("output differs from the run's first pass")
            self.first.setdefault(op_id, value)
            if problems:
                self.failed += 1
                self.problems += [f"{op_id}: {p}" for p in problems]

    def _problems(self, op_id, kind, v):
        if kind == "error":
            return ["raised"]
        ref = self.ops.get(op_id)
        out = []
        if kind == "ber":
            if not v["converged"]:
                out.append("did not reach min_errors")
            if v["key"] == BPSK_KEY:
                p = bpsk_rayleigh_ber(v["snr_db"])
                sigma = math.sqrt(p * (1.0 - p) / v["bits_sent"])
                if abs(v["bit_errors"] / v["bits_sent"] - p) > 3.0 * sigma:
                    out.append(f"BPSK BER off the closed form {p:.6g} by more than 3 sigma")
            if self.seeded:
                keys = ("blocks", "bit_errors", "index_bit_errors", "mod_bit_errors")
                if ref is None or any(v[k] != ref[k] for k in keys):
                    out.append(f"counts {[v[k] for k in keys]} differ from reference")
        elif kind == "rate":
            if not 0.0 <= v["rate"] <= v["max_rate"]:
                out.append(f"rate {v['rate']} outside [0, f/n={v['max_rate']}]")
            if self.seeded:
                if ref is None:
                    out.append("no reference")
                else:
                    tol = 3.0 * math.hypot(v["stderr"], ref["stderr"])
                    if abs(v["rate"] - ref["rate"]) > tol:
                        out.append(f"rate {v['rate']} not within 3 stderr of {ref['rate']}")
        elif kind == "bound":
            if ref is None or not math.isclose(v["ber_bound"], ref["ber_bound"], rel_tol=1e-9):
                out.append(f"bound {v['ber_bound']} differs from reference")
        elif kind == "select":
            if not v["is_clique"]:
                out.append("result is not a clique")
            if not v["settled"]:
                out.append("search budget ran out")
            if ref is None or (v["size"], v["bound"]) != (ref["size"], ref["bound"]):
                out.append(f"size/bound {v['size']}/{v['bound']} differ from reference")
        elif kind == "codebook":
            if ref is None:
                out.append("no reference")
            else:
                d, r = v["dmin"], ref["dmin"]
                if not (math.isclose(d[0], r[0], rel_tol=1e-9)
                        and math.isclose(d[1], r[1], rel_tol=1e-9) and d[2] == r[2]):
                    out.append(f"codebook_dmin {d} differs from reference {r}")
                if v["export_sha256"] != ref["export_sha256"]:
                    out.append("exported codebook differs from reference")
        return out
