"""Fig. 2 — per-node communication cost of AVID-M vs AVID-FP during dispersal.

Paper shape to reproduce: AVID-M stays within a small factor of the
``1/(N-2f)`` lower bound even at N = 128, while AVID-FP's cross-checksum
overhead grows quadratically and exceeds the size of the full block at
N ≈ 40 for 100 KB blocks (and ≈ 120 for 1 MB blocks).
"""

from conftest import report

from repro.experiments.figures import crossover_n, measure_avid_m_dispersal_cost, vid_cost_row


def test_fig02_vid_dispersal_cost():
    rows = [
        vid_cost_row(n, block_size)
        for block_size in (100_000, 1_000_000)
        for n in (4, 8, 16, 32, 64, 100, 128)
    ]
    measured = measure_avid_m_dispersal_cost(n=16, block_size=100_000)

    lines = [
        "",
        "=== Fig. 2: per-node dispersal cost, normalised by block size ===",
        f"{'N':>4} {'block':>9} {'AVID-M':>9} {'AVID-FP':>9} {'AVID':>9} {'bound':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['n']:>4} {row['block_size']:>9} {row['avid_m']:>9.3f} {row['avid_fp']:>9.3f} "
            f"{row['avid']:>9.3f} {row['lower_bound']:>9.3f}"
        )
    lines.append(
        f"measured AVID-M at N=16, 100 KB: {measured:.3f}x block size "
        "(message-level run, validates the model)"
    )
    lines.append(
        f"AVID-FP exceeds full-block download at N={crossover_n(100_000)} for 100 KB blocks "
        f"and N={crossover_n(1_000_000)} for 1 MB blocks (paper: ~40 and ~120)"
    )
    report(*lines)

    by_key = {(row["n"], row["block_size"]): row for row in rows}
    assert by_key[(128, 1_000_000)]["avid_m"] < 0.1
    assert by_key[(128, 100_000)]["avid_fp"] > 1.0
