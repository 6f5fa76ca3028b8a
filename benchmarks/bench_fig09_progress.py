"""Fig. 9 — confirmed bytes over time, per server (DL vs HB-Link).

Paper shape to reproduce: with DispersedLedger every server advances at its
own pace (the per-server curves fan out), while with HoneyBadger-Link all
servers progress along nearly the same, slower curve.
"""

from conftest import bench_duration, report, sweep_entry

from repro.experiments.figures import progress_timelines


def _final(timeline):
    return timeline[-1][1] if timeline else 0


def test_fig09_progress_timelines(benchmark):
    duration = bench_duration()

    def run():
        return sweep_entry(
            "fig08-geo", grid={"protocol": ("dl", "hb-link")}, duration=duration
        )

    timelines = progress_timelines(benchmark.pedantic(run, rounds=1, iterations=1))

    lines = ["", f"=== Fig. 9: confirmed data over time ({duration:.0f}s virtual) ==="]
    for protocol, per_node in timelines.items():
        finals = [_final(t) for t in per_node]
        spread = (max(finals) - min(finals)) / 1e6
        lines.append(
            f"{protocol:>8}: final confirmed per server "
            f"min={min(finals)/1e6:.1f} MB  max={max(finals)/1e6:.1f} MB  spread={spread:.1f} MB"
        )
        # A coarse rendition of the figure: totals at quarters of the run.
        for quarter in (0.25, 0.5, 0.75, 1.0):
            cutoff = duration * quarter
            at_cutoff = [
                max((bytes_ for t, bytes_ in timeline if t <= cutoff), default=0)
                for timeline in per_node
            ]
            lines.append(
                f"          t={cutoff:5.1f}s  mean={sum(at_cutoff)/len(at_cutoff)/1e6:7.1f} MB  "
                f"min={min(at_cutoff)/1e6:7.1f}  max={max(at_cutoff)/1e6:7.1f}"
            )
    report(*lines)

    dl_finals = [_final(t) for t in timelines["dl"]]
    hb_finals = [_final(t) for t in timelines["hb-link"]]
    # DL servers fan out (decoupled); HB-Link servers bunch together.
    assert (max(dl_finals) - min(dl_finals)) > (max(hb_finals) - min(hb_finals))
    # Every DL server should confirm at least as much as the HB-Link pace
    # would eventually allow the fastest server (paper: "every node makes
    # more progress with DispersedLedger"), checked loosely on the mean.
    assert sum(dl_finals) >= sum(hb_finals)
