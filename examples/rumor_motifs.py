#!/usr/bin/env python3
"""Rumor-spread motif tracking on a social message stream.

The paper's other motivating scenario (Sec. I): "message transmission on a
social network can be modeled as a dynamic graph, and CSM can be used to
detect the spread of rumors."  Rumor-diffusion research characterizes
cascades by their local wiring motifs — e.g. densely-triangulated spread
(echo chambers) versus broadcast stars.

This example streams message edges into a social graph and continuously
tracks the *distinct subgraph* counts (embeddings / |Aut|) of all connected
size-4 motifs, comparing the GCSM engine against the zero-copy baseline on
the same stream — reproducing, at example scale, the system comparison of
the paper's road-network experiment (Fig. 11, where wildcard motifs are the
workload).
"""

from repro.core.baselines import make_system
from repro.graphs.generators import powerlaw_graph
from repro.graphs.stream import derive_stream
from repro.query import motifs
from repro.query.symmetry import automorphism_count
from repro.utils import format_time_ns


def main() -> None:
    social = powerlaw_graph(6_000, 8.0, max_degree=120, num_labels=1, seed=23)
    g0, batches = derive_stream(social, update_fraction=0.06, batch_size=64, seed=23)
    print(f"social graph: {social}")

    size4 = motifs(4)
    print(f"tracking {len(size4)} connected size-4 motifs over "
          f"{min(4, len(batches))} message batches\n")

    header = f"{'motif':>10} {'edges':>5} {'|Aut|':>5} {'Δsubgraphs':>12} " \
             f"{'GCSM':>10} {'ZC':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))

    for motif in size4:
        gcsm = make_system("GCSM", g0, motif, seed=29)
        zc = make_system("ZC", g0, motif, seed=29)
        delta_embeddings = 0
        gcsm_ns = zc_ns = 0.0
        for batch in batches[:4]:
            r1 = gcsm.process_batch(batch)
            r2 = zc.process_batch(batch)
            assert r1.delta_count == r2.delta_count  # same answer, different data path
            delta_embeddings += r1.delta_count
            gcsm_ns += r1.breakdown.total_ns
            zc_ns += r2.breakdown.total_ns
        aut = automorphism_count(motif)
        assert delta_embeddings % aut == 0, "embedding orbit counts must divide evenly"
        print(
            f"{motif.name:>10} {motif.num_edges:>5} {aut:>5} "
            f"{delta_embeddings // aut:>+12d} "
            f"{format_time_ns(gcsm_ns):>10} {format_time_ns(zc_ns):>10} "
            f"{zc_ns / gcsm_ns:>7.2f}x"
        )

    print("\nΔsubgraphs = net change in *distinct* motif occurrences "
          "(embeddings divided by the motif's automorphism count).")


if __name__ == "__main__":
    main()
