"""Metric names, units and the layer-to-end-to-end predictions of the benchmark.

This module is the one list the benchmark prints from; BENCHMARK.json at the
repository root names the same metrics (test_bench.py checks that they agree).
Each per-layer entry records which end-to-end metric it is predicted to move,
on which workload, so that a performance change can cite the names here.
"""

from __future__ import annotations

WORKLOADS = ("dna_single", "pair_cli", "index_roundtrip")

# measures one dna_single iteration runs: (kernels function, extra arguments)
SINGLE_MEASURES = (
    ("kmer_complexity", (12,)),
    ("substring_complexity", ()),
    ("kmer_profile", (1, 12, 1, 4)),
    ("entropy_range", (0, 8)),
    ("maw_count", ()),
    ("kl_divergence_range", (2, 8)),
)

# kernels functions the pair_cli command reaches, in --kind order
PAIR_KERNELS = (
    "kmer_kernel",
    "substring_kernel",
    "weighted_substring_kernel",
    "d2star_distance",
    "markov_kernel",
    "maw_jaccard",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "index_bytes_per_symbol": "B/symbol",
}

# name -> (unit, prediction)
PER_LAYER: dict[str, tuple[str, str]] = {
    "text.load_input_s": ("s", "wall_s on pair_cli and index_roundtrip; 0 on dna_single"),
    "text.map_alphabet_s": ("s", "wall_s on pair_cli and index_roundtrip; 0 on dna_single"),
    "suffix.suffix_array_s": ("s", "setup_s on every workload; wall_s on index_roundtrip"),
    "suffix.build_bwt_s": ("s", "setup_s on every workload; wall_s on index_roundtrip"),
    "suffix.dump_s": ("s", "wall_s on index_roundtrip only"),
    "suffix.load_s": ("s", "wall_s on index_roundtrip only"),
    "wavelet.build_s": ("s", "setup_s on every workload; largest share at sigma=20"),
    "wavelet.range_distinct_calls": ("count", "wall_s on dna_single and pair_cli; 0 on index_roundtrip"),
    "wavelet.range_distinct_s": ("s", "wall_s on dna_single and pair_cli"),
    "wavelet.range_distinct_per_visit": ("count", "wall_s on dna_single and pair_cli"),
    "wavelet.rank_calls": ("count", "wall_s on index_roundtrip through the LF walk; 0 on dna_single"),
    "wavelet.rank_s": ("s", "wall_s on index_roundtrip"),
    "enumerate.passes": ("count", "wall_s on dna_single and pair_cli; 6 on each at the seed"),
    "enumerate.right_maximal_visits": ("count", "wall_s on dna_single"),
    "enumerate.right_maximal_us_per_visit": ("us", "wall_s on dna_single"),
    "enumerate.right_maximal_peak_frames": ("count", "wall_s on dna_single"),
    "enumerate.generalized_visits": ("count", "wall_s on pair_cli"),
    "enumerate.generalized_us_per_visit": ("us", "wall_s on pair_cli"),
    "enumerate.generalized_peak_frames": ("count", "wall_s on pair_cli"),
}
for _fn, _ in SINGLE_MEASURES:
    PER_LAYER[f"kernels.{_fn}_s"] = ("s", "wall_s on dna_single")
    PER_LAYER[f"kernels.{_fn}_fold_s"] = ("s", "wall_s on dna_single")
for _fn in PAIR_KERNELS:
    PER_LAYER[f"kernels.{_fn}_s"] = ("s", "wall_s on pair_cli")
    PER_LAYER[f"kernels.{_fn}_fold_s"] = ("s", "wall_s on pair_cli")
PER_LAYER.update(
    {
        "cli.startup_s": ("s", "wall_s on pair_cli and index_roundtrip"),
        "cli.self_s": ("s", "wall_s on pair_cli and index_roundtrip"),
        "trace.overhead_frac": ("frac", "none: cost of tracing, traced over untraced wall time minus 1"),
        "trace.coverage_frac": ("frac", "none: share of the traced iteration that layer spans cover"),
        "failed_frac": ("frac", "none: failed over attempted operations, 0 on a correct program"),
    }
)
