"""LTE turbo codec library.

Encoder, QPP interleaver, SISO component decoder with four selectable
max* kernels, iterative turbo decoder, AWGN link simulation and
operation-count accounting.  The `turbosim` command line (lteturbo.cli)
runs BER sweeps, throughput reports and interleaver dumps.
"""

from .channel import (ChannelConfig, block_rng, bpsk_modulate, llr_demap,
                      serialize_codeword, split_llrs)
from .maxstar import METRIC_NEG_INF, MaxStarMode, max_star, max_star_reduce
from .qpp import (QppParams, block_sizes, inverse_permutation,
                  params_for_block_size, permutation, qpp_index)
from .siso import (OpCounts, SisoInput, SisoResult, StageTimes,
                   compute_branch_metrics, quantize_llrs, siso_decode,
                   track_metric_allocations, track_stage_times)
from .trellis import CodeWord, TrellisEdge, rsc_encode, turbo_encode
from .turbo import (DecodeResult, DecoderConfig, McResult, run_monte_carlo,
                    simulate_blocks, turbo_decode)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig", "block_rng", "bpsk_modulate", "llr_demap",
    "serialize_codeword", "split_llrs",
    "METRIC_NEG_INF", "MaxStarMode", "max_star", "max_star_reduce",
    "QppParams", "block_sizes", "inverse_permutation", "params_for_block_size",
    "permutation", "qpp_index",
    "OpCounts", "SisoInput", "SisoResult", "StageTimes",
    "compute_branch_metrics", "quantize_llrs", "siso_decode",
    "track_metric_allocations", "track_stage_times",
    "CodeWord", "TrellisEdge", "rsc_encode", "turbo_encode",
    "DecodeResult", "DecoderConfig", "McResult", "run_monte_carlo",
    "simulate_blocks", "turbo_decode",
]
