"""Length-adjustable polar codes with puncturing and repetition, and greedy
design plus Monte Carlo validation of incremental-redundancy transmission
schemes over the binary-input AWGN channel."""

__version__ = "0.1.0"

from .channel import (ChannelParams, LlrDistribution, LLR_CLAMP,
                      bawgn_capacity, channel_llr_distribution, noise_stream,
                      transmit)
from .codec import (PolarCodeSpec, RcpCode, polar_encode, rcp_encode,
                    sc_decode)
from .construct import (RepetitionPlan, build_repetition_plan, construct_rcp,
                        evaluate_bler)
from .design import (BlerCurve, HarqScheme, build_bler_curve, design_scheme,
                     throughput_estimate)
from .reliability import (ReliabilityTable, ga_evolve, pe_from_mean,
                          puncture_pattern, select_info_set)
from .simulate import SimReport, bler_monte_carlo, bound_check, run_campaign

__all__ = [
    "__version__",
    "ChannelParams", "LlrDistribution", "LLR_CLAMP", "bawgn_capacity",
    "channel_llr_distribution", "noise_stream", "transmit",
    "PolarCodeSpec", "RcpCode", "polar_encode", "rcp_encode", "sc_decode",
    "RepetitionPlan", "build_repetition_plan", "construct_rcp",
    "evaluate_bler",
    "BlerCurve", "HarqScheme", "build_bler_curve", "design_scheme",
    "throughput_estimate",
    "ReliabilityTable", "ga_evolve", "pe_from_mean", "puncture_pattern",
    "select_info_set",
    "SimReport", "bler_monte_carlo", "bound_check", "run_campaign",
]
