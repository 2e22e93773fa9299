"""Analog joint source-channel coding on a single transistor.

Two sensor readings are compressed into one drain current through the
saturation curve family of a MOSFET with channel-length modulation,
shipped as an FM tone over a noisy fading channel, and recovered by a
slope-matching decoder with range-check correction.  Subpackages:

* :mod:`ajscc.mosfet` -- the device model (current, inverse, slope)
* :mod:`ajscc.codec` -- quantizer, encoder, slope-matching decoder
* :mod:`ajscc.channel` -- FM tone link with Rician fading, Doppler, AWGN
* :mod:`ajscc.phenomenon` -- block-correlated ground-truth fields
* :mod:`ajscc.experiments` -- noiseless studies and Monte-Carlo MSE sweeps
* :mod:`ajscc.cli` -- command-line front end emitting CSV artifacts
"""

from .mosfet import MosfetParams, curve_slope, drain_current, in_saturation, invert_vds
from .codec import CodecConfig, build_levels, decode_pairs, decode_stream, encode, quantize
from .channel import ChannelConfig, modulate, simulate_link
from .phenomenon import Field, field_from_csv, field_to_csv, generate_field
from .experiments import (
    LambdaSweep,
    LinkConfig,
    MseReport,
    NoiselessResult,
    SweepResult,
    mse_averaged,
    run_link_point,
    run_noiseless,
    sweep_delta,
    sweep_lambda,
    sweep_snr,
)

__all__ = [
    "MosfetParams", "curve_slope", "drain_current", "in_saturation", "invert_vds",
    "CodecConfig", "build_levels", "decode_pairs", "decode_stream", "encode", "quantize",
    "ChannelConfig", "modulate", "simulate_link",
    "Field", "field_from_csv", "field_to_csv", "generate_field",
    "LambdaSweep", "LinkConfig", "MseReport", "NoiselessResult", "SweepResult",
    "mse_averaged", "run_link_point", "run_noiseless", "sweep_delta", "sweep_lambda",
    "sweep_snr",
]

__version__ = "0.1.0"
