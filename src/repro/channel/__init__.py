"""RF channel simulator: turns floorplan geometry into per-path
(AoA, ToF, complex gain) profiles and synthesizes the CSI an Intel 5300
would report for them, including the impairments SpotFi fights (STO, SFO,
packet-detection delay, AWGN, 8-bit quantization).

The names below resolve lazily, so importing one channel module (the
core's path-loss model, say) does not load the whole simulator."""

from repro import _exports

__all__ = _exports.install(
    globals(),
    {
        "channel.chains": ("ChainOffsets",),
        "channel.csi_model": ("ChannelSimulator", "synthesize_csi"),
        "channel.impairments": ("ImpairmentModel", "ImpairmentState"),
        "channel.materials": ("Material", "MaterialLibrary"),
        "channel.multipath": ("MultipathProfile", "extract_profile"),
        "channel.pathloss": ("LogDistancePathLoss",),
        "channel.paths": ("PropagationPath",),
    },
)
