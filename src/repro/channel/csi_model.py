"""CSI synthesis: from multipath profiles to the CSI matrices a NIC reports.

For each path k with AoA theta_k, ToF tau_k and complex gain gamma_k, the
clean CSI entry at antenna m (0-based) and reported subcarrier n is

    H[m, n] = gamma_k * exp(-j 2 pi (f_n - f_c) tau_k)
                      * exp(-j 2 pi f_n d m sin(theta_k) / c)

summed over paths.  gamma_k's phase already carries the carrier-cycle
propagation phase (-2 pi f_c tau_k, from the path length), so the product
is the *exact* per-subcarrier propagation phase exp(-j 2 pi f_n tau_k).
Using the exact per-subcarrier frequency f_n in the AoA term (instead of
the carrier approximation of paper Eq. 1) gives the estimators realistic
model mismatch to absorb — the paper shows this mismatch is negligible
(Sec. 3.1.2), and our tests confirm it.

:class:`ChannelSimulator` wires this synthesis to the ray tracer and the
impairment model to produce complete :class:`~repro.wifi.csi.CsiTrace`
objects, the input of Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.contracts import contract
from repro.channel.chains import ChainOffsets
from repro.channel.impairments import ImpairmentModel, ImpairmentState
from repro.channel.materials import DEFAULT_MATERIALS, MaterialLibrary
from repro.channel.multipath import MultipathProfile, extract_profile
from repro.channel.paths import PropagationPath
from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError
from repro.geom.floorplan import Floorplan
from repro.geom.points import PointLike, as_point
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiFrame, CsiTrace
from repro.wifi.ofdm import OfdmGrid


@contract(returns="(M,N) complex128")
def synthesize_csi(
    paths: Union[MultipathProfile, Sequence[PropagationPath]],
    array: UniformLinearArray,
    grid: OfdmGrid,
) -> np.ndarray:
    """Clean (impairment-free) CSI matrix for ``paths`` at ``array`` on ``grid``.

    Returns a complex array of shape (num_antennas, num_subcarriers).
    """
    path_list = list(paths)
    gains = np.array([[path.gain for path in path_list]], dtype=np.complex128)
    return _synthesize_stack(path_list, gains, array, grid)[0]


def _synthesize_stack(
    paths: Sequence[PropagationPath],
    gains: np.ndarray,
    array: UniformLinearArray,
    grid: OfdmGrid,
) -> np.ndarray:
    """Clean CSI ``(K, M, N)`` of ``paths`` with each row of ``gains`` ``(K, L)``.

    Row k replaces the paths' own gains with ``gains[k]``.  The phase
    factors of all paths are built at once, elementwise as for one path,
    and the paths are added in order onto zeros, so every packet equals
    the CSI of its faded paths summed one path at a time, bit for bit.
    """
    if not paths:
        raise ConfigurationError("cannot synthesize CSI with zero paths")
    freqs = grid.subcarrier_freqs_hz()  # absolute f_n, shape (N,)
    f_c = grid.carrier_freq_hz
    m = np.arange(array.num_antennas)  # (M,)
    aoa = np.array([path.aoa_deg for path in paths], dtype=float)
    tof = np.array([path.tof_s for path in paths], dtype=float)
    sin_theta = np.sin(np.deg2rad(aoa))[:, None, None]  # (L, 1, 1)
    tof_phase = np.exp(-2j * np.pi * (freqs - f_c) * tof[:, None])  # (L, N)
    aoa_phase = np.exp(
        -2j
        * np.pi
        * np.outer(m, freqs)
        * array.spacing_m
        * sin_theta
        / SPEED_OF_LIGHT
    )  # (L, M, N)
    terms = gains[:, :, None, None] * aoa_phase * tof_phase[:, None, :]  # (K, L, M, N)
    csi = np.zeros((len(gains),) + aoa_phase.shape[1:], dtype=np.complex128)
    for path in range(len(paths)):
        csi += terms[:, path]
    return csi


class _TraceDraws(NamedTuple):
    """Every random draw of one trace, in the order the generator made them."""

    #: Per packet, per path: the fading amplitude (dB) and phase draws.
    fades: List[List[Tuple[float, float]]]
    states: List[ImpairmentState]
    #: Two standard-normal ``(M, N)`` draws per packet that draws noise.
    normals: Optional[np.ndarray]
    #: Per packet RSSI jitter (dB); empty when the jitter is off.
    rssi_jitter: List[float]


@dataclass
class ChannelSimulator:
    """End-to-end CSI/RSSI generator for one floorplan.

    Produces, for any (target position, AP array) pair, the multipath
    profile, the per-packet impaired CSI frames, and the RSSI — everything
    a SpotFi server would receive from that AP.

    Attributes
    ----------
    floorplan:
        Environment to ray-trace.
    grid:
        OFDM grid CSI is reported on (e.g. ``Intel5300().grid()``).
    impairments:
        Per-packet impairment model (STO/SFO/noise/quantization).
    materials:
        Material library for wall coefficients.
    max_reflection_order:
        Specular reflection order for the ray tracer.
    max_paths:
        Keep at most this many strongest paths per profile.
    tx_power_dbm:
        Target transmit power; sets the RSSI scale.
    rssi_jitter_db:
        Std-dev of per-packet RSSI measurement noise (dB).
    fading_std_db:
        Per-packet, per-path log-normal amplitude fading (dB std-dev).
        0 (default) freezes the channel across the burst; small values
        model residual environmental motion.
    fading_phase_std_rad:
        Per-packet, per-path phase jitter accompanying the fading.
    """

    floorplan: Floorplan
    grid: OfdmGrid
    impairments: ImpairmentModel = field(default_factory=ImpairmentModel)
    materials: MaterialLibrary = DEFAULT_MATERIALS
    max_reflection_order: int = 2
    max_paths: int = 8
    include_diffraction: bool = False
    tx_power_dbm: float = 15.0
    rssi_jitter_db: float = 1.0
    fading_std_db: float = 0.0
    fading_phase_std_rad: float = 0.0

    def profile(
        self, target: PointLike, array: UniformLinearArray
    ) -> MultipathProfile:
        """Ground-truth multipath profile from ``target`` to ``array``."""
        wavelength = SPEED_OF_LIGHT / self.grid.carrier_freq_hz
        return extract_profile(
            floorplan=self.floorplan,
            target=as_point(target),
            array=array,
            wavelength_m=wavelength,
            max_reflection_order=self.max_reflection_order,
            max_paths=self.max_paths,
            materials=self.materials,
            include_diffraction=self.include_diffraction,
        )

    def generate_trace(
        self,
        target: PointLike,
        array: UniformLinearArray,
        num_packets: int,
        rng: Optional[np.random.Generator] = None,
        packet_interval_s: float = 0.1,
        source: str = "target",
        profile: Optional[MultipathProfile] = None,
        chain: Optional["ChainOffsets"] = None,
    ) -> CsiTrace:
        """Simulate ``num_packets`` received packets from ``target`` at ``array``.

        Each packet gets its own impairment state (STO drift, noise draw,
        quantization), optional per-path fading, and an RSSI reading
        derived from the profile's total power plus measurement jitter,
        rounded to the card's 1 dB step.  ``chain`` applies the AP's
        receive-chain phase offsets (see `repro.channel.chains`).  The
        paper's collection uses 500 packets at 100 ms intervals
        (Sec. 4.3.1); those are the defaults upstream.

        All draws come first, packet by packet in a fixed order (see
        :meth:`_draw`); the arithmetic then runs on the whole ``(K, M, N)``
        stack, each packet exactly as it would run alone.  So the first k
        frames of a trace are the k-packet trace of the same generator.
        """
        if num_packets < 1:
            raise ConfigurationError(f"num_packets must be >= 1, got {num_packets}")
        rng = np.random.default_rng() if rng is None else rng
        if profile is None:
            profile = self.profile(target, array)
        if profile.num_paths == 0:
            raise ConfigurationError(
                f"no propagation paths from {as_point(target)} to AP at "
                f"{array.position}; target may be fully shielded"
            )
        shape = (array.num_antennas, self.grid.num_subcarriers)
        # A packet draws noise only when its signal power is positive, which
        # its own earlier draws decide.  Plan on noise wherever the SNR is
        # finite; if the computed powers disagree, rewind and draw again
        # with their decisions.  Packet i's decision depends only on draws
        # made before its noise, so each replay settles at least the first
        # packet that was planned wrong.
        plan = np.full(num_packets, np.isfinite(self.impairments.snr_db))
        start = rng.bit_generator.state
        while True:
            draws = self._draw(num_packets, profile.num_paths, shape, plan, rng)
            stack = self._rotated(profile, array, chain, draws)
            noisy, noise_std = self.impairments.noise_std(stack, draws.states)
            if np.array_equal(noisy, plan):
                break
            rng.bit_generator.state = start
            plan = noisy
        csi = self.impairments.finish(stack, noisy, noise_std, draws.normals)
        rssi = np.full(num_packets, profile.rssi_dbm(self.tx_power_dbm))
        if draws.rssi_jitter:
            rssi = rssi + draws.rssi_jitter
        return CsiTrace(
            [
                CsiFrame(
                    csi=csi[i],
                    rssi_dbm=float(rssi_dbm),
                    timestamp_s=i * packet_interval_s,
                    source=source,
                )
                for i, rssi_dbm in enumerate(np.round(rssi))
            ]
        )

    def _draw(
        self,
        num_packets: int,
        num_paths: int,
        shape: Tuple[int, int],
        noisy: np.ndarray,
        rng: np.random.Generator,
    ) -> _TraceDraws:
        """Every draw of a trace, packet by packet, and no other arithmetic.

        Per packet: each path's fading amplitude and phase (with fading
        on), the impairment state, the two noise draws (where ``noisy``),
        then the RSSI jitter.
        """
        fading = self.fading_std_db > 0 or self.fading_phase_std_rad > 0
        fades, states, normals, jitter = [], [], [], []
        for i in range(num_packets):
            if fading:
                fades.append([self._fade_draws(rng) for _ in range(num_paths)])
            states.append(self.impairments.draw_state(i, rng))
            if noisy[i]:
                normals.append(rng.standard_normal((2,) + shape))
            if self.rssi_jitter_db > 0:
                jitter.append(rng.normal(0.0, self.rssi_jitter_db))
        return _TraceDraws(fades, states, np.array(normals) if normals else None, jitter)

    def _fade_draws(self, rng: np.random.Generator) -> Tuple[float, float]:
        """One path's fading draws for one packet: amplitude (dB), phase."""
        amplitude_db = rng.normal(0.0, self.fading_std_db)
        phase = (
            rng.normal(0.0, self.fading_phase_std_rad)
            if self.fading_phase_std_rad > 0
            else 0.0
        )
        return amplitude_db, phase

    def _rotated(
        self,
        profile: MultipathProfile,
        array: UniformLinearArray,
        chain: Optional[ChainOffsets],
        draws: _TraceDraws,
    ) -> np.ndarray:
        """The trace's CSI stack with chain offsets, STO and CFO applied."""
        if draws.fades:
            # One scalar product per packet and path, as each packet faded
            # its profile on its own: numpy's array power and complex
            # product round differently from the scalar ones.
            phases = np.exp(1j * np.array([[p for _, p in row] for row in draws.fades]))
            gains = np.array(
                [
                    [
                        path.gain * 10.0 ** (amplitude_db / 20.0) * rotation
                        for path, (amplitude_db, _), rotation in zip(profile, row, rotations)
                    ]
                    for row, rotations in zip(draws.fades, phases)
                ],
                dtype=np.complex128,
            )
        else:
            gains = np.array([[path.gain for path in profile]], dtype=np.complex128)
        clean = _synthesize_stack(profile.paths, gains, array, self.grid)
        if chain is not None:
            clean = chain.apply(clean)
        return self.impairments.rotate(
            clean, draws.states, self.grid.subcarrier_spacing_hz
        )

    def generate_traces(
        self,
        target: PointLike,
        arrays: Iterable[UniformLinearArray],
        num_packets: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "list[CsiTrace]":
        """Traces from one target to several APs (shared packet schedule)."""
        rng = np.random.default_rng() if rng is None else rng
        return [
            self.generate_trace(target, array, num_packets, rng=rng)
            for array in arrays
        ]
