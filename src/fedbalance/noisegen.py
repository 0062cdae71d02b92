"""Training-free natural-noise images from randomly initialized convolutions.

A small multi-scale generator: a random constant tensor at a base resolution
is repeatedly upsampled, perturbed with fresh per-pixel noise, and convolved
with a wavelet-initialized filter bank. Each scale feeds the output image
directly (through a shared 1x1 conv, amplitude halving per octave), which is
what makes the radially averaged power spectra fall off like natural scenes.
No parameter is ever trained.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

GABOR_WAVELENGTHS = (2.0, 4.0, 8.0)

# Images synthesized together by `generate_block`. At desk sizes a block's
# float64 working set stays in L2; blocks of 60 images were slower.
NOISE_BLOCK = 16

# The 2x2 detail kernels (horizontal, vertical, diagonal), pre-normalization.
_HAAR_DETAILS = (
    ((1.0, 1.0), (-1.0, -1.0)),
    ((1.0, -1.0), (1.0, -1.0)),
    ((1.0, -1.0), (-1.0, 1.0)),
)


class NoiseGenError(ValueError):
    pass


class DegenerateImage(NoiseGenError):
    pass


class ZeroImage(NoiseGenError):
    pass


class WaveletBank(enum.Enum):
    ORIENTED_GABOR = "oriented_gabor"
    HAAR = "haar"


@dataclass(frozen=True)
class GeneratorConfig:
    out_dims: tuple[int, int, int]          # (H, W, Ch)
    base_resolution: int = 4
    channels_per_scale: int = 8
    leaky_slope: float = 0.2
    wavelet_bank: WaveletBank = WaveletBank.ORIENTED_GABOR
    seed: int = 0

    def validate(self) -> None:
        h, w, ch = self.out_dims
        if h < 1 or w < 1 or ch < 1:
            raise NoiseGenError(f"bad output dims {self.out_dims}")
        if self.base_resolution < 1:
            raise NoiseGenError(f"base_resolution must be >= 1, got {self.base_resolution}")
        if self.channels_per_scale < 1:
            raise NoiseGenError(f"channels_per_scale must be >= 1, got {self.channels_per_scale}")
        if not math.isfinite(self.leaky_slope):
            raise NoiseGenError(f"leaky_slope must be finite, got {self.leaky_slope}")


@dataclass(frozen=True)
class ConvInit:
    """One random conv layer: a single shared kernel, per-pair amplitudes
    ~ N(0,1), and per-output biases ~ U(-0.2, 0.2)."""

    kernel: np.ndarray      # (kh, kw), shared across all channel pairs
    amplitudes: np.ndarray  # (out_ch, in_ch)
    biases: np.ndarray      # (out_ch,)


@dataclass(frozen=True)
class GeneratorState:
    config: GeneratorConfig
    gen_resolution: int
    scale_convs: tuple[ConvInit, ...]
    noise_gains: tuple[np.ndarray, ...]     # per scale, (channels_per_scale,)
    output_conv: ConvInit

    @property
    def num_scales(self) -> int:
        return len(self.scale_convs)


def gabor_kernel(theta: float, wavelength: float) -> np.ndarray:
    """3x3 Gabor at orientation theta: isotropic envelope with sigma =
    wavelength / 2, cosine carrier, zero-meaned and L2-normalized."""
    sigma = wavelength / 2.0
    coords = np.arange(-1, 2, dtype=np.float64)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    rotated = xx * math.cos(theta) + yy * math.sin(theta)
    envelope = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
    kernel = envelope * np.cos(2.0 * math.pi * rotated / wavelength)
    kernel -= kernel.mean()
    norm = np.linalg.norm(kernel)
    if norm < 1e-12:
        raise NoiseGenError(f"degenerate Gabor at theta={theta}, λ={wavelength}")
    return kernel / norm


def haar_kernel(index: int) -> np.ndarray:
    """One of the three 2x2 Haar detail kernels, L2-normalized."""
    kernel = np.array(_HAAR_DETAILS[index], dtype=np.float64)
    return kernel / np.linalg.norm(kernel)


def sample_wavelet(bank: WaveletBank, rng: np.random.Generator) -> np.ndarray:
    """Draw a random zero-mean wavelet kernel with unit L2 norm.

    OrientedGabor: orientation ~ U[0, pi) then wavelength uniform from
    {2, 4, 8} pixels. Haar: one of the three detail kernels, uniform.
    """
    if bank is WaveletBank.ORIENTED_GABOR:
        theta = rng.uniform(0.0, math.pi)
        wavelength = GABOR_WAVELENGTHS[int(rng.integers(len(GABOR_WAVELENGTHS)))]
        return gabor_kernel(theta, wavelength)
    if bank is WaveletBank.HAAR:
        return haar_kernel(int(rng.integers(len(_HAAR_DETAILS))))
    raise NoiseGenError(f"unknown wavelet bank {bank!r}")


def _as_3x3(kernel: np.ndarray) -> np.ndarray:
    """Realize a sampled wavelet as a 3x3 conv kernel (Haar 2x2 is zero-padded
    into the top-left corner)."""
    if kernel.shape == (3, 3):
        return kernel
    padded = np.zeros((3, 3), dtype=np.float64)
    padded[:kernel.shape[0], :kernel.shape[1]] = kernel
    return padded


def init_generator(cfg: GeneratorConfig) -> GeneratorState:
    """Randomly initialize the generator; deterministic under cfg.seed.

    One wavelet conv plus one noise-injection gain vector per upsampling scale,
    then a final 1x1 conv down to the output channels. The internal resolution
    is the smallest base * 2^s covering the target (center-cropped afterwards).
    """
    cfg.validate()
    h, w, ch = cfg.out_dims
    target = max(h, w)
    scales = 0
    resolution = cfg.base_resolution
    while resolution < target:
        resolution *= 2
        scales += 1
    rng = np.random.default_rng(cfg.seed)
    cps = cfg.channels_per_scale

    convs = []
    gains = []
    for _ in range(scales):
        kernel = _as_3x3(sample_wavelet(cfg.wavelet_bank, rng))
        amplitudes = rng.standard_normal((cps, cps))
        biases = rng.uniform(-0.2, 0.2, size=cps)
        convs.append(ConvInit(kernel, amplitudes, biases))
        gains.append(rng.standard_normal(cps))

    out_ch = 3 if ch in (1, 3) else ch
    output_conv = ConvInit(np.ones((1, 1), dtype=np.float64),
                           rng.standard_normal((out_ch, cps)),
                           rng.uniform(-0.2, 0.2, size=out_ch))
    return GeneratorState(cfg, resolution, tuple(convs), tuple(gains), output_conv)


def correlate2d_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size 2-D cross-correlation with zero padding (odd kernels only),
    applied to the last two axes of an (..., H, W) array."""
    kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise NoiseGenError(f"kernel dims must be odd, got {kernel.shape}")
    ph, pw = kh // 2, kw // 2
    h, w = image.shape[-2:]
    padded = np.zeros(image.shape[:-2] + (h + 2 * ph, w + 2 * pw), dtype=image.dtype)
    padded[..., ph:ph + h, pw:pw + w] = image
    out = np.zeros(image.shape, dtype=np.float64)
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[dy, dx] * padded[..., dy:dy + h, dx:dx + w]
    return out


def apply_conv(x: np.ndarray, conv: ConvInit) -> np.ndarray:
    """y_k = sum_i amplitudes[k, i] * (x_i * f) + biases[k] over (..., C, H, W) input."""
    shared = correlate2d_same(x, conv.kernel)
    return np.einsum("oi,...ihw->...ohw", conv.amplitudes, shared) + conv.biases[:, None, None]


def _leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def _upsample(x: np.ndarray, factor: int) -> np.ndarray:
    return np.repeat(np.repeat(x, factor, axis=-2), factor, axis=-1)


def _synthesize(state: GeneratorState, rngs: list[np.random.Generator]) -> np.ndarray:
    """(len(rngs), C, R, R) float64 raw images at the generation resolution.

    Row i draws all of its normals from rngs[i] before any arithmetic runs:
    the base tensor, then each scale's noise, in that order.
    """
    cfg = state.config
    cps = cfg.channels_per_scale
    # The bytes of the block's largest array: a 3x3 conv's padded input or
    # the output. numpy refuses, as a ValueError, one past intp's range.
    res, pad = state.gen_resolution, 2 if state.scale_convs else 0
    largest = 8 * len(rngs) * max(cps * (res + pad) ** 2,
                                  len(state.output_conv.biases) * res ** 2)
    if largest > np.iinfo(np.intp).max:
        raise NoiseGenError(f"a block of {len(rngs)} noise images at resolution {res} "
                            f"needs a {largest}-byte array, more than numpy can index")
    sizes = [cfg.base_resolution * 2 ** s for s in range(state.num_scales + 1)]
    draws = [np.empty((len(rngs), cps, size, size)) for size in sizes]
    for row, rng in enumerate(rngs):
        for buf in draws:
            rng.standard_normal(out=buf[row])
    x = draws[0]
    if not state.scale_convs:
        return apply_conv(x, state.output_conv)
    # Every scale contributes to the output through the shared 1x1 conv, with
    # amplitude halving per octave of resolution. Without this pyramid
    # composition the zero-mean wavelet convs strip the accumulated coarse
    # structure scale after scale and the spectra come out flat instead of
    # natural-image-like.
    depth = len(state.scale_convs)
    out = None
    for index, (conv, gain, noise) in enumerate(zip(state.scale_convs, state.noise_gains,
                                                    draws[1:])):
        x = _upsample(x, 2)
        x = x + gain[:, None, None] * noise
        x = _leaky_relu(apply_conv(x, conv), cfg.leaky_slope)
        partial = apply_conv(x, state.output_conv)
        weight = float(2 ** (depth - 1 - index))
        contribution = weight * _upsample(partial, state.gen_resolution // partial.shape[-1])
        out = contribution if out is None else out + contribution
    return out


def _scale_rows(state: GeneratorState, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Crop, grayscale and min-max scale each row of `raw` to [0, 255].

    Returns the (n, H, W, Ch) float32 images and a mask of the rows that came
    out constant (their pixels are meaningless)."""
    h, w, ch = state.config.out_dims
    r0 = (state.gen_resolution - h) // 2
    c0 = (state.gen_resolution - w) // 2
    cropped = raw[:, :, r0:r0 + h, c0:c0 + w]
    if ch == 1:
        cropped = cropped.mean(axis=1, keepdims=True)
    image = cropped.transpose(0, 2, 3, 1)
    lo = image.min(axis=(1, 2, 3), keepdims=True)
    span = image.max(axis=(1, 2, 3), keepdims=True) - lo
    flat = ~(span > 0).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (image - lo) / span * 255.0
    return scaled.astype(np.float32), flat


def generate_block(state: GeneratorState, rngs: list[np.random.Generator]) -> np.ndarray:
    """One image per stream: (len(rngs), H, W, Ch) float32 in [0, 255].

    Row i equals `generate(state, rngs[i])`; the rows are synthesized
    NOISE_BLOCK at a time. A row that comes out constant is redrawn once from
    its own (already advanced) stream, then DegenerateImage.
    """
    images = np.empty((len(rngs), *state.config.out_dims), dtype=np.float32)
    for start in range(0, len(rngs), NOISE_BLOCK):
        block = rngs[start:start + NOISE_BLOCK]
        scaled, flat = _scale_rows(state, _synthesize(state, block))
        if flat.any():
            retry = np.flatnonzero(flat)
            again, still_flat = _scale_rows(state, _synthesize(state, [block[i] for i in retry]))
            if still_flat.any():
                raise DegenerateImage("generator produced a constant image twice in a row")
            scaled[retry] = again
        images[start:start + len(block)] = scaled
    return images


def generate(state: GeneratorState, rng: np.random.Generator) -> np.ndarray:
    """Sample one image: (H, W, Ch) float32 min-max normalized to [0, 255].

    The label is assigned later by whoever consumes the image. A constant
    pre-normalization image triggers one resample, then DegenerateImage.
    """
    return generate_block(state, [rng])[0]


def power_spectrum_slope(image: np.ndarray) -> float:
    """Log-log slope of the radially averaged power spectrum.

    Grayscale-converts, takes the 2-D DFT, azimuthally averages |F|^2 into
    integer radial bins, and least-squares fits log power against log frequency
    over bins [2, H/2). White noise sits near 0; natural scenes are strongly
    negative.
    """
    if image.ndim == 3:
        gray = image.mean(axis=2)
    else:
        gray = image
    h, w = gray.shape
    if h != w:
        raise NoiseGenError(f"square image required, got {h}x{w}")
    if gray.max() == gray.min():
        raise ZeroImage("constant image has no AC energy")

    # In float64: a float32 spectrum of finite pixels near 3e38 overflows.
    power = np.abs(np.fft.fft2(gray.astype(np.float64))) ** 2
    fy = np.fft.fftfreq(h) * h
    fx = np.fft.fftfreq(w) * w
    radius = np.sqrt(fy[:, None] ** 2 + fx[None, :] ** 2)
    bins = np.rint(radius).astype(np.int64).ravel()
    sums = np.bincount(bins, weights=power.ravel())
    counts = np.bincount(bins)
    radial = sums / np.maximum(counts, 1)

    lo, hi = 2, h // 2
    freqs = np.arange(lo, hi)
    values = radial[lo:hi]
    keep = values > 0
    if keep.sum() < 2:
        raise ZeroImage("not enough populated radial bins for a fit")
    slope, _ = np.polyfit(np.log(freqs[keep]), np.log(values[keep]), 1)
    return float(slope)
