"""Reference computations made with numpy alone.

The benchmark checks the program's outputs against these, never against
stored copies of earlier output. Nothing here imports rhet: the trace
reader and the CSV reader follow the file formats documented in
`rhet.io`, and the periodogram follows the definition of the two-sided
Welch PSD, S = dt/N |FFT(segment)|^2 averaged over segments.
"""
import struct

import numpy as np

TWO_PI = 2.0 * np.pi
TRACE_HEADER = struct.Struct("<4sIdddQ32x")


def read_trace_file(path):
    """(samples, dt) of a binary trace file."""
    with open(path, "rb") as fh:
        head = fh.read(TRACE_HEADER.size)
    magic, _, dt, _, _, n = TRACE_HEADER.unpack(head)
    if magic != b"RHTR":
        raise ValueError(f"{path}: not a trace file")
    samples = np.fromfile(path, dtype="<f8", offset=TRACE_HEADER.size)
    if samples.size != n:
        raise ValueError(f"{path}: {samples.size} samples, header says {n}")
    return samples, dt


def read_csv_table(path):
    """(header, rows) of a CSV written by rhet: '#' comment lines, one
    header line, then numeric rows."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()
                 and not line.startswith("#")]
    header = lines[0].strip().split(",")
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return header, rows


def spectrum_grid(n_seg, dt):
    """Ascending two-sided angular-frequency grid of an n_seg transform."""
    return TWO_PI * np.fft.fftshift(np.fft.fftfreq(n_seg, dt))


def periodogram(samples, dt, segments):
    """Segment-averaged two-sided periodogram on the shifted grid."""
    n_seg = samples.size // segments
    mat = samples[: segments * n_seg].reshape(segments, n_seg)
    rows = np.abs(np.fft.fft(mat, axis=1)) ** 2 * (dt / n_seg)
    return np.fft.fftshift(rows.mean(axis=0))


def max_rel_dev(a, b):
    """max |a - b| / max |b|."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / np.max(np.abs(b)))


def quad_peak(freqs, values, center, halfwidth):
    """Value at the vertex of a least-squares parabola through the bins
    within halfwidth of center (the extreme bin if the vertex falls outside
    the window)."""
    sel = np.abs(freqs - center) <= halfwidth
    x = (freqs[sel] - center) / halfwidth
    v = np.real(values[sel])
    c2, c1, c0 = np.polyfit(x, v, 2)
    if c2 != 0.0 and abs(c1 / (2.0 * c2)) <= 1.0:
        return float(c0 - c1 * c1 / (4.0 * c2))
    return float(v[np.argmax(np.abs(v - np.median(v)))])


def agreement(spectra, prediction, pair_lag):
    """Score the mean of independent spectra against an expectation.

    spectra: (n_traces, n_bins) estimates from independent traces;
    prediction: (n_bins,) expected value. Returns (z_bias, rms_ratio):

    z_bias    band-mean residual over its standard error. The variance of
              each bin's mean comes from the spread across traces. Bins
              pair_lag apart (2 Omega: the two beat sidebands of one field
              component) fluctuate together, so the standard error also
              takes their covariance across traces.
    rms_ratio RMS residual over the RMS standard error of the mean. An
              unbiased estimator with the right spread gives about 1.
    """
    spectra = np.real(np.asarray(spectra))
    n_traces, n_bins = spectra.shape
    resid = spectra.mean(axis=0) - np.real(prediction)
    dev = spectra - spectra.mean(axis=0)
    se2 = spectra.var(axis=0, ddof=1) / n_traces
    pair_cov = np.sum(dev[:, :-pair_lag] * dev[:, pair_lag:], axis=0) \
        / ((n_traces - 1) * n_traces)
    var_sum = se2.sum() + 2.0 * pair_cov.sum()
    z_bias = float(resid.sum() / np.sqrt(var_sum))
    rms_ratio = float(np.sqrt(np.mean(resid ** 2) / se2.mean()))
    return z_bias, rms_ratio


def parseval_z(samples, het_on_grid, dt):
    """Mean square of a trace against the integral of its expected
    two-sided PSD, in standard errors.

    het_on_grid holds the PSD on an n-point FFT grid; its Riemann sum
    sum(S)/(n dt) is the expected mean square. For a Gaussian record with
    independent Fourier bins, var(mean i^2) = 2 sum(S^2) / (N n dt^2)
    (N samples in the trace).
    """
    n = het_on_grid.size
    expected = float(np.sum(het_on_grid) / (n * dt))
    sigma = float(np.sqrt(2.0 * np.sum(het_on_grid ** 2)
                          / (samples.size * n * dt * dt)))
    return (float(np.mean(samples ** 2)) - expected) / sigma
