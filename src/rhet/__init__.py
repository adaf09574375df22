"""rhet: reconstruct quadrature correlations from heterodyne photocurrents.

A heterodyne record samples a rotating quadrature, so its ordinary PSD
averages the phase-sensitive field correlations away. Weighting the
photocurrent autocorrelation with a square filter synchronous with twice
the beat note before transforming restores them. This package provides the
analytic model, a faithful synthesizer, the filtered estimators, a software
lock-in for LO-phase drift, filter-phase maps, and the file formats and CLI
that tie them together.
"""

__version__ = "1.0.0"

from .core import (ConfigError, ExperimentConfig, FilterSpec, GridError,
                   MechMode, PhaseDriftSpec, PhaseSeries, PhysicalityError,
                   Spectrum, ThetaMap, TimeTrace, TraceFormatError,
                   default_thermal_config, validate_config)
from .analytic import (FieldSpectra, cavity_susceptibility, field_spectra,
                       filter_coefficients, heterodyne_psd, homodyne_psd,
                       rhet_prediction)
from .synth import (modulate_current, phase_drift, synth_gaussian_trace,
                    tone_field)
from .estimator import (Autocorrelation, complex_corr_spectrum, eval_filter,
                        filtered_autocorr, psd_from_autocorr, rhet_spectrum,
                        standard_psd)
from .lockin import correct_and_estimate, demodulate
from .mapper import (normalize_map, peak_amplitude, peak_location,
                     theta_map_exact, theta_map_fast, zero_contour)
from .io import (compare_spectra, read_config, read_map, read_spectrum,
                 read_trace, write_config, write_map, write_spectrum,
                 write_trace)

__all__ = [
    "__version__",
    "ConfigError", "ExperimentConfig", "FilterSpec", "GridError", "MechMode",
    "PhaseDriftSpec", "PhaseSeries", "PhysicalityError", "Spectrum",
    "ThetaMap", "TimeTrace", "TraceFormatError", "default_thermal_config",
    "validate_config",
    "FieldSpectra", "cavity_susceptibility", "field_spectra",
    "filter_coefficients", "heterodyne_psd", "homodyne_psd",
    "rhet_prediction",
    "modulate_current", "phase_drift", "synth_gaussian_trace", "tone_field",
    "Autocorrelation", "complex_corr_spectrum", "eval_filter",
    "filtered_autocorr", "psd_from_autocorr", "rhet_spectrum", "standard_psd",
    "correct_and_estimate", "demodulate",
    "normalize_map", "peak_amplitude", "peak_location", "theta_map_exact",
    "theta_map_fast", "zero_contour",
    "compare_spectra", "read_config", "read_map", "read_spectrum",
    "read_trace", "write_config", "write_map", "write_spectrum",
    "write_trace",
]
