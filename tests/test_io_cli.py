"""File formats, round trips, comparison reports, and the CLI workflows."""
import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhet import (ConfigError, GridError, PhaseDriftSpec, Spectrum, ThetaMap,
                  TraceFormatError, compare_spectra, read_config, read_map,
                  read_spectrum, read_trace, rhet_spectrum, standard_psd,
                  synth_gaussian_trace, theta_map_fast, validate_config,
                  write_config, write_map, write_spectrum, write_trace)
from rhet.cli import main
from rhet.core import TWO_PI, TimeTrace
from rhet.io import config_from_dict, config_to_dict
from rhet.mapper import peak_amplitude


# ------------------------------------------------------------------ traces

def test_trace_roundtrip_is_byte_identical(tmp_path, short_trace):
    p1 = tmp_path / "a.rht"
    p2 = tmp_path / "b.rht"
    write_trace(p1, short_trace)
    back = read_trace(p1)
    assert np.array_equal(back.samples, short_trace.samples)
    assert back.dt == short_trace.dt
    assert back.omega_beat == short_trace.omega_beat
    assert back.theta_nominal == short_trace.theta_nominal
    write_trace(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_writer_does_not_copy_the_samples(tmp_path):
    # the samples go to the file from their own memory
    import tracemalloc
    samples = np.random.default_rng(4).standard_normal(1 << 20)
    trace = TimeTrace(samples=samples, dt=1e-6, omega_beat=1e4)
    tracemalloc.start()
    try:
        write_trace(tmp_path / "t.rht", trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples.nbytes / 8
    assert np.array_equal(read_trace(tmp_path / "t.rht").samples, samples)


def test_trace_reader_rejects_corruption(tmp_path, short_trace):
    p = tmp_path / "t.rht"
    write_trace(p, short_trace)
    raw = bytearray(p.read_bytes())

    trunc = tmp_path / "trunc.rht"
    trunc.write_bytes(raw[:20])
    with pytest.raises(TraceFormatError, match="truncated"):
        read_trace(trunc)

    bad_magic = tmp_path / "magic.rht"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(TraceFormatError, match="magic"):
        read_trace(bad_magic)

    bad_ver = tmp_path / "ver.rht"
    broken = bytearray(raw)
    broken[4] = 99  # version field
    bad_ver.write_bytes(bytes(broken))
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(bad_ver)

    short_payload = tmp_path / "short.rht"
    short_payload.write_bytes(bytes(raw[:-16]))
    with pytest.raises(TraceFormatError, match="payload"):
        read_trace(short_payload)


# ------------------------------------------------------------------ config

def test_config_roundtrip(tmp_path, thermal_cfg):
    cfg = dataclasses.replace(
        thermal_cfg, theta0=0.35,
        drift=PhaseDriftSpec(amplitude=0.2, freq_hz=25.0, kind="sine"))
    p = tmp_path / "cfg.json"
    write_config(p, cfg)
    back = read_config(p)
    assert back == config_from_dict(config_to_dict(cfg))
    assert len(back.modes) == 2
    assert back.theta0 == 0.35
    assert back.drift.amplitude == 0.2
    doc = config_to_dict(cfg)
    doc["kappa_hz"] = str(doc["kappa_hz"])  # a string number still parses
    assert config_from_dict(doc) == back


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.update(qfactor=10), "unknown key"),
    (lambda d: d["modes"][0].update(color="red"), "unknown key"),
    (lambda d: d["drift"].update(phase=1.0), "unknown key"),
    (lambda d: d.pop("kappa_hz"), "missing key"),
    (lambda d: d["modes"][0].pop("nbar"), "missing key"),
    (lambda d: d.update(schema_version=99), "schema_version"),
    (lambda d: d.update(schema_version=True), "schema_version True"),
])
def test_config_reader_rejects_bad_documents(tmp_path, thermal_cfg, mutate,
                                             needle):
    doc = config_to_dict(thermal_cfg)
    mutate(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=needle):
        read_config(p)


def test_config_reader_rejects_invalid_json(tmp_path):
    p = tmp_path / "nope.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        read_config(p)


_num = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    kappa_hz=st.floats(1e-3, 1e9, **_num),
    det_hz=st.floats(-1e7, 1e7, **_num),
    om_hz=st.floats(1e-3, 1e7, **_num),
    gam_hz=st.floats(1e-6, 1e5, **_num),
    nbar=st.floats(0.0, 1e9, **_num),
    theta0=st.floats(-3.2, 3.2, **_num),
)
def test_config_dict_roundtrip_is_stable(kappa_hz, det_hz, om_hz, gam_hz,
                                         nbar, theta0):
    doc = {
        "schema_version": 1,
        "kappa_hz": kappa_hz, "detuning_hz": det_hz,
        "omega_beat_hz": 1e4, "theta0_rad": theta0,
        "shot_floor": 1.0, "backaction_weight": 0.0,
        "drift": {"amplitude_rad": 0.0, "freq_hz": 25.0, "kind": "sine"},
        "modes": [{"omega_m_hz": om_hz, "gamma_hz": gam_hz, "mass_ng": 300.0,
                   "nbar": nbar, "coupling_hz": 25.0}],
    }
    cfg = config_from_dict(doc)
    again = config_from_dict(config_to_dict(cfg))
    # unit conversions may cost an ulp on the first trip but must then be
    # stable, and the JSON layer must never lose anything beyond that
    assert again == config_from_dict(config_to_dict(again))
    assert again.kappa == pytest.approx(cfg.kappa, rel=1e-15)
    assert again.modes[0].nbar == pytest.approx(cfg.modes[0].nbar, rel=1e-15)
    assert again.theta0 == cfg.theta0


# ---------------------------------------------------------------- spectra

def _toy_spectrum(complex_vals=False, variance=False):
    f = TWO_PI * np.linspace(-5e3, 5e3, 257)
    v = 1.0 / (1.0 + ((f / TWO_PI) / 997.0) ** 2) + 0.25
    if complex_vals:
        v = v * np.exp(0.3j * np.tanh(f / TWO_PI / 1e3))
    var = (0.01 * np.abs(v)) ** 2 if variance else None
    return Spectrum(freqs=f, values=v, variance=var,
                    meta={"kind": "toy", "segments": 4, "epsilon": -1.0,
                          "corrected": False, "max_lag": None})


def test_spectrum_csv_roundtrip_real(tmp_path):
    spec = _toy_spectrum(variance=True)
    p = tmp_path / "s.csv"
    write_spectrum(p, spec)
    back = read_spectrum(p)
    assert np.array_equal(back.values, spec.values)  # 17 digits: lossless
    assert np.all(np.abs(back.freqs - spec.freqs) <= 2 * np.spacing(np.abs(spec.freqs)))
    assert np.allclose(np.sqrt(back.variance), np.sqrt(spec.variance),
                       rtol=1e-15, atol=0.0)
    assert back.meta["kind"] == "toy"
    assert back.meta["segments"] == 4
    assert back.meta["corrected"] is False
    assert back.meta["max_lag"] is None
    # repr writes non-finite floats unquoted; a quoted 'inf' stays a string
    spec.meta.update(max_lag=np.inf, low=-np.inf, e=np.nan, label="inf")
    write_spectrum(p, spec)
    meta = read_spectrum(p).meta
    assert (meta["max_lag"], meta["low"], meta["label"]) == (np.inf, -np.inf,
                                                             "inf")
    assert isinstance(meta["e"], float) and np.isnan(meta["e"])


def test_spectrum_csv_roundtrip_complex(tmp_path):
    spec = _toy_spectrum(complex_vals=True)
    p = tmp_path / "c.csv"
    write_spectrum(p, spec)
    back = read_spectrum(p)
    assert np.iscomplexobj(back.values)
    assert np.array_equal(back.values.real, spec.values.real)
    assert np.array_equal(back.values.imag, spec.values.imag)


def test_spectrum_reader_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("hello,world\n1,2\n")
    with pytest.raises(TraceFormatError):
        read_spectrum(p)
    p2 = tmp_path / "empty.csv"
    p2.write_text("# rhet spectrum v1\nfreq_hz,value\n")
    with pytest.raises(TraceFormatError, match="no data"):
        read_spectrum(p2)
    p3 = tmp_path / "ragged.csv"
    p3.write_text("# rhet spectrum v1\nfreq_hz,value\n1,2\n3,4,5\n6\n")
    with pytest.raises(TraceFormatError, match="ragged"):
        read_spectrum(p3)
    for name, text, message in (
            ("word.csv", "freq_hz,value\n1,2\n3,abc\n", "could not convert"),
            ("novalue.csv", "freq_hz,stderr\n1,2\n", "'value'"),
            ("noim.csv", "freq_hz,re\n1,2\n", "'im'"),
            ("descending.csv", "freq_hz,value\n3,1\n1,2\n", "ascending"),
            ("stderr.csv", "freq_hz,value,stderr\n1,2\n", "ragged"),
            # 2 pi * 1e308 overflows: the grid's top end, then its bottom
            ("top.csv", "freq_hz,value\n1,2\n1e308,3\n",
             "top.csv: malformed spectrum .*finite"),
            ("bottom.csv", "freq_hz,value\n-1e308,2\n",
             "bottom.csv: malformed spectrum .*finite")):
        p4 = tmp_path / name
        p4.write_text("# rhet spectrum v1\n# kind = 'x'\n" + text)
        with pytest.raises(TraceFormatError, match=message):
            read_spectrum(p4)
    with pytest.raises(TraceFormatError, match="spectrum"):
        read_spectrum(_binary_trace(tmp_path))


def _binary_trace(tmp_path):
    p = tmp_path / "t.rht"
    write_trace(p, TimeTrace(samples=np.linspace(-1.0, 1.0, 64), dt=1e-6,
                             omega_beat=1e4))
    return p


def test_spectrum_reader_reads_empty_fields_as_nan(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text("# rhet spectrum v1\n# kind = 'x'\nfreq_hz,value,stderr\n"
                 "1,2,\n# a comment between rows\n3,,0.5\n")
    back = read_spectrum(p)
    assert back.meta["kind"] == "x"
    assert np.array_equal(back.freqs, TWO_PI * np.array([1.0, 3.0]))
    assert np.array_equal(back.values, [2.0, np.nan], equal_nan=True)
    assert np.array_equal(back.variance, [np.nan, 0.25], equal_nan=True)


def _awkward_values(n, seed):
    """n values over the whole float64 range, led by the special ones."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[:7] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0, 0.1]
    return v


def test_csv_writers_match_per_field_format(tmp_path):
    # rows are formatted a block at a time; the bytes must be those of one
    # _fmt call per field, on both sides of a block boundary
    from rhet.io import _BLOCK_VALUES, _fmt
    n = _BLOCK_VALUES // 3 + 7
    f = TWO_PI * np.linspace(-1e6, 1e6, n)
    v = _awkward_values(n, 5)
    p = tmp_path / "s.csv"
    write_spectrum(p, Spectrum(freqs=f, values=v, variance=np.abs(v)))
    rows = p.read_text().splitlines()[2:]
    assert rows == [",".join(_fmt(x) for x in (f[k] / TWO_PI, v[k],
                                                np.sqrt(abs(v[k]))))
                    for k in range(n)]
    z = np.empty(n, dtype=complex)
    z.real, z.imag = v, v[::-1]
    write_spectrum(p, Spectrum(freqs=f, values=z))
    rows = p.read_text().splitlines()[2:]
    assert rows == [",".join(_fmt(x) for x in (f[k] / TWO_PI, z[k].real,
                                                z[k].imag))
                    for k in range(n)]
    spectra = _awkward_values(7 * 12001, 6).reshape(7, 12001)
    thetas = np.arange(7) * np.pi / 7
    m = ThetaMap(thetas=thetas, freqs=TWO_PI * np.arange(12001.0),
                 spectra=spectra)
    write_map(p, m, fmt="csv")
    rows = [line for line in p.read_text().splitlines()
            if not line.startswith(("#", "theta_rad"))]
    assert rows == [",".join(_fmt(x) for x in (thetas[k], *spectra[k]))
                    for k in range(7)]


def test_csv_map_header_is_fmt_of_each_frequency(tmp_path):
    # the header's frequencies come from the row formatter
    from rhet.io import _fmt
    hz = _awkward_values(4000, 7)
    hz = np.unique(hz[np.abs(hz) < 1e300])  # ascending, and finite in rad/s
    m = ThetaMap(thetas=[0.0, 1.0], freqs=TWO_PI * hz,
                 spectra=np.zeros((2, hz.size)))
    p = tmp_path / "m.csv"
    write_map(p, m)
    assert [line for line in p.read_text().splitlines()
            if line.startswith("theta_rad")] == \
        ["theta_rad," + ",".join(_fmt(f / TWO_PI) for f in m.freqs)]
    # one column, and none: no frequency field still ends the header line
    write_map(p, ThetaMap(thetas=[0.0, 0.5], freqs=[TWO_PI * 1e5],
                          spectra=[[2.0], [-0.1]], meta={"variant": "t0"}))
    assert p.read_bytes() == (b"# rhet theta map v1\n# normalization = 1\n"
                              b"# variant = 't0'\ntheta_rad,100000\n"
                              b"0,2\n0.5,-0.10000000000000001\n")
    write_map(p, ThetaMap(thetas=[0.0, 0.5], freqs=np.empty(0),
                          spectra=np.zeros((2, 0))))
    assert p.read_bytes() == (b"# rhet theta map v1\n# normalization = 1\n"
                              b"theta_rad,\n0\n0.5\n")


def test_spectrum_writer_writes_utf8_under_an_ascii_locale(tmp_path):
    # every writer hands the OS bytes, so the locale's encoding plays no
    # part: a non-ASCII metadata string is written as UTF-8 and read back
    p = tmp_path / "label.csv"
    code = ("import codecs, locale, numpy as np; "
            "from rhet import Spectrum, read_spectrum, write_spectrum; "
            "enc = codecs.lookup(locale.getpreferredencoding(False)).name; "
            "assert enc == 'ascii', enc; "
            "s = Spectrum(freqs=[1.0, 2.0], values=[3.0, 4.0], "
            "meta={'label': 'caf\\u00e9'}); "
            f"write_spectrum({str(p)!r}, s); b = read_spectrum({str(p)!r}); "
            "assert b.meta == s.meta, b.meta; "
            "assert np.array_equal(b.freqs, s.freqs); "
            "assert np.array_equal(b.values, s.values)")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert b"# label = 'caf\xc3\xa9'\n" in p.read_bytes()


def _oracle_values():
    """Values that stress each step of the numpy formatter, shuffled."""
    rng = np.random.default_rng(20)
    p = np.array([float(f"1e{j}") for j in range(-323, 309)])
    # exact decimal ties: odd n / 2**e with 18 significant digits
    ties = []
    for e in range(2, 26):
        lo, hi = 10 ** (17 - e) * 2 ** e, min(10 ** (18 - e) * 2 ** e, 2 ** 53)
        if lo < hi:
            ties.append((rng.integers(lo, hi, 4000) | 1) / 2.0 ** e)
    ties = np.concatenate(ties)
    ties[::2] *= -1
    v = np.concatenate([
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(float),
        p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p, ties,
        rng.integers(1, 2 ** 52, 1000, dtype=np.uint64).view(float),  # subnormal
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
         np.finfo(float).max, 1e16, 1e17, np.nextafter(1e17, 0), 1e-5, 1e-4,
         np.nextafter(1e-4, 0), 0.5, 1.0, 123.0, -1e-300, 1e290]])
    return rng.permutation(v)


@pytest.mark.parametrize("ncols", [1, 3, 4, 1767])
def test_csv_rows_have_the_bytes_of_percent_17g(ncols):
    # every field of every block against '%.17g' itself; the rows span
    # many blocks, and the leading column is passed apart, as maps do
    import io
    from fractions import Fraction
    from rhet.io import _write_rows
    # 1e-243 is below 10**-243 but rounds to it: a carry to 10**17 digits
    assert Fraction(1e-243) < Fraction(1, 10 ** 243)
    v = _oracle_values()
    table = v[:v.size // ncols * ncols].reshape(-1, ncols)
    buf = io.BytesIO()
    _write_rows(buf, table[:, 0], *([table[:, 1:]] if ncols > 1 else []))
    got = buf.getvalue().decode().replace("\n", ",").split(",")[:-1]
    want = ["%.17g" % x for x in table.ravel().tolist()]
    assert len(got) == len(want)
    assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []
    assert "%.17g" % 1e-243 == "1e-243" and 1e-243 in table


def test_csv_map_writer_does_not_copy_the_table(tmp_path):
    # rows are stacked one block at a time, so the writer's peak stays
    # below the size of the table it writes
    import tracemalloc
    rng = np.random.default_rng(8)
    m = ThetaMap(thetas=np.linspace(0.0, np.pi, 800, endpoint=False),
                 freqs=TWO_PI * np.linspace(3.5e5, 4.1e5, 1690),
                 spectra=rng.standard_normal((800, 1690)))
    tracemalloc.start()
    try:
        write_map(tmp_path / "m.csv", m, fmt="csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.spectra.nbytes
    assert np.array_equal(read_map(tmp_path / "m.csv").spectra, m.spectra)


# ------------------------------------------------------------------- maps

@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_map_roundtrip(tmp_path, fmt):
    rng = np.random.default_rng(2)
    m = ThetaMap(thetas=np.arange(6) * np.pi / 6,
                 freqs=TWO_PI * np.linspace(1e3, 2e3, 11),
                 spectra=rng.standard_normal((6, 11)),
                 normalization=1.75,
                 meta={"variant": "t0", "epsilon": 0.0, "path": "fast"})
    p = tmp_path / f"m.{fmt}"
    write_map(p, m, fmt=fmt)
    back = read_map(p)
    assert np.array_equal(back.thetas, m.thetas)
    assert np.array_equal(back.spectra, m.spectra)
    assert np.all(np.abs(back.freqs - m.freqs) <= 2 * np.spacing(m.freqs))
    assert back.normalization == m.normalization
    assert back.meta["variant"] == "t0"
    assert back.meta["path"] == "fast"


@pytest.mark.parametrize("fmt", ["csv", "npz"])
def test_map_of_no_frequencies_roundtrips(tmp_path, fmt):
    # the CSV header of such a map is 'theta_rad,' (its bytes are pinned in
    # test_csv_map_header_is_fmt_of_each_frequency)
    m = ThetaMap(thetas=[0.0, 0.5], freqs=np.empty(0),
                 spectra=np.zeros((2, 0)))
    p = tmp_path / f"m.{fmt}"
    write_map(p, m, fmt=fmt)
    back = read_map(p)
    assert back.spectra.shape == (2, 0) and back.freqs.shape == (0,)
    assert np.array_equal(back.thetas, m.thetas)


def test_map_reader_rejects_foreign_files(tmp_path):
    head = "# rhet theta map v1\n# normalization = 2\n"
    for name, text, message in (
            ("x.csv", "hello,world\n1,2\n", "not a map"),
            ("empty.csv", head + "theta_rad,1,2\n", "no data"),
            ("ragged.csv", head + "theta_rad,1,2\n0,1,2\n0.5,1\n", "ragged"),
            ("word.csv", head + "theta_rad,1,2\n0,1,abc\n", "convert"),
            ("freqs.csv", head + "theta_rad,1,x\n0,1,2\n", "convert"),
            ("norm.csv", "# rhet theta map v1\n# normalization = 0\n"
             "theta_rad,1,2\n0,1,2\n", "normalization"),
            ("normword.csv", "# rhet theta map v1\n# normalization = 'a'\n"
             "theta_rad,1,2\n0,1,2\n", "malformed map"),
            ("inf.csv", head + "theta_rad,1,1e308\n0,1,2\n",
             "inf.csv: malformed map .*finite")):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(TraceFormatError, match=message):
            read_map(p)
    with pytest.raises(TraceFormatError, match="map"):
        read_map(_binary_trace(tmp_path))
    np.savez(tmp_path / "nofreqs.npz", thetas=np.arange(2.0))
    (tmp_path / "nozip.npz").write_bytes(b"PK\x03\x04 is no zip archive")
    (tmp_path / "pk.npz").write_bytes(b"PK is no zip either")
    np.savez(tmp_path / "inf.npz", thetas=np.zeros(1), freqs_hz=[1e308],
             spectra=np.zeros((1, 1)), normalization=1.0, meta="{}")
    for name in ("nofreqs.npz", "nozip.npz", "pk.npz", "inf.npz"):
        with pytest.raises(TraceFormatError, match="malformed map"):
            read_map(tmp_path / name)
    p = tmp_path / "ok.csv"
    p.write_text(head + "theta_rad,1,2\n# a comment\n0,1,\n")
    m = read_map(p)
    assert m.normalization == 2.0 and isinstance(m.normalization, float)
    assert np.array_equal(m.spectra, [[1.0, np.nan]], equal_nan=True)


def test_npz_map_reader_names_the_file_of_a_bad_npy_header(tmp_path):
    # a zip with valid CRCs around an .npy header numpy cannot tokenize
    import zipfile
    p = tmp_path / "header.npz"
    with zipfile.ZipFile(p, "w") as z:
        z.writestr("thetas.npy", b"\x93NUMPY\x01\x00\x16\x00"
                   b"{'shape': ((3,), }   \n")
    with pytest.raises(TraceFormatError, match=f"{p}: malformed map"):
        read_map(p)


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """One small file per reader: a trace, a spectrum, a CSV and an npz
    map."""
    d = tmp_path_factory.mktemp("readers")
    m = ThetaMap(thetas=np.linspace(0.0, np.pi, 3, endpoint=False),
                 freqs=TWO_PI * np.linspace(1e3, 2e3, 4),
                 spectra=np.arange(12.0).reshape(3, 4) - 5.5,
                 normalization=1.5, meta={"variant": "t0", "path": "fast"})
    write_trace(d / "t.rht", TimeTrace(samples=np.linspace(-1.0, 1.0, 32),
                                       dt=1e-6, omega_beat=1e4))
    write_spectrum(d / "s.csv", _toy_spectrum(complex_vals=True,
                                              variance=True))
    write_map(d / "m.csv", m)
    write_map(d / "m.npz", m, fmt="npz")
    return {"trace": (d / "t.rht", read_trace),
            "spectrum": (d / "s.csv", read_spectrum),
            "map csv": (d / "m.csv", read_map),
            "map npz": (d / "m.npz", read_map)}


_EDIT = st.tuples(st.sampled_from(["flip", "delete", "insert", "truncate"]),
                  st.floats(0.0, 1.0, exclude_max=True),
                  st.integers(1, 255))


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["trace", "spectrum", "map csv", "map npz"]),
       edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_readers_turn_any_corruption_into_a_trace_format_error(
        reader_files, kind, edits):
    # byte flips, deletions, inserts and truncations: each reader either
    # reads the file or raises TraceFormatError, nothing else
    path, reader = reader_files[kind]
    raw = bytearray(path.read_bytes())
    for op, where, byte in edits:
        i = int(where * len(raw))
        if op == "insert":
            raw.insert(i, byte)
        elif op == "truncate":
            del raw[i:]
        elif raw and op == "flip":
            raw[i] ^= byte
        elif raw:
            del raw[i]
    bad = path.with_name("fuzzed")
    bad.write_bytes(bytes(raw))
    try:
        with np.errstate(all="ignore"):  # an edited number may overflow
            reader(bad)
    except TraceFormatError:
        pass


def test_npz_map_has_np_savez_bytes_without_copying_the_table(tmp_path):
    # C-, Fortran- and non-contiguous tables; the writer streams each entry
    # from the array's memory, so a 10.8 MB table allocates next to nothing
    import tracemalloc
    rng = np.random.default_rng(5)
    for spectra in (rng.standard_normal((800, 1690)),
                    np.asfortranarray(rng.standard_normal((4, 7))),
                    rng.standard_normal((4, 8))[:, 1:]):
        m = ThetaMap(thetas=np.linspace(0.0, np.pi, spectra.shape[0]),
                     freqs=TWO_PI * np.linspace(-1e3, 1e3, spectra.shape[1]),
                     spectra=spectra, normalization=2.5,
                     meta={"path": "fast", "label": "\u03b8 map", "x": None})
        tracemalloc.start()
        try:
            write_map(tmp_path / "m.npz", m, fmt="npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with open(tmp_path / "s.npz", "wb") as fh:
            np.savez(fh, thetas=m.thetas, freqs_hz=m.freqs / TWO_PI,
                     spectra=m.spectra,
                     normalization=np.float64(m.normalization),
                     meta=json.dumps(m.meta, sort_keys=True))
        assert (tmp_path / "m.npz").read_bytes() == \
            (tmp_path / "s.npz").read_bytes()
        if spectra.size > 1000:
            assert peak < 0.05 * spectra.nbytes


def test_map_writer_rejects_unknown_format(tmp_path):
    m = ThetaMap(thetas=np.arange(2.0), freqs=np.arange(3.0),
                 spectra=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        write_map(tmp_path / "m.bin", m, fmt="hdf5")


# ------------------------------------------------------------- comparison

def test_compare_spectrum_with_itself():
    spec = _toy_spectrum()
    rep = compare_spectra(spec, spec)
    assert rep["pass"]
    assert rep["peak_rel_err"] == 0.0
    assert rep["pearson"] == pytest.approx(1.0)
    assert rep["rms_rel_diff"] == 0.0
    assert rep["peak_freq_err_hz"] == 0.0


def test_compare_flags_amplitude_mismatch():
    a = _toy_spectrum()
    b = Spectrum(freqs=a.freqs, values=1.2 * a.values)
    rep = compare_spectra(a, b)
    assert not rep["pass"]
    assert rep["peak_rel_err"] == pytest.approx(1.0 - 1.0 / 1.2, rel=1e-6)
    assert rep["pearson"] == pytest.approx(1.0)
    assert compare_spectra(a, b, max_rel_err=0.2)["pass"]


def test_compare_rejects_disjoint_grids():
    a = _toy_spectrum()
    b = Spectrum(freqs=a.freqs + TWO_PI * 1e6, values=np.real(a.values))
    with pytest.raises(GridError):
        compare_spectra(a, b)
    with pytest.raises(GridError):
        compare_spectra(a, a, band=(TWO_PI * 2e6, TWO_PI * 3e6))
    # a NaN or reversed band end is no band, not the whole overlap
    for band in ((np.nan, np.nan), (0.0, np.nan), (TWO_PI * 2e3, -TWO_PI * 2e3)):
        with pytest.raises(ValueError, match="band must be"):
            compare_spectra(a, a, band=band)


def test_vertex_peak_falls_back_to_the_largest_bin():
    from rhet.io import _vertex_peak
    # a window under 5 bins: 4 bins of which bin 1 is largest
    f = np.arange(4.0)
    assert _vertex_peak(f, np.array([1.0, -4.0, 2.0, 0.5])) == (1.0, -4.0)
    # a flat window: 7 bins on one frequency
    v = np.array([0.0, 1.0, 5.0, 1.0, 0.0, 0.0, 0.0])
    assert _vertex_peak(np.full(7, 2.0), v) == (2.0, 5.0)
    # zero curvature: an all-zero band of 60 bins fits c2 = 0 exactly on
    # the 5-bin window at bin 0 (a RuntimeWarning is an error here)
    f = np.linspace(1.0, 60.0, 60)
    assert _vertex_peak(f, np.zeros(60)) == (1.0, 0.0)
    # the vertex outside the window: (f + 10)^2 peaks in |v| at the last
    # bin, f = 60, and its fit over f = 55..60 has its vertex at f = -10
    assert _vertex_peak(f, (f + 10.0) ** 2) == (60.0, 4900.0)


def test_compare_spectra_pearson_of_a_constant_band():
    # a constant band has no correlation coefficient: equal bands read
    # 1.0, a constant band against any other reads 0.0
    f = TWO_PI * np.linspace(0.0, 1e3, 16)
    flat = Spectrum(freqs=f, values=np.full(16, 2.0))
    ramp = Spectrum(freqs=f, values=np.linspace(1.0, 3.0, 16))
    assert compare_spectra(flat, flat)["pearson"] == 1.0
    assert compare_spectra(flat, flat)["pass"]
    for a, b in ((flat, ramp), (ramp, flat),
                 (flat, Spectrum(freqs=f, values=np.full(16, 3.0)))):
        rep = compare_spectra(a, b)
        assert rep["pearson"] == 0.0 and not rep["pass"]


# -------------------------------------------------------------------- CLI

@pytest.fixture(scope="module")
def cli_ws(tmp_path_factory, thermal_cfg):
    """Shared CLI workspace: config file and a small synthetic trace."""
    ws = tmp_path_factory.mktemp("cli")
    cfg_path = ws / "config.json"
    write_config(cfg_path, thermal_cfg)
    trace_path = ws / "trace.rht"
    rc = main(["synth", "--config", str(cfg_path), "--out", str(trace_path),
               "--seed", "3", "--duration", "0.1", "--dt", "2e-7"])
    assert rc == 0
    return ws


def test_cli_synth_is_deterministic(cli_ws):
    out1 = cli_ws / "det1.rht"
    out2 = cli_ws / "det2.rht"
    for out in (out1, out2):
        rc = main(["synth", "--config", str(cli_ws / "config.json"),
                   "--out", str(out), "--seed", "11",
                   "--duration", "0.02", "--dt", "2e-7"])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    rc = main(["synth", "--config", str(cli_ws / "config.json"),
               "--out", str(cli_ws / "det3.rht"), "--seed", "12",
               "--duration", "0.02", "--dt", "2e-7"])
    assert rc == 0
    assert out1.read_bytes() != (cli_ws / "det3.rht").read_bytes()


def test_cli_synth_prints_each_config_warning_once(cli_ws, thermal_cfg):
    warned = [p for p in validate_config(thermal_cfg, dt=2e-7)
              if p.startswith("warning")]
    assert warned  # the built-in config sits outside the operating regime
    run = subprocess.run(
        [sys.executable, "-m", "rhet.cli", "synth",
         "--config", str(cli_ws / "config.json"),
         "--out", str(cli_ws / "warn.rht"), "--seed", "1",
         "--duration", "0.02"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    for w in warned:
        assert run.stderr.count(w) == 1


def test_cli_synth_usage_errors(cli_ws, tmp_path):
    rc = main(["synth", "--config", str(cli_ws / "config.json"),
               "--out", str(tmp_path / "zero.rht"), "--seed", "1",
               "--duration", "0"])
    assert rc == 2
    doc = json.loads((cli_ws / "config.json").read_text())
    doc["typo_key"] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["synth", "--config", str(bad),
               "--out", str(tmp_path / "x.rht"), "--seed", "1",
               "--duration", "0.02"])
    assert rc == 2
    # 1e308 is finite, but the trace's power overflows
    for pilot in ("nan", "inf", "1e308"):
        rc = main(["synth", "--config", str(cli_ws / "config.json"),
                   "--out", str(tmp_path / "p.rht"), "--seed", "1",
                   "--duration", "0.02", "--pilot", pilot])
        assert rc == 2
    assert not (tmp_path / "p.rht").exists()


def test_cli_spectrum_epsilon_one_matches_welch(cli_ws):
    a = cli_ws / "eps1.csv"
    b = cli_ws / "welch.csv"
    rc = main(["spectrum", "--in", str(cli_ws / "trace.rht"), "--out", str(a),
               "--mode", "rhet", "--epsilon", "1", "--theta", "0.4",
               "--segments", "8"])
    assert rc == 0
    rc = main(["spectrum", "--in", str(cli_ws / "trace.rht"), "--out", str(b),
               "--mode", "welch", "--segments", "8"])
    assert rc == 0
    sa = read_spectrum(a)
    sb = read_spectrum(b)
    assert np.max(np.abs(sa.values - sb.values)) < 1e-10 * np.max(sb.values)


@pytest.mark.parametrize("segments", ["0", "-1"])
@pytest.mark.parametrize("cmd", [["spectrum", "--mode", "welch"],
                                 ["spectrum", "--mode", "rhet"],
                                 ["spectrum", "--mode", "cross"],
                                 ["map"]])
def test_cli_rejects_segment_counts_below_one(cli_ws, capsys, cmd, segments):
    rc = main(cmd + ["--in", str(cli_ws / "trace.rht"),
                     "--out", str(cli_ws / "bad_segments.csv"),
                     "--segments", segments])
    assert rc == 2
    assert "segments must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--theta", "nan"], "filter phase must be finite"),
    (["spectrum", "--variant", "t0", "--theta", "inf"],
     "filter phase must be finite"),
    (["map", "--epsilon", "2"], "epsilon must lie in [-1, 1]"),
    (["map", "--epsilon", "nan"], "epsilon must lie in [-1, 1]"),
    (["analytic", "--kind", "rhet", "--theta", "nan"],
     "filter phase must be finite"),
    (["analytic", "--kind", "rhet", "--epsilon", "2"],
     "epsilon must lie in [-1, 1]"),
    # a signed infinity is a value, not an unknown flag
    (["spectrum", "--theta", "-inf"], "filter phase must be finite"),
    (["map", "--thetas", "1"], "n_theta must be >= 2"),
    (["synth", "--dt", "0"], "dt must be positive and finite"),
    (["synth", "--dt", "nan"], "dt must be positive and finite"),
    (["synth", "--duration", "inf"], "duration must be positive and finite"),
    (["synth", "--duration", "-1"], "duration must be positive and finite"),
    (["analytic", "--bins-per-gamma", "0"],
     "--bins-per-gamma must be positive and finite"),
    (["analytic", "--bins-per-gamma", "-5"],
     "--bins-per-gamma must be positive and finite"),
    (["analytic", "--fmax", "inf"], "--fmax must be positive and finite"),
    (["analytic", "--fmax", "-1"], "--fmax must be positive and finite"),
    # the welch and cross modes have no filter to window, truncate or lock
    (["spectrum", "--mode", "welch", "--window", "hann"], "--mode rhet"),
    (["spectrum", "--mode", "welch", "--max-lag", "1e-3"], "--mode rhet"),
    (["spectrum", "--mode", "cross", "--lockin"], "--mode rhet"),
    # grids numpy refuses at once: 70 TB and 2.9 PB of frequencies
    (["analytic", "--fmax", "1e15"],
     "an analytic grid of 8771929824563 bins does not fit in memory"),
    (["analytic", "--bins-per-gamma", "1e12"],
     "an analytic grid of 364986842105265 bins does not fit in memory"),
    # counts past any array size, which np.arange would refuse unnamed
    (["analytic", "--fmax", "1e300"], "does not fit in memory"),
    (["analytic", "--bins-per-gamma", "1e300"], "does not fit in memory"),
    # a grid of 1e15 bins or more prints its count in %.3g, not 300 digits
    (["analytic", "--fmax", "1e300"],
     "an analytic grid of 8.77e+297 bins does not fit in memory"),
])
def test_cli_rejects_bad_filter_parameters(cli_ws, capsys, argv, message):
    out = cli_ws / "bad_filter.csv"
    if argv[0] in ("spectrum", "map"):
        source = ["--in", str(cli_ws / "trace.rht"), "--segments", "8"]
    else:
        source = ["--config", str(cli_ws / "config.json")]
        if argv[0] == "synth":
            source += ["--seed", "1"]
    rc = main(argv + source + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_FLAG_ARGV = {"epsilon": ["--epsilon", "0.5"], "theta": ["--theta", "1"],
              "variant": ["--variant", "t0"], "max_lag": ["--max-lag", "1e-3"],
              "window": ["--window", "hann"], "lockin": ["--lockin"],
              "bandwidth": ["--bandwidth", "50"]}
_MODE_ARGV = {"spectrum": [["--mode", "rhet"], ["--mode", "welch"],
                           ["--mode", "cross"],
                           ["--mode", "rhet", "--lockin"]],
              "analytic": [["--kind", "homodyne"], ["--kind", "heterodyne"],
                           ["--kind", "rhet"]]}


def _selects(argv, mode):
    dest, value = mode
    flag = "--" + dest
    return flag in argv and (value is True
                             or argv[argv.index(flag) + 1] == value)


def test_cli_every_mode_flag_acts_or_exits_2(cli_ws, capsys):
    # walk the table of flags each mode reads: each mode, given a flag that
    # no mode it selects reads, exits 2 naming the modes that read it
    from rhet.cli import _MODE_FLAGS
    out = cli_ws / "unread_flag.csv"
    walked = set()
    for cmd, rows in _MODE_FLAGS.items():
        source = (["--in", str(cli_ws / "trace.rht"), "--segments", "8"]
                  if cmd == "spectrum" else
                  ["--config", str(cli_ws / "config.json")])
        for name in {n for flags in rows.values() for n in flags}:
            readers = [m for m, flags in rows.items() if name in flags]
            for mode in _MODE_ARGV[cmd]:
                if any(_selects(mode, m) for m in readers):
                    continue
                rc = main([cmd] + mode + _FLAG_ARGV[name] + source
                          + ["--out", str(out)])
                err = capsys.readouterr().err
                assert rc == 2, (cmd, mode, name)
                assert _FLAG_ARGV[name][0] + " needs" in err
                for dest, value in readers:
                    assert "--" + dest + ("" if value is True
                                          else " " + value) in err
                assert not out.exists()
                walked.add((cmd, mode[1], name))
    # the cases that once exited 0 with the flag ignored
    assert {("spectrum", "welch", "epsilon"),
            ("spectrum", "rhet", "bandwidth"),
            ("analytic", "heterodyne", "epsilon"),
            ("analytic", "heterodyne", "variant"),
            ("analytic", "heterodyne", "theta"),
            ("analytic", "homodyne", "epsilon")} <= walked


@pytest.mark.parametrize("variant", ["tbar", "t0"])
def test_cli_lag_window_spectrum_matches_the_api(cli_ws, variant):
    out = cli_ws / f"lag_{variant}.csv"
    rc = main(["spectrum", "--in", str(cli_ws / "trace.rht"), "--out",
               str(out), "--segments", "8", "--epsilon", "-0.5", "--theta",
               "0.3", "--variant", variant, "--window", "hann",
               "--max-lag", "2e-3"])
    assert rc == 0
    want = rhet_spectrum(read_trace(cli_ws / "trace.rht"), -0.5, 0.3,
                         variant=variant, segments=8, max_lag=2e-3,
                         window="hann")
    got = read_spectrum(out)
    assert got.meta["window"] == "hann" and got.meta["max_lag"] == 2e-3
    assert got.values.tobytes() == want.values.tobytes()


def test_cli_reads_a_negative_exponent_value_after_a_flag(cli_ws):
    out = cli_ws / "tiny_epsilon.csv"
    rc = main(["spectrum", "--in", str(cli_ws / "trace.rht"), "--out",
               str(out), "--segments", "8", "--epsilon", "-1e-05"])
    assert rc == 0
    assert read_spectrum(out).meta["epsilon"] == -1e-05


@pytest.fixture(scope="module")
def tiny_trace_path(cli_ws):
    path = cli_ws / "tiny.rht"
    rc = main(["synth", "--config", str(cli_ws / "config.json"),
               "--out", str(path), "--seed", "5", "--duration", "0.002"])
    assert rc == 0
    return path


_EDGE_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                     1.0, -1.0, 1e308]),
    st.floats(-1.0, 1.0), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=50, deadline=None)
@given(cmd=st.sampled_from([["spectrum", "--variant", "tbar"],
                            ["spectrum", "--variant", "t0"],
                            ["spectrum", "--mode", "welch"],
                            ["spectrum", "--mode", "cross"],
                            ["map", "--thetas", "8"]]),
       theta=_EDGE_FLOATS, epsilon=_EDGE_FLOATS,
       segments=st.one_of(st.sampled_from([0, -1, 625, 626, 2**31]),
                          st.integers(-3, 64)),
       extra=st.sampled_from([[], ["--max-lag"], ["--lockin", "--bandwidth"]]),
       value=_EDGE_FLOATS)
def test_cli_fuzzed_filter_arguments_exit_cleanly(tiny_trace_path,
                                                  tmp_path_factory, cmd, theta,
                                                  epsilon, segments, extra,
                                                  value):
    out = tmp_path_factory.mktemp("fuzz") / "out.csv"
    # "--flag=value", since argparse reads a bare "-1e-05" or "-inf" as a
    # flag; the welch and cross modes read no filter flags
    argv = cmd + ["--in", str(tiny_trace_path), "--out", str(out),
                  f"--segments={segments}"]
    if "welch" not in cmd and "cross" not in cmd:
        argv.append(f"--epsilon={epsilon!r}")
        if cmd[0] == "spectrum":
            argv.append(f"--theta={theta!r}")
    if extra and cmd[0] == "spectrum":
        argv += extra[:-1] + [f"{extra[-1]}={value!r}"]
    rc = main(argv)
    assert rc in (0, 2, 3)
    if rc == 0 and cmd[0] == "spectrum":
        # no bad value may come back as a silent all-NaN spectrum
        assert np.isfinite(read_spectrum(out).values).all()


@pytest.mark.parametrize("flag", [["--max-lag"], ["--lockin", "--bandwidth"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e-300"])
def test_cli_rejects_bad_lag_and_bandwidth_in_one_line(tiny_trace_path,
                                                       tmp_path, capsys, flag,
                                                       value):
    out = tmp_path / "o.csv"
    rc = main(["spectrum", "--in", str(tiny_trace_path), "--out", str(out)]
              + flag[:-1] + [f"{flag[-1]}={value}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_spectrum_missing_input_is_io_error(tmp_path):
    rc = main(["spectrum", "--in", str(tmp_path / "absent.rht"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3


def test_cli_spectrum_rejects_non_finite_trace_as_io_error(cli_ws, tmp_path,
                                                          capsys):
    raw = bytearray((cli_ws / "trace.rht").read_bytes())
    at = len(raw) // 2 // 8 * 8  # one sample in the middle of the payload
    raw[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    bad = tmp_path / "nan.rht"
    bad.write_bytes(bytes(raw))
    rc = main(["spectrum", "--in", str(bad), "--out", str(tmp_path / "o.csv"),
               "--segments", "8"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "non-finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("field", ["dt", "omega_beat"])
def test_cli_rejects_infinite_trace_header_as_io_error(tmp_path, capsys,
                                                       field):
    # write_trace cannot make this file, so the 72-byte header is packed here
    dt, om = {"dt": (np.inf, 6.3e4), "omega_beat": (2e-7, np.inf)}[field]
    bad, n = tmp_path / "inf.rht", 4096
    bad.write_bytes(struct.pack("<4sIdddQ32x", b"RHTR", 1, dt, om, 0.0, n)
                    + np.ones(n, dtype="<f8").tobytes())
    out = tmp_path / "o.csv"
    for argv in (["spectrum", "--mode", "rhet"],
                 ["spectrum", "--mode", "welch"], ["map"]):
        rc = main(argv + ["--in", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1
        assert f"{field} must be positive and finite" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_cli_lockin_spectrum_raises_drifting_peaks(cli_ws, thermal_cfg):
    m1 = thermal_cfg.modes[0]
    drifting = cli_ws / "drift.rht"
    rc = main(["synth", "--config", str(cli_ws / "config.json"),
               "--out", str(drifting), "--seed", "99", "--duration", "0.5",
               "--dt", "2e-7", "--drift-amp", f"{np.pi / 4}",
               "--drift-freq", "25", "--pilot", "2500"])
    assert rc == 0
    locked = cli_ws / "locked.csv"
    plain = cli_ws / "plain.csv"
    common = ["--epsilon", "-1", "--theta", "0", "--variant", "tbar",
              "--segments", "16"]
    assert main(["spectrum", "--in", str(drifting), "--out", str(locked),
                 "--lockin"] + common) == 0
    assert main(["spectrum", "--in", str(drifting), "--out", str(plain)]
                + common) == 0
    sl = read_spectrum(locked)
    sp = read_spectrum(plain)
    assert sl.meta["corrected"] is True
    pk_l = abs(peak_amplitude(sl, m1.omega_m, 0.75 * m1.gamma,
                              subtract_baseline=True))
    pk_p = abs(peak_amplitude(sp, m1.omega_m, 0.75 * m1.gamma,
                              subtract_baseline=True))
    assert pk_l >= 1.10 * pk_p


def test_cli_map_roundtrip_and_epsilon_one(cli_ws):
    for fmt, name in (("csv", "map.csv"), ("npz", "map.npz")):
        rc = main(["map", "--in", str(cli_ws / "trace.rht"),
                   "--out", str(cli_ws / name), "--epsilon", "1",
                   "--thetas", "6", "--segments", "8",
                   "--band", "300000:460000", "--format", fmt])
        assert rc == 0
    mc = read_map(cli_ws / "map.csv")
    mn = read_map(cli_ws / "map.npz")
    assert np.array_equal(mc.spectra, mn.spectra)
    for row in mc.spectra[1:]:
        assert np.array_equal(row, mc.spectra[0])  # eps=+1: theta drops out


def test_cli_map_fast_matches_exact(cli_ws, trace42, thermal_cfg):
    # the op-level 2% contract runs on the 2 s record where the harmonic
    # residual has averaged down; tbar agrees to rounding on any record
    m1 = thermal_cfg.modes[0]
    big = cli_ws / "big.rht"
    write_trace(big, trace42)
    base = ["map", "--in", str(big), "--thetas", "4", "--segments", "64",
            "--band", "300000:460000", "--format", "npz"]
    assert main(base + ["--out", str(cli_ws / "f_t0.npz"),
                        "--variant", "t0"]) == 0
    assert main(base + ["--out", str(cli_ws / "e_t0.npz"),
                        "--variant", "t0", "--exact"]) == 0
    mf = read_map(cli_ws / "f_t0.npz")
    me = read_map(cli_ws / "e_t0.npz")
    rms = np.sqrt(np.mean((mf.spectra - me.spectra) ** 2))
    assert rms / np.sqrt(np.mean(me.spectra ** 2)) <= 0.02
    assert main(base + ["--out", str(cli_ws / "f_tb.npz"),
                        "--variant", "tbar", "--epsilon", "-1"]) == 0
    assert main(base + ["--out", str(cli_ws / "e_tb.npz"),
                        "--variant", "tbar", "--epsilon", "-1",
                        "--exact"]) == 0
    mf = read_map(cli_ws / "f_tb.npz")
    me = read_map(cli_ws / "e_tb.npz")
    assert np.max(np.abs(mf.spectra - me.spectra)) <= \
        1e-10 * np.max(np.abs(me.spectra))


@pytest.mark.parametrize("exact", [False, True])
def test_cli_map_too_large_to_allocate_exits_2(cli_ws, capsys, exact):
    # 1e11 theta rows: numpy refuses the 745 GiB theta grid at once
    out = cli_ws / "huge.csv"
    rc = main(["map", "--in", str(cli_ws / "trace.rht"), "--out", str(out),
               "--thetas", "100000000000", "--segments", "8"]
              + ["--exact"] * exact)
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: a map of 100000000000 theta by 62500 columns "
                   "does not fit in memory\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, count", [
    (["--duration", "1e9"], "5e+15"),  # numpy refuses 40 PB at once
    (["--duration", "1e300", "--dt", "1e-10"], "inf"),
    (["--duration", "1e300"], "5e+306"),  # past any array size
])
def test_cli_synth_too_large_to_allocate_exits_2(cli_ws, capsys, argv,
                                                 count):
    out = cli_ws / "huge.rht"
    rc = main(["synth", "--config", str(cli_ws / "config.json"), "--out",
               str(out), "--seed", "1"] + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: a trace of {count} samples does not fit in memory\n"
    assert not out.exists()


def test_cli_map_cannot_normalize_at_eps_minus_one(cli_ws):
    rc = main(["map", "--in", str(cli_ws / "trace.rht"),
               "--out", str(cli_ws / "no.csv"), "--epsilon", "-1",
               "--thetas", "4", "--segments", "8", "--normalize", "het"])
    assert rc == 2


def test_cli_map_normalizes_to_the_heterodyne_peak(cli_ws):
    trace = cli_ws / "trace.rht"
    flags = ["--epsilon", "0", "--thetas", "4", "--segments", "8",
             "--band", "350000:410000", "--format", "npz"]
    for name, more in (("plain", []), ("het", ["--normalize", "het"])):
        rc = main(["map", "--in", str(trace), "--out",
                   str(cli_ws / f"norm_{name}.npz")] + flags + more)
        assert rc == 0
    plain = read_map(cli_ws / "norm_plain.npz")
    het = read_map(cli_ws / "norm_het.npz")
    # c0 (max - median) of the Welch PSD over the band, at epsilon 0
    welch = standard_psd(read_trace(trace), segments=8)
    lo, hi = 350000.0 * TWO_PI, 410000.0 * TWO_PI
    vals = welch.values[(welch.freqs >= lo) & (welch.freqs <= hi)]
    assert vals.size > 3
    assert het.normalization == 0.5 * (np.max(vals) - np.median(vals))
    assert plain.normalization == 1.0
    assert np.array_equal(het.freqs, plain.freqs)
    np.testing.assert_allclose(het.spectra * het.normalization,
                               plain.spectra, rtol=1e-15, atol=0.0)


def test_cli_analytic_kinds(cli_ws, tmp_path):
    het = tmp_path / "het.csv"
    rc = main(["analytic", "--config", str(cli_ws / "config.json"),
               "--out", str(het), "--kind", "heterodyne",
               "--bins-per-gamma", "5"])
    assert rc == 0
    sh = read_spectrum(het)
    assert np.max(np.abs(sh.values - sh.values[::-1])) < \
        1e-10 * np.max(sh.values)  # S(w) = S(-w)
    rh = tmp_path / "rhet1.csv"
    rc = main(["analytic", "--config", str(cli_ws / "config.json"),
               "--out", str(rh), "--kind", "rhet", "--epsilon", "1",
               "--bins-per-gamma", "5"])
    assert rc == 0
    sr = read_spectrum(rh)
    assert np.max(np.abs(sr.values - sh.values)) < 1e-12 * np.max(sh.values)


def test_cli_analytic_homodyne_shows_squeezing(tmp_path, thermal_cfg):
    # single mode, backaction on: some quadratures dip below the shot floor
    from rhet import ExperimentConfig, MechMode
    mode = MechMode(omega_m=TWO_PI * 378.16e3, gamma=TWO_PI * 4.56e3,
                    mass=3e-10, nbar=2.0)
    cfg = ExperimentConfig(kappa=TWO_PI * 1.3e6, detuning=-TWO_PI * 1e5,
                           modes=(mode,), coupling=(TWO_PI * 5e4,),
                           omega_beat=TWO_PI * 1e4, backaction_weight=1.0)
    cfg_path = tmp_path / "squeeze.json"
    write_config(cfg_path, cfg)
    minima = {}
    for th in ("0.0", "1.5708"):
        out = tmp_path / f"hom{th}.csv"
        rc = main(["analytic", "--config", str(cfg_path), "--out", str(out),
                   "--kind", "homodyne", "--theta", th,
                   "--bins-per-gamma", "5"])
        assert rc == 0
        minima[th] = float(np.min(read_spectrum(out).values))
    assert minima["0.0"] < 1.0
    assert minima["0.0"] < minima["1.5708"]  # depth is quadrature dependent


def test_cli_compare_pass_fail_and_disjoint(cli_ws, tmp_path):
    het = tmp_path / "a.csv"
    assert main(["analytic", "--config", str(cli_ws / "config.json"),
                 "--out", str(het), "--kind", "heterodyne",
                 "--bins-per-gamma", "5"]) == 0
    report = tmp_path / "rep.json"
    rc = main(["compare", "--a", str(het), "--b", str(het),
               "--report", str(report)])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["pass"] and rep["pearson"] == 1.0
    sh = read_spectrum(het)
    off = tmp_path / "b.csv"
    write_spectrum(off, Spectrum(freqs=sh.freqs, values=1.4 * sh.values))
    assert main(["compare", "--a", str(het), "--b", str(off)]) == 1
    assert main(["compare", "--a", str(het), "--b", str(het),
                 "--band", "2000000:3000000"]) == 2
    for band in ("nan:nan", "460000:300000"):
        assert main(["compare", "--a", str(het), "--b", str(het),
                     "--band", band]) == 2
    # a file that is no spectrum is an I/O error
    assert main(["compare", "--a", str(cli_ws / "trace.rht"),
                 "--b", str(het)]) == 3


def test_cli_compare_report_holds_no_nan(cli_ws, tmp_path, capsys):
    # a spectrum holding NaN fails the comparison with null readings, which
    # a strict parser accepts; a threshold that is not finite exits 2
    het = tmp_path / "a.csv"
    assert main(["analytic", "--config", str(cli_ws / "config.json"),
                 "--out", str(het), "--kind", "heterodyne",
                 "--bins-per-gamma", "5"]) == 0
    sh = read_spectrum(het)
    for bad in ([np.nan], np.full(sh.values.size, np.nan)):
        values = sh.values.copy()
        values[:len(bad)] = bad
        nan = tmp_path / "nan.csv"
        write_spectrum(nan, Spectrum(freqs=sh.freqs, values=values))
        report = tmp_path / "rep.json"
        assert main(["compare", "--a", str(het), "--b", str(nan),
                     "--report", str(report)]) == 1
        rep = json.loads(report.read_text(), parse_constant=pytest.fail)
        assert rep["pass"] is False and rep["pearson"] is None
    for flag in ("--max-rel-err", "--min-pearson"):
        for value in ("nan", "inf", "-inf"):
            capsys.readouterr()
            assert main(["compare", "--a", str(het), "--b", str(het),
                         f"{flag}={value}"]) == 2
            err = capsys.readouterr().err
            assert err == "error: max_rel_err and min_pearson must be finite\n"


@pytest.mark.parametrize("field, path", [
    ("nbar", ("modes", 0, "nbar")),
    ("coupling 0", ("modes", 0, "coupling_hz")),
    ("backaction_weight", ("backaction_weight",)),
    ("drift amplitude", ("drift", "amplitude_rad")),
    ("theta0", ("theta0_rad",)), ("detuning", ("detuning_hz",)),
    ("kappa", ("kappa_hz",)), ("omega_beat", ("omega_beat_hz",)),
    ("shot_floor", ("shot_floor",)), ("omega_m", ("modes", 0, "omega_m_hz")),
    ("gamma", ("modes", 0, "gamma_hz")), ("mass", ("modes", 0, "mass_ng")),
    ("drift freq_hz", ("drift", "freq_hz"))])
@pytest.mark.parametrize("value", [
    np.nan, np.inf, -np.inf, pytest.param([1], id="list"), None, "abc", True,
    pytest.param(10 ** 400, id="401-digit int")])
def test_cli_non_finite_config_field_exits_2(cli_ws, tmp_path, capsys, field,
                                             path, value):
    # Python's json writes and reads NaN and Infinity; neither may reach a
    # spectrum or a trace as a silent NaN. A value that is no number is
    # named by its key before validate_config sees the config.
    needle = (f"{field} must be" if isinstance(value, float)
              else f"{path[-1]!r} in")
    doc = json.loads((cli_ws / "config.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["analytic"], ["synth", "--seed", "1", "--duration", "0.01"]):
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and needle in err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert "Traceback" not in err
        assert not out.exists()


def test_cli_analytic_homodyne_rejects_a_non_finite_theta(cli_ws, tmp_path,
                                                          capsys):
    for value in ("nan", "inf", "-inf"):
        out = tmp_path / "h.csv"
        assert main(["analytic", "--config", str(cli_ws / "config.json"),
                     "--out", str(out), "--kind", "homodyne",
                     f"--theta={value}"]) == 2
        assert capsys.readouterr().err == "error: theta must be finite\n"
        assert not out.exists()


def test_cli_compare_report_is_stdout_written_atomically(cli_ws, tmp_path,
                                                         capsys):
    het = tmp_path / "a.csv"
    assert main(["analytic", "--config", str(cli_ws / "config.json"),
                 "--out", str(het), "--kind", "heterodyne",
                 "--bins-per-gamma", "5"]) == 0
    report = tmp_path / "rep.json"
    report.write_text("stale")
    capsys.readouterr()
    assert main(["compare", "--a", str(het), "--b", str(het),
                 "--report", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "rep.json"]


def test_cli_version_prints_and_exits():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
