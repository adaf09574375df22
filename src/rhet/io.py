"""File formats and comparison reports.

Traces: packed binary, little-endian, 72-byte header then f64 samples.
Header layout '<4sIdddQ32x': magic "RHTR", format version, dt, omega_beat
(rad/s), theta_nominal (rad), sample count, 32 reserved bytes. Binary
because traces are large (80 MB for 2 s at 5 MS/s) and bit-exactness
matters; everything else is text.

Config: JSON, schema-versioned, one field table per object. An unknown or
missing key, and a number that is a bool or that float() refuses, raise a
ConfigError naming the key: a typo must fail loudly, not silently default.
Frequencies in Hz, masses in ng in the file; rad/s and kg in memory.

Spectra and maps: CSV with '#' metadata comments. One formatter,
_format_rows, writes every number but a map's '# normalization' line,
with the bytes of '%.17g' % x: every double parses back to itself.
Frequencies are in Hz in the file and rad/s in memory, so a round trip
preserves values bit-for-bit and frequencies to one ulp. Maps can also be
written as .npz when the full grid would make CSV impractically large.

Every file is written as bytes, atomically (a temp file in the target
directory, then a rename); text is UTF-8 with LF line ends on any
platform.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import struct
import tempfile
import tokenize
import zipfile

import numpy as np

from .core import (TWO_PI, ConfigError, ExperimentConfig, GridError,
                   MechMode, PhaseDriftSpec, Spectrum, ThetaMap, TimeTrace,
                   TraceFormatError)

TRACE_MAGIC = b"RHTR"
TRACE_VERSION = 1
CONFIG_SCHEMA_VERSION = 1
_HEADER = struct.Struct("<4sIdddQ32x")


def _atomic_write(path, payload_writer):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".rhet-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            payload_writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_trace(path, trace: TimeTrace) -> None:
    header = _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, trace.dt,
                          trace.omega_beat, trace.theta_nominal, trace.n)
    data = np.ascontiguousarray(trace.samples, dtype="<f8")

    def _write(fh):
        fh.write(header)
        fh.write(data)

    _atomic_write(path, _write)


def read_trace(path) -> TimeTrace:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, version, dt, omega_beat, theta_nominal, n = _HEADER.unpack(head)
        if magic != TRACE_MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != TRACE_VERSION:
            raise TraceFormatError(f"{path}: unsupported trace version {version}")
        # size the payload before allocating, so a corrupt count cannot
        # ask for more memory than the file holds; read it in place
        expected = 8 * n
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held == expected:
            samples = np.empty(n, dtype="<f8")
            held = fh.readinto(memoryview(samples).cast("B"))
    if held != expected:
        raise TraceFormatError(
            f"{path}: payload holds {held} bytes, header promises {expected}")
    try:
        return TimeTrace(samples=samples, dt=dt, omega_beat=omega_beat,
                         theta_nominal=theta_nominal,
                         label=os.path.basename(os.fspath(path)))
    except ValueError as e:
        raise TraceFormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------- config

_REQUIRED = object()
# One table per JSON object of a config file, one row per field: (key,
# attribute, unit, default or _REQUIRED). A number reads as unit * value and
# writes as value / unit; a unit of None leaves the value to the caller.
_TOP = (("schema_version", "schema_version", None, _REQUIRED),
        ("kappa_hz", "kappa", TWO_PI, _REQUIRED),
        ("detuning_hz", "detuning", TWO_PI, 0.0),
        ("omega_beat_hz", "omega_beat", TWO_PI, _REQUIRED),
        ("theta0_rad", "theta0", 1.0, 0.0),
        ("shot_floor", "shot_floor", 1.0, 1.0),
        ("backaction_weight", "backaction_weight", 1.0, 0.0),
        ("drift", "drift", None, {}),
        ("modes", "modes", None, _REQUIRED))
_MODE = (("omega_m_hz", "omega_m", TWO_PI, _REQUIRED),
         ("gamma_hz", "gamma", TWO_PI, _REQUIRED),
         ("mass_ng", "mass", 1e-12, _REQUIRED),
         ("nbar", "nbar", 1.0, _REQUIRED),
         ("coupling_hz", "coupling", TWO_PI, _REQUIRED))
_DRIFT = (("amplitude_rad", "amplitude", 1.0, 0.0),
          ("freq_hz", "freq_hz", 1.0, 25.0),
          ("kind", "kind", None, "sine"))


def _fields(doc, table, where) -> dict:
    """{attribute: value} of the JSON object doc, read through table."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(doc) - {row[0] for row in table})
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    out = {}
    for key, attr, unit, default in table:
        if default is _REQUIRED and key not in doc:
            raise ConfigError(f"missing key {key!r} in {where}")
        out[attr] = value = doc.get(key, default)
        if unit is None:
            continue
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if not isinstance(value, bool):  # float(True) is 1.0
                out[attr] = unit * float(value)
                continue
        raise ConfigError(f"{key!r} in {where} must be a number")
    return out


def _doc(table, values: dict) -> dict:
    """The JSON object of the attribute values, written through table."""
    return {key: values[attr] if unit in (None, 1.0) else values[attr] / unit
            for key, attr, unit, _ in table}


def config_from_dict(doc: dict) -> ExperimentConfig:
    top = _fields(doc, _TOP, "config")
    ver = top.pop("schema_version")
    if isinstance(ver, bool) or ver != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {ver!r}")
    if not isinstance(top["modes"], list) or not top["modes"]:
        raise ConfigError("modes must be a non-empty list")
    modes = [_fields(md, _MODE, f"modes[{k}]")
             for k, md in enumerate(top["modes"])]
    top["coupling"] = tuple(md.pop("coupling") for md in modes)
    top["modes"] = tuple(MechMode(**md) for md in modes)
    top["drift"] = PhaseDriftSpec(**_fields(top["drift"], _DRIFT, "drift"))
    return ExperimentConfig(**top)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _doc(_TOP, dict(vars(cfg), schema_version=CONFIG_SCHEMA_VERSION,
                           drift=_doc(_DRIFT, vars(cfg.drift)),
                           modes=[_doc(_MODE, dict(vars(m), coupling=g))
                                  for m, g in zip(cfg.modes, cfg.coupling)]))


def read_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as e:  # a JSONDecodeError, or an int of 4301 digits
        raise ConfigError(f"{path}: invalid JSON ({e})") from e
    return config_from_dict(doc)


def write_config(path, cfg: ExperimentConfig) -> None:
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    _atomic_write(path, lambda fh: fh.write(text.encode()))


# ---------------------------------------------------------------- spectra

def _fmt(x) -> str:
    return format(float(x), ".17g")


_BLOCK_VALUES = 1 << 14
_J0 = -300  # the tables hold 10**j for _J0 <= j < -_J0


@functools.lru_cache(maxsize=1)
def _tables():
    """_format_rows' tables, built on the first write from exact integer
    arithmetic: 10**j = n / d as a double-double (hi, lo) and the least
    double >= 10**j; the ASCII and trailing zeros of each 4-digit group;
    each exponent's '%g' suffix; the words of each (layout, digit count)."""
    hi, lo = np.empty(-2 * _J0), np.empty(-2 * _J0)
    for i, j in enumerate(range(_J0, -_J0)):
        n, d = 10 ** max(j, 0), 10 ** max(-j, 0)
        hi[i] = n / d  # int / int rounds correctly
        p, q = float(hi[i]).as_integer_ratio()
        lo[i] = (n * q - p * d) / (d * q)
    least = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    g = np.arange(10000)
    spread = np.full(g.size, 0x00ff00ff00ff00ff, "<u8")  # 0xff at the gaps
    for i in range(4):
        spread |= (g // 10 ** (3 - i) % 10 + 48).astype("<u8") << 16 * i + 8
    zeros = sum((g % 10 ** i == 0).astype(np.int64) for i in range(1, 5))
    suffix = np.array([0 if -4 <= k <= 16 else int.from_bytes(
        b"\0" + b"e%+03d" % k, "little") for k in range(_J0, -_J0)], "<u8")
    # layout 0 is exponential, 1 + i fixed with exponent i - 4; five words:
    # the prefix, then d1..d16 each followed by a gap, with 0xff at each
    # digit kept and '.' at the gap that holds it
    layout = np.zeros((22, 18, 5), "<u8")
    for lay, nd in np.ndindex(22, 18):
        k, t = lay - 5, bytearray(40)
        if 1 <= lay <= 4:
            t[1:2 - k] = b"0." + b"0" * (-k - 1)
        dot = 0 if lay == 0 else k if k >= 0 else nd
        if nd - 1 > dot:
            t[8 + 2 * dot] = ord(".")
        t[9:7 + 2 * nd:2] = b"\xff" * (nd - 1)
        layout[lay, nd] = np.frombuffer(bytes(t), "<u8")
    return (least, *_split(hi), lo, spread, zeros, suffix,
            layout.reshape(-1, 5).T.copy())


def _split(v):
    """Dekker's split of v into two halves of 26 bits."""
    c = 134217729.0 * v
    h = c - (c - v)
    return h, v - h


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 block: the bytes of '%.17g' % x for
    each x, ',' between fields, '\\n' after each row."""
    least, hh, hl, lo, spread, zeros, suffix, layout = _tables()
    x = block.ravel()
    a = np.abs(x)
    ok = (a >= least[-280 - _J0]) & (a < least[290 - _J0])  # 1e-280..1e290
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)  # 10**k <= a < 10**(k+1)
    k += a >= least[k - _J0 + 1]
    k -= a < least[k - _J0]
    # y = a * 10**(16 - k) = p + t, in [1e16, 1e17), to within 1e-14
    m = 16 - k - _J0
    (ah, al), bh, bl = _split(a), hh[m], hl[m]
    p = a * (bh + bl)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo[m]
    f = np.floor(t)
    t -= f
    ok &= np.abs(t - 0.5) >= 1e-9  # else a tie, or too near one to decide
    q = p.astype(np.int64) + f.astype(np.int64) + (t > 0.5)
    k += (carry := q == 10 ** 17)
    q[carry] = 10 ** 16
    # digits: d0, then four groups of four; 32-bit division below 10**9
    halves = np.stack(np.divmod(q, 10 ** 8)).astype(np.uint32)
    d0, halves[0] = np.divmod(halves[0], np.uint32(10 ** 8))
    g = np.stack(np.divmod(halves, np.uint32(10 ** 4)), 1).reshape(4, -1)
    g = g.astype(np.intp)
    z = zeros.take(g)  # trailing zeros of each group
    nz = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    fixed = (k >= -4) & (k <= 16)
    nd = np.where(fixed & (k >= 0), np.maximum(17 - nz, k + 1), 17 - nz)
    c = layout.take(np.where(fixed, k + 5, 0) * 18 + nd, axis=1)
    # word-major: w[i] is the i-th '<u8' word of every field, 48 bytes
    w = np.empty((6, x.size), "<u8")
    w[0] = c[0] | (d0.astype("<u8") + 48) << 56 | (x < 0).astype("<u8") * 45
    np.bitwise_and(spread.take(g), c[1:], out=w[1:5])
    sep = np.array([44] * (block.shape[1] - 1) + [10], "<u8") << 48  # , \n
    w[5] = (suffix[k - _J0].reshape(block.shape) | sep).ravel()
    bad = np.flatnonzero(~ok)  # '%.17g' itself, then the separator alone
    text = b"".join((b"%.17g" % v).ljust(40, b"\0") for v in x[bad].tolist())
    w[:5, bad] = np.frombuffer(text, "<u8").reshape(-1, 5).T
    w[5, bad] &= 255 << 48
    return w.T.tobytes().translate(None, b"\0")


def _write_rows(fh, *columns) -> None:
    """Write the rows of columns (1-D, or 2-D with as many rows) to binary
    fh as CSV lines, about _BLOCK_VALUES values at a time: the table is
    never copied whole. Each number has the bytes of '%.17g' % x, from
    numpy and a double-double product within 1e-14 of the exact 17-digit
    scaling; '%.17g' itself writes what that cannot decide: NaN, +-inf,
    +-0, |x| outside about 1e-280..1e290 (subnormals too), and near-ties."""
    width = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    step = max(1, _BLOCK_VALUES // width)
    for a in range(0, len(columns[0]), step):
        block = np.column_stack([c[a:a + step] for c in columns])
        fh.write(_format_rows(block))


def _write_csv(path, head: str, meta: dict, header: bytes, *columns) -> None:
    """Write a CSV table file: head and a '# key = value' line for each
    plain value of meta as UTF-8, the header line, then the rows of
    columns through _write_rows."""
    text = head + "".join(
        f"# {key} = {val!r}\n" for key, val in sorted(meta.items())
        if val is None or isinstance(val, (bool, int, float, str)))

    def _write(fh):
        fh.write(text.encode() + header)
        _write_rows(fh, *columns)

    _atomic_write(path, _write)


def _parse_meta_value(text: str):
    import ast
    text = text.strip()
    if text in ("inf", "-inf", "nan"):  # repr of a non-finite float
        return float(text)
    try:
        v = ast.literal_eval(text)
        if v is None or isinstance(v, (bool, int, float, str)):
            return v
    except (ValueError, SyntaxError):
        pass
    return text


def write_spectrum(path, spec: Spectrum) -> None:
    v = spec.values
    columns = {"freq_hz": spec.freqs / TWO_PI,
               **({"re": v.real, "im": v.imag} if np.iscomplexobj(v)
                  else {"value": v})}
    if spec.variance is not None:
        columns["stderr"] = np.sqrt(spec.variance)
    _write_csv(path, "# rhet spectrum v1\n", spec.meta,
               ",".join(columns).encode() + b"\n", *columns.values())


@contextlib.contextmanager
def _malformed(path, what: str, *also):
    """Raise a TypeError, ValueError, KeyError or BadZipFile of the block,
    or an exception of a type in `also`, as TraceFormatError. A float
    overflow in the block is inf, without a RuntimeWarning."""
    try:
        with np.errstate(over="ignore"):
            yield
    except (TypeError, ValueError, KeyError, zipfile.BadZipFile, *also) as e:
        raise TraceFormatError(f"{path}: malformed {what} ({e})") from e


def _read_table(path, magic: str, what: str):
    """(metadata, header fields, float table) of a CSV file that starts
    with `magic`. '# key = value' lines anywhere are metadata, other '#'
    lines comments; the first remaining line is the header, every later
    one a row of as many fields."""
    with _malformed(path, what), open(path, encoding="utf-8") as fh:
        if not fh.readline().startswith(magic):
            raise TraceFormatError(f"{path}: not a {what} file")
        lines = [line.strip() for line in fh.read().splitlines()]
    meta = {}
    for line in lines:
        if line.startswith("#") and "=" in line:
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = _parse_meta_value(val)
    rows = [line for line in lines if line and not line.startswith("#")]
    if len(rows) < 2:
        raise TraceFormatError(f"{path}: no data rows")
    # a header's trailing comma names no column: a map of no frequencies
    # writes 'theta_rad,'
    header = rows[0].removesuffix(",").split(",")
    if any(line.count(",") != len(header) - 1 for line in rows[1:]):
        raise TraceFormatError(f"{path}: ragged rows")
    # one conversion for every field; an empty field reads as NaN
    fields = ",".join(rows[1:]).split(",")
    if "" in fields:
        fields = [x or "nan" for x in fields]
    with _malformed(path, what):
        table = np.array(fields, dtype=float)
    return meta, header, table.reshape(-1, len(header))


def read_spectrum(path) -> Spectrum:
    meta, header, table = _read_table(path, "# rhet spectrum", "spectrum")
    with _malformed(path, "spectrum"):
        values = (table[:, header.index("re")]
                  + 1j * table[:, header.index("im")] if "re" in header
                  else table[:, header.index("value")])
        variance = (table[:, header.index("stderr")] ** 2
                    if "stderr" in header else None)
        return Spectrum(freqs=table[:, 0] * TWO_PI, values=values,
                        variance=variance, meta=meta)


# ------------------------------------------------------------------ maps

def _write_npy(fh, a) -> None:
    """np.lib.format.write_array's bytes for a, written from slices of
    about 1 MiB of its memory: np.savez would copy a whole table."""
    a = np.asanyarray(a)
    header = np.lib.format.header_data_from_array_1_0(a)
    np.lib.format.write_array_header_1_0(fh, header)
    raw = np.ascontiguousarray(a.T if header["fortran_order"] else a)
    raw = raw.reshape(-1).view(np.uint8)
    for i in range(0, raw.size, 1 << 20):
        fh.write(raw[i:i + (1 << 20)])


def write_map(path, m: ThetaMap, fmt: str = "csv") -> None:
    if fmt == "npz":
        entries = dict(thetas=m.thetas, freqs_hz=m.freqs / TWO_PI,
                       spectra=m.spectra,
                       normalization=np.float64(m.normalization),
                       meta=json.dumps(m.meta, sort_keys=True))

        def _write(fh):  # np.savez's container: stored, zip64, 1980 dates
            with zipfile.ZipFile(fh, "w", allowZip64=True) as z:
                for name, a in entries.items():
                    with z.open(name + ".npy", "w", force_zip64=True) as f:
                        _write_npy(f, a)
        _atomic_write(path, _write)
        return
    if fmt != "csv":
        raise ValueError("fmt must be 'csv' or 'npz'")

    head = f"# rhet theta map v1\n# normalization = {_fmt(m.normalization)}\n"
    # the frequencies are a row of _format_rows; a row of no fields is b""
    freqs = _format_rows(m.freqs[None] / TWO_PI) or b"\n"
    _write_csv(path, head, m.meta, b"theta_rad," + freqs, m.thetas, m.spectra)


def read_map(path) -> ThetaMap:
    with open(path, "rb") as fh:
        if fh.read(2) == b"PK":  # zip container: npz
            fh.seek(0)
            # np.load(path) would leak its own handle on a non-zip file;
            # zipfile and np.load raise these too on a corrupt archive
            with _malformed(path, "map", OSError, EOFError, RuntimeError,
                            NotImplementedError, tokenize.TokenError), \
                    np.load(fh, allow_pickle=False) as z:
                return ThetaMap(
                    thetas=z["thetas"], freqs=z["freqs_hz"] * TWO_PI,
                    spectra=z["spectra"],
                    normalization=float(z["normalization"]),
                    meta=json.loads(str(z["meta"])))
    meta, header, table = _read_table(path, "# rhet theta map", "map")
    with _malformed(path, "map"):
        return ThetaMap(thetas=table[:, 0],
                        freqs=np.array(header[1:], dtype=float) * TWO_PI,
                        spectra=table[:, 1:],
                        normalization=float(meta.pop("normalization", 1.0)),
                        meta=meta)


# ------------------------------------------------------------- comparison

def _vertex_peak(f, v):
    """Largest-magnitude feature read by a quadratic fit around the extremum.

    Fitting a window (band/12 wide) instead of quoting the raw argmax bin
    removes the upward extreme-value bias a noisy estimate picks up when the
    most extreme fluctuation on a broad feature is selected. Falls back to
    the raw bin when the fit is degenerate or the vertex leaves the window.
    """
    k = int(np.argmax(np.abs(v)))
    w = max(3, v.size // 12)
    a = max(0, k - w)
    b = min(v.size, k + w + 1)
    ff = f[a:b] - f[k]
    vv = v[a:b]
    if ff.size < 5 or np.ptp(ff) == 0.0:
        return float(f[k]), float(v[k])
    c2, c1, c0 = np.polyfit(ff, vv, 2)
    if c2 == 0.0:
        return float(f[k]), float(v[k])
    x = -c1 / (2.0 * c2)
    if not ff[0] <= x <= ff[-1]:
        return float(f[k]), float(v[k])
    return float(f[k] + x), float(c0 - c1 * c1 / (4.0 * c2))


def compare_spectra(a: Spectrum, b: Spectrum, band=None,
                    max_rel_err: float = 0.15,
                    min_pearson: float = 0.95) -> dict:
    """Peak and shape agreement between two spectra.

    b is resampled onto a's grid by linear interpolation over the overlap;
    disjoint grids raise GridError. Peak amplitudes and locations come from
    a quadratic fit around the largest-magnitude bin in the band (raw bin
    when degenerate). The report is strict JSON: a non-finite reading (a
    spectrum holding NaN) is None. Thresholds must be finite.
    """
    if not (np.isfinite(max_rel_err) and np.isfinite(min_pearson)):
        raise ValueError("max_rel_err and min_pearson must be finite")
    lo = max(a.freqs[0], b.freqs[0])
    hi = min(a.freqs[-1], b.freqs[-1])
    if band is not None:
        if not band[0] < band[1]:  # NaN compares false
            raise ValueError("band must be (lo, hi) with hi > lo")
        lo = max(lo, band[0])
        hi = min(hi, band[1])
    sel = (a.freqs >= lo) & (a.freqs <= hi)
    if np.count_nonzero(sel) < 8:
        raise GridError("grids share fewer than 8 bins in the requested band")
    fa = a.freqs[sel]
    va = np.real(a.values[sel]).astype(float)
    vb = np.interp(fa, b.freqs, np.real(b.values).astype(float))
    freq_a, peak_a = _vertex_peak(fa, va)
    freq_b, peak_b = _vertex_peak(fa, vb)
    denom = max(abs(peak_a), abs(peak_b), 1e-300)
    rel_err = abs(peak_a - peak_b) / denom
    if np.std(va) == 0.0 or np.std(vb) == 0.0:
        pearson = 1.0 if np.allclose(va, vb) else 0.0
    else:
        pearson = float(np.corrcoef(va, vb)[0, 1])
    report = {
        "band_hz": [lo / TWO_PI, hi / TWO_PI],
        "n_bins": int(np.count_nonzero(sel)),
        "peak_a": peak_a,
        "peak_b": peak_b,
        "peak_freq_a_hz": freq_a / TWO_PI,
        "peak_freq_b_hz": freq_b / TWO_PI,
        "peak_rel_err": float(rel_err),
        "peak_freq_err_hz": abs(freq_a - freq_b) / TWO_PI,
        "pearson": pearson,
        "rms_rel_diff": float(np.sqrt(np.mean((va - vb) ** 2))
                              / max(np.sqrt(np.mean(va ** 2)), 1e-300)),
        "thresholds": {"max_rel_err": max_rel_err, "min_pearson": min_pearson},
    }
    report["pass"] = bool(rel_err <= max_rel_err and pearson >= min_pearson)
    return {k: None if isinstance(v, float) and not np.isfinite(v) else v
            for k, v in report.items()}
