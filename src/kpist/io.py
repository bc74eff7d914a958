"""On-disk formats for fields, scattering data, probe lists, and configs.

Arrays travel as raw little-endian float64 blobs in row-major order
with a YAML sidecar holding shapes and grid bounds; complex arrays
interleave (real, imag) pairs. CSV cells are written with repr() so
reruns reproduce output files byte for byte.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import yaml

from .grids import POTENTIAL_KINDS, Grid1D, PotentialField, make_test_potential
from .reconstruct import check_fine_cap
from .scattering import ScatteringData, ScatteringGrids

FLOAT_DTYPE = np.dtype("<f8")
COMPLEX_DTYPE = np.dtype("<c16")  # interleaved little-endian float64 pairs

POTENTIAL_FORMAT = "kpist-field-v1"
SCATTERING_FORMAT = "kpist-scattering-v1"


def write_array(path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values)
    dtype = COMPLEX_DTYPE if np.iscomplexobj(arr) else FLOAT_DTYPE
    arr.astype(dtype).tofile(str(path))


def read_array(path, shape, complex_valued: bool) -> np.ndarray:
    dtype = COMPLEX_DTYPE if complex_valued else FLOAT_DTYPE
    arr = np.fromfile(str(path), dtype=dtype)
    expected = int(np.prod(shape))
    if arr.size != expected:
        raise ValueError(f"{path} holds {arr.size} values, expected {expected}")
    return arr.reshape(tuple(shape))


def _grid_entry(g: Grid1D) -> dict:
    return {"min": float(g.min), "max": float(g.max), "n": int(g.n)}


def _grid_from(side: dict, key: str, path) -> Grid1D:
    entry = _mapping(side.get(key), path, key)
    return Grid1D(_number(entry.get("min"), path, f"{key}.min"),
                  _number(entry.get("max"), path, f"{key}.max"),
                  _number(entry.get("n"), path, f"{key}.n", int))


def _mapping(value, path, key: str) -> dict:
    """value when it is a mapping, else a ValueError naming the file and
    the key, which the CLI reports as an error instead of a traceback."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {key} must be a mapping, got {value!r}")
    return value


def _number(value, path, key: str, kind=float):
    """value converted by kind, float or int, else a ValueError naming the
    file and the key, as _mapping. Null and booleans are refused, and int
    takes integers only: 128.5 is refused, not truncated."""
    try:
        if isinstance(value, bool) or (kind is int
                                       and not isinstance(value, int)):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {key} must be {noun}, got {value!r}"
                         ) from None


def _positive(value, path, key: str) -> float:
    value = _number(value, path, key)
    if not 0 < value < np.inf:
        raise ValueError(f"{path}: {key} must be finite and positive, "
                         f"got {value}")
    return value


def _grid_size(value, path, key: str) -> int:
    n = _number(value, path, key, int)
    if n < 8 or n & (n - 1):
        raise ValueError(f"{path}: {key} must be a power of two >= 8, "
                         f"got {n}")
    return n


def _sidecar(path: pathlib.Path) -> dict:
    return _mapping(yaml.safe_load(path.read_text()), path, "the sidecar")


def _base_path(path) -> pathlib.Path:
    p = pathlib.Path(path)
    if p.suffix in (".bin", ".yaml", ".yml"):
        p = p.with_suffix("")
    return p


def save_potential(field: PotentialField, path, extra: dict | None = None
                   ) -> pathlib.Path:
    """Write field values (base.bin) plus a sidecar (base.yaml)."""
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    write_array(base.with_suffix(".bin"), field.values)
    side = {
        "format": POTENTIAL_FORMAT,
        "dtype": str(FLOAT_DTYPE.str),
        "order": "C",
        "shape": [int(field.grid_x.n), int(field.grid_y.n)],
        "grid_x": _grid_entry(field.grid_x),
        "grid_y": _grid_entry(field.grid_y),
    }
    if extra:
        side["source"] = {str(k): v for k, v in sorted(extra.items())}
    out = base.with_suffix(".yaml")
    out.write_text(yaml.safe_dump(side, sort_keys=True))
    return out


def load_potential(path) -> PotentialField:
    base = _base_path(path)
    side = _sidecar(base.with_suffix(".yaml"))
    if side.get("format") != POTENTIAL_FORMAT:
        raise ValueError(f"{base}: not a potential file "
                         f"(format {side.get('format')!r})")
    gx, gy = (_grid_from(side, key, base.with_suffix(".yaml"))
              for key in ("grid_x", "grid_y"))
    values = read_array(base.with_suffix(".bin"), (gx.n, gy.n), False)
    return PotentialField(gx, gy, values)


def save_scattering(data: ScatteringData, directory) -> pathlib.Path:
    """Write the kernel triple into a directory.

    The triangular families go to t_plus.bin / t_minus.bin; the linear
    route the resampler needs to split correctly goes to t1.bin.
    """
    d = pathlib.Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_array(d / "t_plus.bin", data.T_plus)
    write_array(d / "t_minus.bin", data.T_minus)
    write_array(d / "t1.bin", data.T1)
    meta = {k: float(v) for k, v in sorted(data.meta.items())
            if isinstance(v, (int, float, np.integer, np.floating))}
    side = {
        "format": SCATTERING_FORMAT,
        "dtype": str(COMPLEX_DTYPE.str),
        "order": "C",
        "arrays": ["t_plus.bin", "t_minus.bin", "t1.bin"],
        "shape": [int(data.grids.n_kl), int(data.grids.n_kl)],
        "grid_kl": _grid_entry(data.grids.grid_kl),
        "grid_y": _grid_entry(data.grids.grid_y),
        "meta": meta,
    }
    out = d / "scattering.yaml"
    out.write_text(yaml.safe_dump(side, sort_keys=True))
    return out


def load_scattering(directory) -> ScatteringData:
    d = pathlib.Path(directory)
    if d.suffix in (".yaml", ".yml"):
        d = d.parent
    side = _sidecar(d / "scattering.yaml")
    if side.get("format") != SCATTERING_FORMAT:
        raise ValueError(f"{d}: not a scattering directory "
                         f"(format {side.get('format')!r})")
    grids = ScatteringGrids(*(_grid_from(side, key, d / "scattering.yaml")
                              for key in ("grid_kl", "grid_y")))
    shape = (grids.n_kl, grids.n_kl)
    t_plus = read_array(d / "t_plus.bin", shape, True)
    t_minus = read_array(d / "t_minus.bin", shape, True)
    t1 = read_array(d / "t1.bin", shape, True)
    # the kernel products read only each family's own triangle
    # (scattering.triangular_products), so the other must hold exact zeros
    for name, beyond, where in (("t_plus.bin", np.tril(t_plus, -1), "below"),
                                ("t_minus.bin", np.triu(t_minus, 1), "above")):
        if np.any(beyond):
            raise ValueError(f"{d / name}: {np.count_nonzero(beyond)} "
                             f"nonzero entries {where} the diagonal; the "
                             f"family's kernel must be triangular")
    meta = dict(side.get("meta") or {})
    return ScatteringData(t_plus, t_minus, t1, grids, meta)


def load_probes(path) -> list[tuple[float, float, float]]:
    """Parse a columnar probe list: one 't x y' triple per line.

    Blank lines and '#' comments are skipped; commas may separate the
    columns instead of whitespace.
    """
    rows = []
    text = pathlib.Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.replace(",", " ").split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 't x y', got {line!r}")
        t, x, y = (float(p) for p in parts)
        if t < 0:
            raise ValueError(f"{path}:{lineno}: negative time {t}")
        if not np.all(np.isfinite((t, x, y))):
            raise ValueError(f"{path}:{lineno}: non-finite probe {line!r}")
        rows.append((t, x, y))
    if not rows:
        raise ValueError(f"{path}: no probe rows")
    return rows


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> pathlib.Path:
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = [format_cell(v) for v in row]
        if len(cells) != len(header):
            raise ValueError(f"row width {len(cells)} != header {len(header)}")
        lines.append(",".join(cells))
    p.write_text("\n".join(lines) + "\n")
    return p


@dataclasses.dataclass(frozen=True)
class RaySpec:
    """One ray xi = x/t, eta = y/t with optional slope acceptance windows.

    slope_window gates the full reconstruction fit; linear_slope_window
    gates the linear-baseline fit (typically tighter, no solver noise).
    """

    xi: float
    eta: float
    label: str = ""
    slope_window: tuple[float, float] | None = None
    linear_slope_window: tuple[float, float] | None = None

    @property
    def a(self) -> float:
        return (self.xi - self.eta**2 / 12.0) / 12.0


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see load_config for the file layout."""

    potential_path: str | None
    potential_spec: dict | None
    kl_half_width: float
    n_kl: int
    n_y: int
    delta: float
    tol: float
    rays: tuple[RaySpec, ...]
    t_min: float
    t_max: float
    n_times: int
    output_dir: str
    fine_cap: int = 8192

    def t_samples(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.n_times)

    def resolve_potential(self) -> PotentialField:
        if self.potential_path is not None:
            return load_potential(self.potential_path)
        spec = self.potential_spec  # complete and checked (load_config)
        g = Grid1D(-spec["half_width"], spec["half_width"], spec["n"])
        return make_test_potential(spec["kind"], spec["amplitude"],
                                   spec["width"], g, g)

    def scattering_grids(self) -> ScatteringGrids:
        g = Grid1D(-self.kl_half_width, self.kl_half_width, self.n_kl)
        gy = Grid1D(-self.kl_half_width, self.kl_half_width, self.n_y)
        return ScatteringGrids(g, gy)


def load_config(path) -> ExperimentConfig:
    p = pathlib.Path(path)
    raw = _mapping(yaml.safe_load(p.read_text()), path, "the config")

    pot = raw.get("potential")
    pot_path = None
    pot_spec = None
    if isinstance(pot, str):
        pot_path = str((p.parent / pot) if not pathlib.Path(pot).is_absolute()
                       else pot)
        if not _base_path(pot_path).with_suffix(".yaml").exists():
            raise ValueError(f"{path}: potential file {pot!r} does not exist")
    elif isinstance(pot, dict):
        if "amplitude" not in pot:
            raise ValueError(f"{path}: potential table needs an amplitude")
        pot_spec = _potential_spec(pot, path)
    else:
        raise ValueError(f"{path}: 'potential' must be a path or a table")

    sc = _mapping(raw.get("scattering") or {}, path, "scattering")
    half_width = _positive(sc.get("half_width", 8.0), path,
                           "scattering.half_width")
    n_kl, n_y = (_grid_size(sc.get(key, 128), path, f"scattering.{key}")
                 for key in ("n_kl", "n_y"))
    delta, tol = (_positive(raw.get(key, default), path, key)
                  for key, default in (("delta", 0.05), ("tol", 1e-10)))
    times = _mapping(raw.get("times") or {}, path, "times")
    t_min = _number(times.get("t_min", 10.0), path, "times.t_min")
    t_max = _number(times.get("t_max", 100.0), path, "times.t_max")
    n_times = _number(times.get("n", 12), path, "times.n", int)
    for key, value in (("t_min", t_min), ("t_max", t_max)):
        if not np.isfinite(value):
            raise ValueError(f"{path}: times.{key} must be finite")
    if not (0 < t_min < t_max):
        raise ValueError(f"{path}: need 0 < t_min < t_max")
    if n_times < 6:
        raise ValueError(f"{path}: need at least 6 time samples")

    def _window(entry, ray, key):
        window = entry.get(key)
        if window is None:
            return None
        if not isinstance(window, list) or len(window) != 2:
            raise ValueError(f"{path}: {ray}.{key} must be a pair [lo, hi], "
                             f"got {window!r}")
        lo, hi = (_number(w, path, f"{ray}.{key}[{i}]")
                  for i, w in enumerate(window))
        if lo > hi:
            raise ValueError(f"{path}: {ray}.{key} bounds out of order")
        return (lo, hi)

    entries = raw.get("rays") or []
    if not isinstance(entries, list):
        raise ValueError(f"{path}: rays must be a list, got {entries!r}")
    rays = []
    for i, entry in enumerate(entries):
        ray = f"rays[{i}]"
        entry = _mapping(entry, path, ray)
        if "xi" not in entry:
            raise ValueError(f"{path}: {ray} needs xi")
        rays.append(RaySpec(_number(entry["xi"], path, f"{ray}.xi"),
                            _number(entry.get("eta", 0.0), path, f"{ray}.eta"),
                            str(entry.get("label", "")),
                            _window(entry, ray, "slope_window"),
                            _window(entry, ray, "linear_slope_window")))

    return ExperimentConfig(
        potential_path=pot_path,
        potential_spec=pot_spec,
        kl_half_width=half_width,
        n_kl=n_kl,
        n_y=n_y,
        delta=delta,
        tol=tol,
        rays=tuple(rays),
        t_min=t_min,
        t_max=t_max,
        n_times=n_times,
        output_dir=str(raw.get("output_dir", p.parent / "out")),
        fine_cap=check_fine_cap(_number(raw.get("fine_cap", 8192), path,
                                        "fine_cap", int)),
    )


def _potential_spec(pot: dict, path) -> dict:
    """A config's potential table, every key of resolve_potential filled
    in from its defaults, converted and checked, naming the file and the
    key: a known kind, a finite amplitude, a grid (Grid1D) of n points
    over +-half_width that resolves the width with at least 8 points
    (make_test_potential)."""
    spec = {"kind": pot.get("kind", "gaussian_dx"),
            "amplitude": _number(pot["amplitude"], path,
                                 "potential.amplitude"),
            "n": _grid_size(pot.get("n", 256), path, "potential.n")}
    for key, default in (("width", 1.0), ("half_width", 32.0)):
        spec[key] = _positive(pot.get(key, default), path, f"potential.{key}")
    if spec["kind"] not in POTENTIAL_KINDS:
        raise ValueError(f"{path}: potential.kind must be one of "
                         f"{', '.join(POTENTIAL_KINDS)}, got {spec['kind']!r}")
    if not np.isfinite(spec["amplitude"]):
        raise ValueError(f"{path}: potential.amplitude must be finite")
    if 2.0 * spec["half_width"] / spec["n"] > spec["width"] / 4.0:
        raise ValueError(f"{path}: potential.n = {spec['n']} over "
                         f"+-{spec['half_width']} is a grid too coarse for "
                         f"potential.width {spec['width']}: need at least 8 "
                         f"points per width")
    return spec
