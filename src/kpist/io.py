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

from .grids import Grid1D, PotentialField, make_test_potential
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


def _grid_from(entry: dict) -> Grid1D:
    return Grid1D(float(entry["min"]), float(entry["max"]), int(entry["n"]))


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
    side = yaml.safe_load(base.with_suffix(".yaml").read_text())
    if side.get("format") != POTENTIAL_FORMAT:
        raise ValueError(f"{base}: not a potential file "
                         f"(format {side.get('format')!r})")
    gx = _grid_from(side["grid_x"])
    gy = _grid_from(side["grid_y"])
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
    side = yaml.safe_load((d / "scattering.yaml").read_text())
    if side.get("format") != SCATTERING_FORMAT:
        raise ValueError(f"{d}: not a scattering directory "
                         f"(format {side.get('format')!r})")
    grids = ScatteringGrids(_grid_from(side["grid_kl"]),
                            _grid_from(side["grid_y"]))
    shape = (grids.n_kl, grids.n_kl)
    t_plus = read_array(d / "t_plus.bin", shape, True)
    t_minus = read_array(d / "t_minus.bin", shape, True)
    t1 = read_array(d / "t1.bin", shape, True)
    # the kernel products read only each family's own triangle
    # (scattering.triangular_apply), so the other must hold exact zeros
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
        spec = dict(self.potential_spec)
        half = float(spec.get("half_width", 32.0))
        n = int(spec.get("n", 256))
        g = Grid1D(-half, half, n)
        return make_test_potential(str(spec.get("kind", "gaussian_dx")),
                                   float(spec["amplitude"]),
                                   float(spec.get("width", 1.0)), g, g)

    def scattering_grids(self) -> ScatteringGrids:
        g = Grid1D(-self.kl_half_width, self.kl_half_width, self.n_kl)
        gy = Grid1D(-self.kl_half_width, self.kl_half_width, self.n_y)
        return ScatteringGrids(g, gy)


def load_config(path) -> ExperimentConfig:
    p = pathlib.Path(path)
    raw = yaml.safe_load(p.read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")

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
        pot_spec = pot
    else:
        raise ValueError(f"{path}: 'potential' must be a path or a table")

    sc = raw.get("scattering") or {}
    half_width = float(sc.get("half_width", 8.0))
    if not 0 < half_width < np.inf:
        raise ValueError(f"{path}: scattering.half_width must be finite and "
                         f"positive, got {half_width}")
    n_kl, n_y = (int(sc.get(key, 128)) for key in ("n_kl", "n_y"))
    for key, n in (("n_kl", n_kl), ("n_y", n_y)):
        if n < 8 or n & (n - 1):
            raise ValueError(f"{path}: scattering.{key} must be a power of "
                             f"two >= 8, got {n}")
    delta = float(raw.get("delta", 0.05))
    if not 0 < delta < np.inf:
        raise ValueError(f"{path}: delta must be finite and positive")
    tol = float(raw.get("tol", 1e-10))
    if not 0 < tol < np.inf:
        raise ValueError(f"{path}: tol must be finite and positive")
    times = raw.get("times") or {}
    t_min = float(times.get("t_min", 10.0))
    t_max = float(times.get("t_max", 100.0))
    n_times = int(times.get("n", 12))
    for key, value in (("t_min", t_min), ("t_max", t_max)):
        if not np.isfinite(value):
            raise ValueError(f"{path}: times.{key} must be finite")
    if not (0 < t_min < t_max):
        raise ValueError(f"{path}: need 0 < t_min < t_max")
    if n_times < 6:
        raise ValueError(f"{path}: need at least 6 time samples")

    def _window(entry, key):
        window = entry.get(key)
        if window is None:
            return None
        lo, hi = (float(w) for w in window)
        if lo > hi:
            raise ValueError(f"{path}: {key} bounds out of order")
        return (lo, hi)

    rays = []
    for entry in raw.get("rays") or []:
        rays.append(RaySpec(float(entry["xi"]), float(entry.get("eta", 0.0)),
                            str(entry.get("label", "")),
                            _window(entry, "slope_window"),
                            _window(entry, "linear_slope_window")))

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
        fine_cap=check_fine_cap(int(raw.get("fine_cap", 8192))),
    )
