"""Flat dotted-key run configuration.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Unknown keys are hard errors; every value is validated on load.
The config fingerprint (sha256 of the canonical key=value listing) is
embedded in every output file for provenance.
"""

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .evolution import LADDER_KMAX_CAP
from .grid import VelocityGrid
from .kernel import KernelParams, QuadratureSpec
from .verify import MIN_ENSEMBLE, doubled_time_pairs

ALL_SUITES = ("kernel", "coefficients", "convolution", "inequalities",
              "energy", "smoothing")


@dataclass
class RunConfig:
    grid_R: float = 8.0
    grid_N: int = 32
    gamma: float = -1.0
    mu_normalized: bool = True
    quad_radial_order: int = 32
    quad_angular_order: int = 64       # validated; abar's polar integral is closed-form
    quad_rtol: float = 1e-6
    f0_bandlimit: int = 10
    f0_envelope_width: float = 1.25
    f0_spectral_decay: float = 2.0
    f0_scale: float = 1.0
    source_profile: str = "gaussian"   # gaussian | blend
    source_width: float = 1.5
    source_wavenumber: float = 1.3
    source_blend_ratio: float = 1.0
    source_amplitude: float = 1.0
    source_tau_rate: float = 1.0
    time_T: float = 2.0
    time_snapshot_times: tuple = (0.5, 1.0, 2.0)
    ladder_kmax: int = 6
    ladder_eval_times: tuple = (0.5, 1.0, 2.0)
    verify_ensemble_size: int = 64
    verify_seed: int = 42
    verify_suites: tuple = ALL_SUITES
    io_out_dir: str = "out"


def _config_key(name):
    """Config key of a RunConfig field: the first underscore becomes a dot
    and `quad` is spelled out, except for the two keys without a section."""
    if name in ("gamma", "mu_normalized"):
        return name
    section, _, key = name.partition("_")
    return f"{'quadrature' if section == 'quad' else section}.{key}"


def _kind(fld):
    if fld.type is not tuple:
        return fld.type
    return "str_list" if isinstance(fld.default[0], str) else "float_list"


_SCHEMA = {_config_key(f.name): (f.name, _kind(f)) for f in fields(RunConfig)}


def _finite(raw, key, line_no):
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"value {raw.strip()!r} for key {key!r} is not finite",
                          line=line_no)
    return value


def _parse_value(raw, kind, key, line_no):
    raw = raw.strip()
    try:
        if kind is float:
            return _finite(raw, key, line_no)
        if kind is int:
            return int(raw)
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is str:
            return raw
        if kind == "float_list":
            return tuple(_finite(x, key, line_no) for x in raw.split(",") if x.strip())
        if kind == "str_list":
            return tuple(x.strip() for x in raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}", line=line_no)
    raise AssertionError(f"unhandled kind {kind}")


def parse_config_text(text):
    cfg = RunConfig()
    seen = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected key = value, got {body!r}", line=line_no)
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=line_no)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line=line_no)
        seen.add(key)
        attr, kind = _SCHEMA[key]
        setattr(cfg, attr, _parse_value(raw, kind, key, line_no))
    validate_config(cfg)
    return cfg


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config_text(text)


def validate_config(cfg):
    # the kernel, grid and quadrature objects check their own ranges
    try:
        KernelParams(cfg.gamma, cfg.mu_normalized)
        VelocityGrid(R=cfg.grid_R, N=cfg.grid_N)
        QuadratureSpec(cfg.quad_radial_order, cfg.quad_angular_order,
                       cfg.quad_rtol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not cfg.time_T > 0:
        raise ConfigError(f"time.T must be positive, got {cfg.time_T}")
    if not 1 <= cfg.ladder_kmax <= LADDER_KMAX_CAP:
        raise ConfigError(f"ladder.kmax must be in [1, {LADDER_KMAX_CAP}], "
                          f"got {cfg.ladder_kmax}")
    # an empty list verifies nothing; a repeated suite overwrites its own
    # report, a repeated ladder time counts its rungs twice in the fit
    for key, values in (("ladder.eval_times", cfg.ladder_eval_times),
                        ("verify.suites", cfg.verify_suites)):
        if not values:
            raise ConfigError(f"{key} must name at least one entry")
        if len(set(values)) < len(values):
            raise ConfigError(f"{key} repeats an entry: {', '.join(map(str, values))}")
    for t in cfg.ladder_eval_times:
        if not 0.0 < t <= cfg.time_T:
            raise ConfigError(
                f"ladder.eval_times must lie in (0, T]; got {t} with T = {cfg.time_T}")
    if "smoothing" in cfg.verify_suites and not doubled_time_pairs(cfg.ladder_eval_times):
        raise ConfigError("ladder.eval_times holds no pair t, 2t for the smoothing suite "
                          f"to compare: {', '.join(map(str, cfg.ladder_eval_times))}")
    for t in cfg.time_snapshot_times:
        if not 0.0 < t <= cfg.time_T:
            raise ConfigError(
                f"time.snapshot_times must lie in (0, T]; got {t}")
    if not 0 < cfg.f0_bandlimit < cfg.grid_N // 2:
        raise ConfigError(
            f"f0.bandlimit must be in (0, N/2), got {cfg.f0_bandlimit}")
    if not cfg.f0_scale > 0:
        raise ConfigError("f0.scale must be positive")
    if cfg.source_profile not in ("gaussian", "blend"):
        raise ConfigError(f"unknown source.profile {cfg.source_profile!r}")
    if not cfg.source_width > 0:
        raise ConfigError(f"source.width must be positive, got {cfg.source_width}")
    if cfg.verify_seed < 0:
        raise ConfigError(f"verify.seed must be >= 0, got {cfg.verify_seed}")
    if cfg.verify_ensemble_size < MIN_ENSEMBLE:
        raise ConfigError(f"verify.ensemble_size must be >= {MIN_ENSEMBLE}")
    for s in cfg.verify_suites:
        if s not in ALL_SUITES:
            raise ConfigError(f"unknown suite {s!r}; choose from {ALL_SUITES}")
    if not cfg.f0_envelope_width > 0:
        raise ConfigError("f0.envelope_width must be positive")
    return cfg


def canonical_text(cfg):
    lines = []
    for key in sorted(_SCHEMA):
        attr, kind = _SCHEMA[key]
        val = getattr(cfg, attr)
        if isinstance(val, tuple):
            rendered = ", ".join(repr(v) if isinstance(v, float) else str(v) for v in val)
        elif isinstance(val, bool):
            rendered = "true" if val else "false"
        elif isinstance(val, float):
            rendered = repr(val)
        else:
            rendered = str(val)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def fingerprint(cfg):
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]
