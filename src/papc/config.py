"""Experiment configuration: a flat, sectioned key-value text format.

Grammar (also documented in the README):

    # comments start with '#'; blank lines are ignored
    [section]
    key = value

Sections and keys::

    [problem]   name = cls | lasso | fused | multi | custom
                any further keys are passed to the zoo builder verbatim
                (custom problems instead use: h, g, L, projector, sigma)
    [schedules] gamma_kind = constant | harmonic_floor | harmonic
                gamma0     = <float> | auto        (auto = 0.9 * beta)
                tau_kind   = constant | ramp
                tau_cap    = <float> > 0 | auto    (auto = certified cap)
                gamma_n: constant gamma0, harmonic_floor (gamma0/2)(1 + 1/(n+1)),
                harmonic gamma0/(n+1); tau_n: constant tau_cap, ramp tau_cap (n+1)/(n+2)
    [noise]     kind    = none | gaussian | minibatch
                sigma0  = <float> >= 0   (per-coordinate variance sigma_0^2)
                epsilon = <float> >= 0   (polynomial decay exponent, 0 = constant)
                regime  = almost-sure | ergodic
                batch_schedule = <int> >= 1   (minibatch size, minibatch only)
    [run]       horizon     = <int>
                seeds       = <int> <int> ...
                checkpoints = log | none | <int> <int> ...   (0 <= index < horizon)
    [output]    dir = <path>

Prox functions are named by string tags, e.g. ``l1(weight=0.5)``,
``box(lo=-1, hi=1)``, ``quadratic(D=<path>, a=<path>)``; projectors by
``full``, ``matrix:<path>``, ``basis:<path>`` or ``averaging:<m>``.
Parsing then serializing then parsing is the identity.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linop import OrthoProjector, read_matrix
from .monotone import (box, box_support, l1, quadratic_lipschitz, quadratic_ls,
                       singleton, sq_dist, zero_prox)

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "parse_prox_spec",
    "parse_projector_spec",
    "parse_smooth_spec",
    "reads_input",
]

_SECTIONS = ("problem", "schedules", "noise", "run", "output")


@dataclass
class ExperimentConfig:
    problem: str = "lasso"
    problem_params: dict = field(default_factory=dict)
    gamma_kind: str = "constant"
    gamma0: float | None = None  # None = auto
    tau_kind: str = "constant"
    tau_cap: float | None = None  # None = auto
    noise_kind: str = "none"
    sigma0_sq: float = 1.0
    epsilon: float = 1.0
    regime: str = "almost-sure"
    batch_schedule: int | None = None
    horizon: int = 10000
    seeds: tuple = (0,)
    checkpoints: str | tuple = "log"
    out_dir: str = "out"
    # Runtime context (where relative paths in tags resolve); not serialized.
    base_dir: str = field(default=".", compare=False)

    def validate(self):
        if not self.seeds:
            raise ConfigError("seeds list must not be empty")
        if any(int(s) < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
        if self.horizon < 1:
            raise ConfigError("horizon must be positive")
        cps = () if isinstance(self.checkpoints, str) else self.checkpoints
        if any(c < 0 for c in cps):
            raise ConfigError("checkpoints must be nonnegative")
        if any(c >= self.horizon for c in cps):
            raise ConfigError("[run] checkpoints: %d is not below the horizon %d"
                              % (max(cps), self.horizon))
        if self.noise_kind not in ("none", "gaussian", "minibatch"):
            raise ConfigError("unknown noise kind %r" % self.noise_kind)
        if self.regime not in ("almost-sure", "ergodic"):
            raise ConfigError("unknown regime %r" % self.regime)
        if not self.sigma0_sq >= 0:
            raise ConfigError("sigma0 must be nonnegative")
        if not self.epsilon >= 0:
            raise ConfigError("epsilon must be nonnegative (0 = constant variance)")
        if self.tau_cap is not None and not self.tau_cap > 0:
            raise ConfigError("tau_cap must be positive (or auto)")
        if self.batch_schedule is not None and self.batch_schedule < 1:
            raise ConfigError("batch_schedule must be at least 1")
        return self


def reads_input(func):
    """Mark ``func`` as a boundary where outside input is read: a ValueError
    (a malformed value) or an OSError (an unreadable file) raised inside it
    becomes a :class:`ConfigError` carrying the same message."""
    @functools.wraps(func)
    def boundary(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ConfigError:
            raise
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc)) from exc
    return boundary


def _parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError("line %d: unknown section [%s]" % (lineno, current))
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in line:
            raise ConfigError("line %d: expected 'key = value' inside a section" % lineno)
        key, value = line.split("=", 1)
        sections[current][key.strip()] = value.strip()
    return sections


def _number(convert, sec, section, key, default):
    """``convert`` applied to a key's value (or the default); a value that
    does not convert is a config error naming its section and key."""
    text = sec.get(section, {}).get(key, default)
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError("[%s] %s: %s" % (section, key, exc)) from exc


def _opt_float(value):
    return None if value == "auto" else float(value)


def _ints(value):
    return tuple(int(v) for v in value.split())


@reads_input
def parse_config(text, base_dir="."):
    sec = _parse_sections(text)
    problem = dict(sec.get("problem", {}))
    name = problem.pop("name", "lasso")
    sch = sec.get("schedules", {})
    noi = sec.get("noise", {})
    run = sec.get("run", {})
    out = sec.get("output", {})

    cps_raw = run.get("checkpoints", "log")
    if cps_raw in ("log", "none"):
        checkpoints = cps_raw
    else:
        checkpoints = _number(_ints, sec, "run", "checkpoints", None)

    cfg = ExperimentConfig(
        problem=name,
        problem_params=problem,
        gamma_kind=sch.get("gamma_kind", "constant"),
        gamma0=_number(_opt_float, sec, "schedules", "gamma0", "auto"),
        tau_kind=sch.get("tau_kind", "constant"),
        tau_cap=_number(_opt_float, sec, "schedules", "tau_cap", "auto"),
        noise_kind=noi.get("kind", "none"),
        sigma0_sq=_number(float, sec, "noise", "sigma0", "1.0"),
        epsilon=_number(float, sec, "noise", "epsilon", "1.0"),
        regime=noi.get("regime", "almost-sure"),
        batch_schedule=(_number(int, sec, "noise", "batch_schedule", None)
                        if "batch_schedule" in noi else None),
        horizon=_number(int, sec, "run", "horizon", "10000"),
        seeds=_number(_ints, sec, "run", "seeds", "0"),
        checkpoints=checkpoints,
        out_dir=out.get("dir", "out"),
        base_dir=base_dir,
    )
    return cfg.validate()


@reads_input
def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def _fmt(value):
    return "auto" if value is None else repr(float(value))


def serialize_config(cfg):
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    lines = ["[problem]", "name = %s" % cfg.problem]
    for key in sorted(cfg.problem_params):
        lines.append("%s = %s" % (key, cfg.problem_params[key]))
    lines += [
        "",
        "[schedules]",
        "gamma_kind = %s" % cfg.gamma_kind,
        "gamma0 = %s" % _fmt(cfg.gamma0),
        "tau_kind = %s" % cfg.tau_kind,
        "tau_cap = %s" % _fmt(cfg.tau_cap),
        "",
        "[noise]",
        "kind = %s" % cfg.noise_kind,
        "sigma0 = %s" % repr(float(cfg.sigma0_sq)),
        "epsilon = %s" % repr(float(cfg.epsilon)),
        "regime = %s" % cfg.regime,
    ]
    if cfg.batch_schedule is not None:
        lines.append("batch_schedule = %d" % cfg.batch_schedule)
    cps = cfg.checkpoints
    cps_text = cps if isinstance(cps, str) else " ".join(str(c) for c in cps)
    lines += [
        "",
        "[run]",
        "horizon = %d" % cfg.horizon,
        "seeds = %s" % " ".join(str(s) for s in cfg.seeds),
        "checkpoints = %s" % cps_text,
        "",
        "[output]",
        "dir = %s" % cfg.out_dir,
        "",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prox-function and projector tags
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z_0-9]*)\s*(?:\((.*)\))?\s*$")


def _parse_kwargs(body):
    kwargs = {}
    if not body or not body.strip():
        return kwargs
    for part in body.split(","):
        if "=" not in part:
            raise ConfigError("malformed tag argument %r (expected key=value)" % part.strip())
        key, value = part.split("=", 1)
        kwargs[key.strip()] = value.strip()
    return kwargs


def _load_vector(value, base_dir):
    try:
        return float(value)
    except ValueError:
        mat = read_matrix(os.path.join(base_dir, value))
        return mat.ravel()


# The keys each prox tag accepts.
_TAG_KEYS = {
    "zero": (),
    "l1": ("weight",),
    "box": ("lo", "hi"),
    "box_support": ("lo", "hi"),
    "singleton": ("c",),
    "sq_dist": ("b",),
    "quadratic": ("A", "D", "b", "a"),
}


def _parse_tag(tag):
    """The name and keyword arguments of a prox tag; a key the tag does not
    accept is a config error naming both."""
    match = _TAG_RE.match(tag)
    if not match:
        raise ConfigError("malformed prox tag %r" % tag)
    name, kw = match.group(1), _parse_kwargs(match.group(2))
    accepted = _TAG_KEYS.get(name)
    if accepted is not None:
        for key in kw:
            if key not in accepted:
                raise ConfigError("prox tag %s: unknown key %r (accepted: %s)"
                                  % (name, key, ", ".join(accepted) or "none"))
    return name, kw


def _tag_float(name, kw, key, default):
    """A tag's number; a value that does not convert is a config error
    naming the tag and the key."""
    try:
        return float(kw.get(key, default))
    except ValueError as exc:
        raise ConfigError("prox tag %s: %s: %s" % (name, key, exc)) from exc


def _quadratic_data(kw, base_dir):
    """(D, a) of a ``quadratic(D=<path>, a=<path>)`` tag (or A=, b=)."""
    mat_key = "A" if "A" in kw else "D"
    vec_key = "b" if "b" in kw else "a"
    if mat_key not in kw or vec_key not in kw:
        raise ConfigError("quadratic(...) needs A=<path> and b=<path>")
    D = read_matrix(os.path.join(base_dir, kw[mat_key]))
    a = read_matrix(os.path.join(base_dir, kw[vec_key])).ravel()
    return D, a


def parse_prox_spec(tag, dim, base_dir="."):
    """Build a ProxFunction from a config tag like ``l1(weight=0.5)``.

    Scalar arguments broadcast to the target dimension; path arguments load
    matrices/vectors from the plain-text matrix format.
    """
    name, kw = _parse_tag(tag)
    if name == "zero":
        return zero_prox(dim)
    if name == "l1":
        return l1(_tag_float(name, kw, "weight", 1.0), dim)
    if name == "box":
        return box(_tag_float(name, kw, "lo", -1.0), _tag_float(name, kw, "hi", 1.0), dim)
    if name == "box_support":
        return box_support(_tag_float(name, kw, "lo", -1.0), _tag_float(name, kw, "hi", 1.0),
                           dim)
    if name == "singleton":
        c = _load_vector(kw.get("c", "0.0"), base_dir)
        return singleton(c, dim=dim if np.isscalar(c) or np.size(c) == 1 else None)
    if name == "sq_dist":
        b = _load_vector(kw.get("b", "0.0"), base_dir)
        return sq_dist(b, dim=dim if np.size(b) == 1 else None)
    if name == "quadratic":
        return quadratic_ls(*_quadratic_data(kw, base_dir))
    raise ConfigError("unknown prox tag %r; known: %s" % (name, ", ".join(_TAG_KEYS)))


def parse_smooth_spec(tag, dim, base_dir="."):
    """Parse a smooth-term tag, returning (ProxFunction, gradient Lipschitz
    constant).  Custom problems need an analytic constant, so only the
    quadratic family (and the zero function) qualifies."""
    name, kw = _parse_tag(tag)
    if name == "quadratic":
        D, a = _quadratic_data(kw, base_dir)
        return quadratic_ls(D, a), quadratic_lipschitz(D)
    f = parse_prox_spec(tag, dim, base_dir)
    if f.name == "sq_dist":
        return f, 1.0
    if f.name == "zero":
        return f, 0.0
    raise ConfigError("smooth term must be quadratic(...), sq_dist(...) or zero; got %r"
                      % tag)


def parse_projector_spec(spec, dim, base_dir="."):
    """Build an OrthoProjector from ``full``, ``matrix:<path>``,
    ``basis:<path>`` or ``averaging:<m>``."""
    spec = spec.strip()
    if spec == "full":
        return OrthoProjector.full(dim)
    if spec.startswith("matrix:"):
        mat = read_matrix(os.path.join(base_dir, spec.split(":", 1)[1]))
        if mat.shape != (dim, dim):
            raise ConfigError("projector matrix must be %d x %d" % (dim, dim))
        return OrthoProjector.from_matrix(mat)
    if spec.startswith("basis:"):
        basis = read_matrix(os.path.join(base_dir, spec.split(":", 1)[1]))
        if basis.shape[0] != dim:
            raise ConfigError("projector basis must have %d rows" % dim)
        return OrthoProjector.from_basis(basis)
    if spec.startswith("averaging:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError("projector %r: the number of copies: %s" % (spec, exc)) from exc
        if m < 1:
            raise ConfigError("projector %r: the number of copies must be at least 1" % spec)
        if dim % m != 0:
            raise ConfigError("averaging:%d does not divide dimension %d" % (m, dim))
        return OrthoProjector.averaging(m, dim // m)
    raise ConfigError("unknown projector spec %r; known: full, matrix:<path>, "
                      "basis:<path>, averaging:<m>" % spec)
