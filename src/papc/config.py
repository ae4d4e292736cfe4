"""Experiment configuration: a flat, sectioned key-value text format.

Grammar (also documented in the README):

    # comments start with '#'; blank lines are ignored
    [section]
    key = value

Sections and keys::

    [problem]   name = cls | lasso | fused | multi | custom | custom_composite,
                and only the keys the problem reads (_PROBLEM_KEYS, with each
                key's parser, default and least value); custom_composite
                reads dim, h and blockN.g, blockN.L, blockN.sigma, blockN.omega for
                N = 1, 2, ... up to the first N with no blockN.g or blockN.L
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

Every section accepts only its listed keys: any other is a config error
naming the section (or problem, or tag) and the key, for example
``[run]: unknown key 'horizn' (accepted: horizon, seeds, checkpoints)``.
A key a file leaves out keeps the ``ExperimentConfig`` default.

Prox functions are named by string tags, e.g. ``l1(weight=0.5)``,
``box(lo=-1, hi=1)``, ``quadratic(D=<path>, a=<path>)`` (``_TAGS``);
couplings by ``identity`` or ``matrix:<path>``; projectors by ``full``,
``matrix:<path>``, ``basis:<path>`` or ``averaging:<m>``.  A ``<path>`` is
relative to the config file.  Parsing then serializing then parsing is the
identity.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linop import LinearMap, OrthoProjector, read_matrix
from .monotone import box, box_support, l1, quadratic_ls, singleton, sq_dist, zero_prox

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "parse_prox_spec",
    "parse_projector_spec",
    "parse_coupling_spec",
    "reads_input",
    "problem_values",
]


def _positive(text):
    value = float(text)
    if not value > 0:  # a NaN fails it
        raise ValueError("must be positive")
    return value


# The [problem] keys each problem reads: the parser of its text, its default
# and its least value (None: no bound).  A blockN key stands for block1,
# block2, ... up to composite_blocks; tags (str) are read by the builders.
# cls's subspace_dim defaults to max(1, dim // 2).
_PROBLEM_KEYS = {
    "cls": {"dim": (int, 6, 1), "subspace_dim": (int, None, 1), "data_seed": (int, 11, 0)},
    "lasso": {"dim": (int, 5, 1), "weight": (float, 0.5, None), "data_seed": (int, 5, 0)},
    "fused": {"dim": (int, 12, 2), "weight": (float, 0.3, None), "data_seed": (int, 3, 0)},
    "multi": {"dim": (int, 6, 2), "data_seed": (int, 17, 0)},
    "custom": {"dim": (int, 4, 1), "h": (str, "zero", None), "g": (str, "zero", None),
               "L": (str, "identity", None), "projector": (str, "full", None),
               "sigma": (_positive, 1.0, None)},
    "custom_composite": {"dim": (int, 4, 1), "h": (str, "zero", None),
                         "blockN.g": (str, "zero", None), "blockN.L": (str, "identity", None),
                         "blockN.sigma": (_positive, 1.0, None),
                         "blockN.omega": (float, 0.0, None)},
}


def composite_blocks(params):
    """The number of blocks of a custom_composite problem: blocks 1, 2, ...
    up to the first N with neither a blockN.g nor a blockN.L key."""
    n = 0
    while "block%d.g" % (n + 1) in params or "block%d.L" % (n + 1) in params:
        n += 1
    return n


def problem_values(name, params):
    """The value of every [problem] key ``name`` reads, parsed from
    ``params`` (its text) or its default.  An unknown problem, a key the
    problem does not read, a value that does not parse and one below its
    least value are config errors."""
    table = _PROBLEM_KEYS.get(name)
    if table is None:
        raise ConfigError("unknown problem %r; available: %s"
                          % (name, ", ".join(sorted(_PROBLEM_KEYS))))
    blocks = range(1, composite_blocks(params) + 1)
    entries = {k: entry for key, entry in table.items()
               for k in ([key.replace("N", str(n)) for n in blocks] if key.startswith("blockN.")
                         else [key])}
    for key in params:
        if key not in entries:
            raise unknown_key("[problem] %s" % name, key, table)
    values = {}
    for key, (parse, default, least) in entries.items():
        values[key] = convert(parse, "[problem]", key, params[key]) if key in params else default
        if key in params and least is not None and values[key] < least:
            raise ConfigError("[problem] %s: must be at least %d" % (key, least))
    return values


def unknown_key(where, key, accepted):
    """The config error for a key that ``where`` (a section, a problem or a
    tag) does not list among ``accepted``."""
    return ConfigError("%s: unknown key %r (accepted: %s)"
                       % (where, key, ", ".join(accepted) or "none"))


def convert(parse, where, key, text):
    """``parse(text)``; a value that does not parse is a config error naming
    where it was read and its key (a config error ``parse`` raises itself,
    such as a file that cannot be read, keeps its message)."""
    try:
        return parse(text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("%s %s: %s" % (where, key, exc)) from exc


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
        problem_values(self.problem, self.problem_params)
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
            if current != "problem" and current not in _KEYS:
                raise ConfigError("line %d: unknown section [%s]" % (lineno, current))
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in line:
            raise ConfigError("line %d: expected 'key = value' inside a section" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError("line %d: key %r repeated in [%s]" % (lineno, key, current))
        sections[current][key] = value
    return sections


def _opt_float(text):
    return None if text == "auto" else float(text)


def _ints(text):
    return tuple(int(v) for v in text.split())


def _checkpoints(text):
    return text if text in ("log", "none") else _ints(text)


def _float(value):
    return repr(float(value))


def _auto(value):
    return "auto" if value is None else _float(value)


def _words(values):
    return values if isinstance(values, str) else " ".join(str(v) for v in values)


# The keys of every section but [problem], in serialization order: the
# ExperimentConfig field each sets, the parser of its text and the formatter
# of its value (a formatter returning None leaves the key out).  A key that
# a file leaves out keeps the field's default; a key not listed is an error.
_KEYS = {
    "schedules": {
        "gamma_kind": ("gamma_kind", str, str),
        "gamma0": ("gamma0", _opt_float, _auto),
        "tau_kind": ("tau_kind", str, str),
        "tau_cap": ("tau_cap", _opt_float, _auto),
    },
    "noise": {
        "kind": ("noise_kind", str, str),
        "sigma0": ("sigma0_sq", float, _float),
        "epsilon": ("epsilon", float, _float),
        "regime": ("regime", str, str),
        "batch_schedule": ("batch_schedule", int, lambda b: None if b is None else "%d" % b),
    },
    "run": {
        "horizon": ("horizon", int, "%d".__mod__),
        "seeds": ("seeds", _ints, _words),
        "checkpoints": ("checkpoints", _checkpoints, _words),
    },
    "output": {
        "dir": ("out_dir", str, str),
    },
}


@reads_input
def parse_config(text, base_dir="."):
    sec = _parse_sections(text)
    params = sec.pop("problem", {})
    fields = {"problem_params": params, "base_dir": base_dir}
    if "name" in params:
        fields["problem"] = params.pop("name")
    for section, values in sec.items():
        table = _KEYS[section]
        for key, text in values.items():
            if key not in table:
                raise unknown_key("[%s]" % section, key, table)
            name, parse, _ = table[key]
            fields[name] = convert(parse, "[%s]" % section, key, text)
    return ExperimentConfig(**fields).validate()


@reads_input
def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def serialize_config(cfg):
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    lines = ["[problem]", "name = %s" % cfg.problem]
    lines += ["%s = %s" % (key, cfg.problem_params[key]) for key in sorted(cfg.problem_params)]
    for section, table in _KEYS.items():
        lines += ["", "[%s]" % section]
        for key, (name, _, fmt) in table.items():
            text = fmt(getattr(cfg, name))
            if text is not None:
                lines.append("%s = %s" % (key, text))
    return "\n".join(lines + [""])


# ---------------------------------------------------------------------------
# Prox-function, coupling and projector tags
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z_0-9]*)\s*(?:\((.*)\))?\s*$")


def _read_path(path, base_dir):
    """The matrix in the file at ``path``, relative to ``base_dir``.  A file
    that cannot be read or parsed, or that holds a NaN or an infinite entry,
    is a ValueError, which :func:`convert` turns into a config error naming
    the key that gave the path."""
    try:
        mat = read_matrix(os.path.join(base_dir, path))
    except OSError as exc:
        raise ValueError("matrix file %s: %s" % (path, exc.strerror or exc)) from exc
    if not np.isfinite(mat).all():
        raise ValueError("matrix file %s: an entry is not finite" % path)
    return mat


def _not_nan(value):
    if math.isnan(value):
        raise ValueError("must not be NaN")
    return value


def _number(text, base_dir):
    """A float other than NaN (an infinite bound is a bound)."""
    return _not_nan(float(text))


def _vector(text, base_dir):
    """A number other than NaN, or the entries of the matrix file at path
    ``text``."""
    try:
        value = float(text)
    except ValueError:
        return _read_path(text, base_dir).ravel()
    return _not_nan(value)


def _quadratic(dim, A=None, D=None, b=None, a=None):
    """0.5||Ax - b||^2 (the keys may also be spelt D and a)."""
    if (A is None and D is None) or (b is None and a is None):
        raise ConfigError("quadratic(...) needs A=<path> and b=<path>")
    return quadratic_ls(D if A is None else A, (a if b is None else b).ravel())


# Each prox tag: its builder, called as build(dim=dim, key=value, ...), and
# the keys it accepts, each with its reader and the text of its default (a
# key with no default is passed only when the tag gives it).
_TAGS = {
    "zero": (zero_prox, {}),
    "l1": (l1, {"weight": (_number, "1.0")}),
    "box": (box, {"lo": (_number, "-1.0"), "hi": (_number, "1.0")}),
    "box_support": (box_support, {"lo": (_number, "-1.0"), "hi": (_number, "1.0")}),
    "singleton": (singleton, {"c": (_vector, "0.0")}),
    "sq_dist": (sq_dist, {"b": (_vector, "0.0")}),
    "quadratic": (_quadratic, {"A": (_read_path, None), "D": (_read_path, None),
                               "b": (_read_path, None), "a": (_read_path, None)}),
}


def parse_prox_spec(tag, dim, base_dir="."):
    """Build a ProxFunction from a config tag like ``l1(weight=0.5)``.

    Scalar arguments broadcast to the target dimension; path arguments load
    matrices/vectors from the plain-text matrix format.
    """
    match = _TAG_RE.match(tag)
    if not match:
        raise ConfigError("malformed prox tag %r" % tag)
    name, body, kw = match.group(1), (match.group(2) or "").strip(), {}
    for part in body.split(",") if body else ():
        if "=" not in part:
            raise ConfigError("malformed tag argument %r (expected key=value)" % part.strip())
        key, value = (side.strip() for side in part.split("=", 1))
        if key in kw:
            raise ConfigError("prox tag %s: key %r repeated" % (name, key))
        kw[key] = value
    if name not in _TAGS:
        raise ConfigError("unknown prox tag %r; known: %s" % (name, ", ".join(_TAGS)))
    build, keys = _TAGS[name]
    for key in kw:
        if key not in keys:
            raise unknown_key("prox tag %s" % name, key, keys)
    values = {key: convert(lambda text: read(text, base_dir), "prox tag %s:" % name, key,
                           kw.get(key, default))
              for key, (read, default) in keys.items() if key in kw or default is not None}
    return build(dim=dim, **values)


def _matrix(spec, base_dir, key):
    """The matrix of a ``matrix:<path>`` or ``basis:<path>`` spec given as
    [problem] ``key``."""
    return convert(lambda path: _read_path(path, base_dir), "[problem]", key,
                   spec.split(":", 1)[1])


def parse_coupling_spec(spec, dim, base_dir=".", key="L"):
    """Build a LinearMap from ``identity`` or ``matrix:<path>``, given as
    [problem] ``key``."""
    if spec == "identity":
        return LinearMap.identity(dim)
    if spec.startswith("matrix:"):
        return LinearMap.from_matrix(_matrix(spec, base_dir, key))
    raise ConfigError("[problem] %s: must be 'identity' or 'matrix:<path>'" % key)


def parse_projector_spec(spec, dim, base_dir="."):
    """Build an OrthoProjector from ``full``, ``matrix:<path>``,
    ``basis:<path>`` or ``averaging:<m>``.  A matrix must be an orthogonal
    projector (:meth:`OrthoProjector.from_matrix`)."""
    spec = spec.strip()
    if spec == "full":
        return OrthoProjector.full(dim)
    if spec.startswith("matrix:"):
        mat = _matrix(spec, base_dir, "projector")
        if mat.shape != (dim, dim):
            raise ConfigError("projector matrix must be %d x %d" % (dim, dim))
        return convert(OrthoProjector.from_matrix, "[problem]", "projector", mat)
    if spec.startswith("basis:"):
        basis = _matrix(spec, base_dir, "projector")
        if basis.shape[0] != dim:
            raise ConfigError("projector basis must have %d rows" % dim)
        return OrthoProjector.from_basis(basis)
    if spec.startswith("averaging:"):
        m = convert(int, "projector %r:" % spec, "the number of copies", spec.split(":", 1)[1])
        if m < 1:
            raise ConfigError("projector %r: the number of copies must be at least 1" % spec)
        if dim % m != 0:
            raise ConfigError("averaging:%d does not divide dimension %d" % (m, dim))
        return OrthoProjector.averaging(m, dim // m)
    raise ConfigError("unknown projector spec %r; known: full, matrix:<path>, "
                      "basis:<path>, averaging:<m>" % spec)
