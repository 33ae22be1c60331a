"""Reading market specification files and writing result documents.

Spec files are JSON with a "kind" discriminator:

    one_period  instruments (name, price), atoms, payoffs (one row per
                atom, one column per instrument)
    panel       times, instruments (names), atoms, blocks (per time, a
                partition of atom indices), prices and optional
                cashflows (per time, one row per block)
    curve       maturities and discounts (the text row format of
                load_discount_curve is also accepted by sniffing)
    bachelier   R, s, sigma
    gbm         r, s, sigma, t
    levy        r, s, sigma, t, base {mean, nodes, weights}, smoothing

All kinds take an optional options.tolerance, finite and > 0.  Numbers
must be finite; NaN and Infinity literals are rejected.  Result
documents are dictionaries that json serializes deterministically with
full-precision floats, so they round-trip losslessly and rerun
byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import partial

import numpy as np

from .cone import DEFAULT_TOL, OnePeriodMarket
from .exceptions import SpecFileError
from .filtration import Algebra, Filtration, SimpleFunction
from .models import BachelierParams, GBMParams, KolmogorovLaw, LevyModelParams
from .multi_period import MarketPanel
from .rates import DiscountCurve, load_discount_curve


class MarketSpec:
    """A parsed spec file: the kind tag, the built domain object, the
    instrument names, and the requested tolerance."""

    def __init__(self, kind, payload, names=None, tolerance=DEFAULT_TOL, smoothing=0.0):
        self.kind = kind
        self.payload = payload
        self.names = names
        self.tolerance = tolerance
        self.smoothing = smoothing


def _reject_constant(token):
    raise SpecFileError(f"non-finite literal {token!r} in spec file")


def _require(cond, msg):
    if not cond:
        raise SpecFileError(msg)


def _numbers(raw):
    """Whether raw is a number or nested lists of them: not a string or a bool."""
    return (all(map(_numbers, raw)) if isinstance(raw, list)
            else isinstance(raw, (int, float)) and not isinstance(raw, bool))


_SHAPES = ("a number", "a flat list of numbers", "a list of equal-length lists of numbers")


def _finite_array(raw, shape_hint, where):
    _require(_numbers(raw), f"{where}: only numbers allowed")
    try:
        arr = np.asarray(raw, dtype=float)
    except ValueError as exc:
        raise SpecFileError(f"{where}: not a regular array ({exc})") from exc
    _require(np.isfinite(arr).all(), f"{where}: entries must be finite")
    _require(arr.ndim == len(shape_hint), f"{where}: expected {_SHAPES[len(shape_hint)]}")
    return arr


def load_payoff_file(path) -> np.ndarray:
    """A payoff file's flat list of finite numbers; SpecFileError on any problem."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SpecFileError(f"bad payoff file {path}: {exc}") from exc
    return _finite_array(raw, (0,), f"payoff file {path}")


def _finite_scalar(doc, key, where, default=None):
    if key not in doc:
        _require(default is not None, f"{where}: missing field '{key}'")
        return default
    return float(_finite_array(doc[key], (), f"{where}.{key}"))


def check_tolerance(value, where) -> float:
    """value as the verdict tolerance: a finite number above zero."""
    _require(bool(np.isfinite(value)) and value > 0.0,
             f"{where}: the tolerance must be finite and > 0, not {value!r}")
    return float(value)


def _tolerance(doc):
    options = doc.get("options", {})
    _require(isinstance(options, dict), "options must be an object")
    return check_tolerance(_finite_scalar(options, "tolerance", "options", default=DEFAULT_TOL),
                           "options.tolerance")


def _instruments(doc, with_prices):
    raw = doc.get("instruments")
    _require(isinstance(raw, list) and raw, "instruments must be a nonempty list")
    names, prices = [], []
    for i, entry in enumerate(raw):
        _require(isinstance(entry, dict) and "name" in entry,
                 f"instruments[{i}]: need an object with a 'name'")
        names.append(str(entry["name"]))
        if with_prices:
            prices.append(_finite_scalar(entry, "price", f"instruments[{i}]"))
    return tuple(names), np.array(prices) if with_prices else None


def _one_period(doc):
    names, prices = _instruments(doc, with_prices=True)
    atoms = doc.get("atoms")
    _require(isinstance(atoms, list) and atoms, "atoms must be a nonempty list")
    payoffs = _finite_array(doc.get("payoffs"), (0, 0), "payoffs")
    _require(payoffs.shape == (len(atoms), len(names)),
             "payoffs: need one row per atom and one column per instrument")
    market = OnePeriodMarket(prices=prices, payoffs=payoffs, labels=tuple(str(a) for a in atoms))
    return MarketSpec("one_period", market, names, _tolerance(doc))


def _partition(raw, n_atoms, where):
    _require(isinstance(raw, list) and raw, f"{where}: need a list of blocks")
    block_of = np.full(n_atoms, -1, dtype=int)
    for b, block in enumerate(raw):
        _require(isinstance(block, list) and block, f"{where}[{b}]: empty block")
        for idx in block:
            _require(type(idx) is int and 0 <= idx < n_atoms,
                     f"{where}[{b}]: atom index {idx!r} is not an integer in [0, {n_atoms})")
            _require(block_of[idx] < 0, f"{where}: atom {idx} in two blocks")
            block_of[idx] = b
    _require((block_of >= 0).all(), f"{where}: blocks must cover every atom")
    return Algebra(block_of)


def _panel(doc):
    names, _ = _instruments(doc, with_prices=False)
    m = len(names)
    atoms = doc.get("atoms")
    _require(isinstance(atoms, list) and atoms, "atoms must be a nonempty list")
    times = _finite_array(doc.get("times"), (0,), "times")
    blocks = doc.get("blocks")
    _require(isinstance(blocks, list) and len(blocks) == times.size,
             "blocks: need one partition per time")
    algebras = [_partition(blocks[j], len(atoms), f"blocks[{j}]")
                for j in range(times.size)]
    filtration = Filtration(algebras)

    def rows(field, required):
        raw = doc.get(field)
        if raw is None and not required:
            return None
        _require(isinstance(raw, list) and len(raw) == times.size,
                 f"{field}: need one list of block rows per time")
        out = []
        for j, level in enumerate(raw):
            arr = _finite_array(level, (0, 0), f"{field}[{j}]")
            _require(arr.shape == (filtration[j].n_blocks, m),
                     f"{field}[{j}]: need one row of {m} values per block")
            out.append(SimpleFunction(filtration[j], arr))
        return out

    panel = MarketPanel(times, filtration, rows("prices", True), rows("cashflows", False))
    return MarketSpec("panel", panel, names, _tolerance(doc))


def _curve(doc):
    maturities = _finite_array(doc.get("maturities"), (0,), "maturities")
    discounts = _finite_array(doc.get("discounts"), (0,), "discounts")
    return MarketSpec("curve", DiscountCurve(maturities, discounts), None, _tolerance(doc))


def _model(cls, doc, **given):
    """A model spec of cls: the given fields, and a finite number from
    doc for each of its others."""
    kind = doc["kind"]
    params = cls(**given, **{f.name: _finite_scalar(doc, f.name, kind)
                             for f in fields(cls) if f.name not in given})
    return MarketSpec(kind, params, None, _tolerance(doc))


def _levy(doc):
    base = doc.get("base")
    _require(isinstance(base, dict), "levy: need a 'base' law object")
    law = KolmogorovLaw(mean=_finite_scalar(base, "mean", "base"),
                        nodes=_finite_array(base.get("nodes"), (0,), "base.nodes"),
                        weights=_finite_array(base.get("weights"), (0,), "base.weights"))
    spec = _model(LevyModelParams, doc, base=law)
    spec.smoothing = _finite_scalar(doc, "smoothing", "levy", default=0.0)
    return spec


_LOADERS = {"one_period": _one_period, "panel": _panel, "curve": _curve,
            "bachelier": partial(_model, BachelierParams),
            "gbm": partial(_model, GBMParams), "levy": _levy}


def load_market_spec(path) -> MarketSpec:
    """Parse and validate a spec file; SpecFileError on any problem."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    if not text.lstrip().startswith("{"):
        # bare curve rows: "(maturity, discount)" per line
        try:
            return MarketSpec("curve", load_discount_curve(path), None, DEFAULT_TOL)
        except Exception as exc:
            raise SpecFileError(f"{path}: not JSON and not a curve file ({exc})") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON ({exc})") from exc
    _require(isinstance(doc, dict), "spec must be a JSON object")
    kind = doc.get("kind")
    _require(kind in _LOADERS, f"unknown kind {kind!r}; expected one of {sorted(_LOADERS)}")
    try:
        return _LOADERS[kind](doc)
    except SpecFileError:
        raise
    except Exception as exc:
        raise SpecFileError(f"invalid {kind} spec: {exc}") from exc


# ---------------------------------------------------------------------------
# result documents


def display(value) -> str:
    """A number at the 12 significant digits the tool displays."""
    return f"{float(value):.12g}"


def render_document(doc: dict) -> str:
    """Serialize a result document by json: sorted keys, full-precision
    floats, numpy arrays and scalars by their tolist(), one trailing
    newline.  Deterministic for identical inputs."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False,
                      default=lambda value: value.tolist()) + "\n"


def parse_document(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)
