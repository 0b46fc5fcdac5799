"""The contract of rabicf's 15 record classes: construction, frozen fields,
equality, hashing, repr and the checks of their ``__post_init__``.

Every expected repr is the string the package printed when the classes were
``dataclasses.dataclass`` records, byte for byte."""

import importlib
import math
import pkgutil
from functools import cached_property

import numpy as np
import pytest

import rabicf
from rabicf.convergence import PringsheimCertificate
from rabicf.model import (
    ChainCoefficients,
    EnergyLevel,
    ModelParams,
    Parity,
    SpectralMethod,
    SpectrumApproximation,
    build_chain,
)
from rabicf.resolvent import (
    PlantedChain,
    ResolventStatus,
    ResolventValue,
    build_pathological,
)
from rabicf.schweber import (
    CfStatus,
    CfValue,
    CoefficientSequence,
    ConvergentPair,
    SchweberCoefficient,
)
from rabicf.search import BracketScan, CrossingEvent, MethodAResult, ScanResult

PARAMS = ModelParams(1.0, 0.7, 0.4)
CHAIN = build_chain(PARAMS, Parity.PLUS, 3)
PLANTED = build_pathological(0.5, PARAMS, Parity.PLUS, 4)
CHAIN_FIELDS = ("params", "parity", "order", "diag", "offdiag")
LEVELS = (EnergyLevel(0, -0.5, 1e-12), EnergyLevel(1, 0.25, 2e-12))
SPECTRUM = SpectrumApproximation(SpectralMethod.ORACLE, Parity.MINUS, 3, LEVELS, ((0, 1),))
EVENT = CrossingEvent(0.5, 0.25, 0, 1, 0.5, 1, -0.5)

# class, field names in order, one value per field, the dataclass repr, and
# whether the record hashes: False for an array field (hash raises
# TypeError)
RECORDS = [
    (ModelParams, ("omega", "g", "delta"), (1.0, 0.7, 0.4),
     'ModelParams(omega=1.0, g=0.7, delta=0.4)',
     True),
    (ChainCoefficients, CHAIN_FIELDS, tuple(getattr(CHAIN, n) for n in CHAIN_FIELDS),
     'ChainCoefficients(params=ModelParams(omega=1.0, g=0.7, delta=0.4), '
     'parity=<Parity.PLUS: 1>, order=3)',
     False),
    (PlantedChain, CHAIN_FIELDS + ("base", "target_energy", "variant", "tail",
                                   "planted_diag_nn"),
     tuple(getattr(PLANTED, n) for n in CHAIN_FIELDS + ("base", "target_energy", "variant",
                                                        "tail", "planted_diag_nn")),
     'PlantedChain(params=ModelParams(omega=1.0, g=0.7, delta=0.4), '
     'parity=<Parity.PLUS: 1>, order=4, '
     'base=ChainCoefficients(params=ModelParams(omega=1.0, g=0.7, '
     'delta=0.4), parity=<Parity.PLUS: 1>, order=4), target_energy=0.5, '
     "variant=<PathologicalVariant.DIAG_ONLY: 'diag'>, "
     'tail=-0.6312877263581491)',
     False),
    (PringsheimCertificate, ("c", "start_index", "verified_up_to", "holds", "margin",
                             "unbounded_product"), (2.5, 3, 40, True, 0.125, False),
     'PringsheimCertificate(c=2.5, start_index=3, verified_up_to=40, '
     'holds=True, margin=0.125, unbounded_product=False)',
     True),
    (EnergyLevel, ("index", "energy", "residual"), (2, -0.125, 1e-12),
     'EnergyLevel(index=2, energy=-0.125, residual=1e-12)',
     True),
    (SpectrumApproximation, ("method", "parity", "order", "levels", "flagged_pairs"),
     (SpectralMethod.METHOD_B, Parity.PLUS, 3, LEVELS, ((0, 1),)),
     "SpectrumApproximation(method=<SpectralMethod.METHOD_B: 'b'>, "
     'parity=<Parity.PLUS: 1>, order=3, levels=(EnergyLevel(index=0, '
     'energy=-0.5, residual=1e-12), EnergyLevel(index=1, energy=0.25, '
     'residual=2e-12)), flagged_pairs=((0, 1),))',
     True),
    (BracketScan, ("brackets", "counts"), (((0.0, 0.5), (0.5, 1.0)), ((0, 1), (1, 2))),
     'BracketScan(brackets=((0.0, 0.5), (0.5, 1.0)), counts=((0, 1), (1, '
     '2)))',
     True),
    (MethodAResult, ("spectrum",), (SPECTRUM,),
     "MethodAResult(spectrum=SpectrumApproximation(method=<SpectralMethod.ORACLE: 'oracle'>, "
     'parity=<Parity.MINUS: -1>, order=3, levels=(EnergyLevel(index=0, '
     'energy=-0.5, residual=1e-12), EnergyLevel(index=1, energy=0.25, '
     'residual=2e-12)), flagged_pairs=((0, 1),)))',
     True),
    (CrossingEvent, ("value", "energy", "plus_level", "minus_level", "shifted",
                     "nearest_multiple", "deviation"), (0.75, 1.5, 0, 2, 2.0, 2, 0.0),
     'CrossingEvent(value=0.75, energy=1.5, plus_level=0, minus_level=2, '
     'shifted=2.0, nearest_multiple=2, deviation=0.0)',
     True),
    (ScanResult, ("order", "values", "plus_levels", "minus_levels", "events"),
     (10, np.array([0.0, 1.0]), np.array([[-1.0], [0.5]]), np.array([[-0.5], [0.25]]),
      (EVENT,)),
     'ScanResult(order=10, values=array([0., 1.]), '
     'plus_levels=array([[-1. ],\n       [ 0.5]]), '
     'minus_levels=array([[-0.5 ],\n       [ 0.25]]), '
     'events=(CrossingEvent(value=0.5, energy=0.25, plus_level=0, '
     'minus_level=1, shifted=0.5, nearest_multiple=1, deviation=-0.5),))',
     False),
    (CfValue, ("value", "status"), (-0.25, CfStatus.CONVERGED),
     "CfValue(value=-0.25, status=<CfStatus.CONVERGED: 'converged'>)",
     True),
    (SchweberCoefficient, ("n", "value", "at_pole"), (3, math.nan, True),
     'SchweberCoefficient(n=3, value=nan, at_pole=True)',
     True),
    (CoefficientSequence, ("r",), (np.array([0.5, -2.0]),),
     'CoefficientSequence(r=array([ 0.5, -2. ]))',
     False),
    (ConvergentPair, ("a", "b", "n"), (1.5, -3.0, 4),
     'ConvergentPair(a=1.5, b=-3.0, n=4)',
     True),
    (ResolventValue, ("value", "reciprocal", "status"),
     (math.inf, 0.0, ResolventStatus.POLE_HIT),
     'ResolventValue(value=inf, reciprocal=0.0, '
     "status=<ResolventStatus.POLE_HIT: 'pole-hit'>)",
     True),
]
IDS = [case[0].__name__ for case in RECORDS]


def _same(x, y):
    return x is y or x == y


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    return request.param


def test_every_record_class_is_covered():
    # every class that model.record decorated, in every module of the package
    modules = [importlib.import_module(f"rabicf.{m.name}")
               for m in pkgutil.iter_modules(rabicf.__path__)]
    decorated = {value for module in modules for value in vars(module).values()
                 if isinstance(value, type) and "_record_fields" in value.__dict__}
    assert decorated == {case[0] for case in RECORDS}
    assert len(RECORDS) == len(set(IDS))


def test_construction_by_position_and_keyword(record):
    cls, names, values, _, _ = record
    made = (cls(*values), cls(**dict(zip(names, values))),
            cls(*values[:1], **dict(zip(names[1:], values[1:]))))
    for one in made:
        assert all(_same(getattr(one, n), v) for n, v in zip(names, values))


def test_bad_calls_raise_type_error(record):
    cls, names, values, _, _ = record
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), not_a_field=0)


def test_repr_matches_the_dataclass_repr(record):
    cls, _, values, want, _ = record
    assert repr(cls(*values)) == want


def test_frozen(record):
    cls, names, values, _, _ = record
    made = cls(*values)
    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(made, name, values[0])
        with pytest.raises(AttributeError):
            delattr(made, name)
    assert _same(getattr(made, names[0]), values[0])


def test_eq_and_hash(record):
    cls, names, values, _, hashable = record
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b
    assert a.__eq__(values) is NotImplemented and a != values
    if hashable:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in names))
    else:  # an array field
        with pytest.raises(TypeError):
            hash(a)


def test_eq_compares_every_field_and_the_class():
    assert ModelParams(1, 0.7, 0.4) == ModelParams(1.0, -0.7, -0.4)
    assert ModelParams(1.0, 0.7, 0.4) != ModelParams(1.0, 0.7, 0.5)
    assert EnergyLevel(0, 1.0, 0.0) != EnergyLevel(0, 1.0, 1e-300)
    # a planted chain never equals a plain chain with the same entries
    plain = ChainCoefficients(*(getattr(PLANTED, n) for n in CHAIN_FIELDS))
    assert plain != PLANTED and PLANTED != plain
    assert plain == ChainCoefficients(*(getattr(PLANTED, n) for n in CHAIN_FIELDS))


def test_defaults():
    spectrum = SpectrumApproximation(SpectralMethod.ORACLE, None, 3, LEVELS)
    assert spectrum.flagged_pairs == ()
    assert spectrum == SpectrumApproximation(method=SpectralMethod.ORACLE, parity=None,
                                             order=3, levels=LEVELS, flagged_pairs=())


def test_model_params_checks():
    p = ModelParams(omega=2, g=-3, delta=-1)
    assert (p.omega, p.g, p.delta) == (2.0, 3.0, 1.0)
    assert all(type(x) is float for x in (p.omega, p.g, p.delta))
    for bad in ((0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, math.nan, 1.0), (math.inf, 1.0, 1.0),
                (1.0, 1.0, -math.inf)):
        with pytest.raises(ValueError):
            ModelParams(*bad)


@pytest.mark.parametrize("cls", [ChainCoefficients, PlantedChain])
def test_chain_checks(cls):
    # PlantedChain inherits ChainCoefficients' checks; its own fields follow
    own = tuple(getattr(PLANTED, n) for n in ("base", "target_energy", "variant", "tail",
                                              "planted_diag_nn"))
    extra = own if cls is PlantedChain else ()
    with pytest.raises(ValueError, match="inconsistent with order"):
        cls(PARAMS, Parity.PLUS, 3, np.zeros(3), np.zeros(3), *extra)
    diag, offdiag = np.zeros(4), np.ones(3)
    chain = cls(PARAMS, Parity.PLUS, 3, diag, offdiag, *extra)
    assert not diag.flags.writeable and not offdiag.flags.writeable
    assert chain.diag is diag and chain.dim == 4


def test_spectrum_checks():
    down = (EnergyLevel(0, 0.25, 0.0), EnergyLevel(1, -0.5, 0.0))
    with pytest.raises(ValueError, match="not strictly increasing at indices 0,1"):
        SpectrumApproximation(SpectralMethod.ORACLE, None, 3, down)
    same = (EnergyLevel(0, 0.25, 0.0), EnergyLevel(1, 0.25, 0.0))
    with pytest.raises(ValueError):
        SpectrumApproximation(SpectralMethod.ORACLE, None, 3, same)
    assert len(SpectrumApproximation(SpectralMethod.ORACLE, None, 3, same, ((1, 0),))) == 2


def test_cached_property_on_a_frozen_chain():
    chain = build_chain(PARAMS, Parity.MINUS, 5)
    assert isinstance(ChainCoefficients.__dict__["couplings"], cached_property)
    assert "couplings" not in chain.__dict__
    couplings = chain.couplings
    assert chain.__dict__["couplings"] is couplings is chain.couplings
    assert couplings == (0.0, *(chain.offdiag * chain.offdiag).tolist())
    roots = chain.coupling_roots
    assert roots is chain.coupling_roots and not roots.flags.writeable
    assert roots[-1] == 0.0 and len(roots) == chain.dim + 1
    with pytest.raises(AttributeError):
        chain.couplings = ()
