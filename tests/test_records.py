"""The package's records: immutable, equal and hashed by value, and the
validated ones refuse what they refused as dataclasses.

Every public ``NamedTuple`` record of the package is found by walking its
modules, and ``SetFamily``, a slotted class, is checked alongside them; the
validated ones are built from ``SAMPLES``, any other from placeholder
values.  The frozen digests pin ``sforge --help`` and ``sforge verify
--help`` byte for byte.
"""

import copy
import hashlib
import importlib
import pickle

import pytest

from sforge.errors import CapacityError, PreconditionError
from sforge.family import GroundSet, SetFamily
from sforge.sunflowers import CoreMode, CorePredicate, SunflowerWitness
from support import run_cli

MODULES = ("boolean", "bounds", "domains", "family", "pipelines", "scenario", "spread",
           "sunflowers")

# the validated records need valid arguments; any other record takes any
SAMPLES = {
    "family.GroundSet": (5,),
    "family.SetFamily": (GroundSet(3), (0b101, 0b011)),
    "sunflowers.CorePredicate": (3, CoreMode.AT_MOST, 1),
    "sunflowers.SunflowerWitness": ((0b101, 0b011), 0b001),
}


def records():
    """(qualified name, class) of every public NamedTuple record, and SetFamily."""
    out = {"family.SetFamily": SetFamily}
    for mod_name in MODULES:
        mod = importlib.import_module(f"sforge.{mod_name}")
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__ \
                    and issubclass(value, tuple) and not name.startswith("_"):
                out[f"{mod_name}.{name}"] = value
    return sorted(out.items())


RECORDS = records()


def build(name, cls):
    args = SAMPLES.get(name)
    return cls(*args) if args else cls(*range(len(cls._fields)))


def test_every_record_is_found():
    names = {name for name, _ in RECORDS}
    assert set(SAMPLES) <= names
    assert {"boolean.GlobalnessVerdict", "pipelines.BoundRecord", "scenario.Op",
            "sunflowers.SearchResult"} <= names
    # the records kept as dataclasses are no tuples
    assert not names & {"domains.Domain", "pipelines.Decomposition", "pipelines.SystemSST",
                        "pipelines.CoverResult", "spread.SpreadLemmaEstimate"}


@pytest.mark.parametrize("name, cls", RECORDS, ids=[name for name, _ in RECORDS])
def test_a_record_refuses_assignment(name, cls):
    rec = build(name, cls)
    fields = getattr(cls, "_fields", ("ground", "members"))
    for field in fields:
        before = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
        assert getattr(rec, field) is before
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("name, cls", RECORDS, ids=[name for name, _ in RECORDS])
def test_equal_values_compare_and_hash_equal(name, cls):
    a, b = build(name, cls), build(name, cls)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name, cls", RECORDS, ids=[name for name, _ in RECORDS])
def test_a_record_copies_and_pickles_to_an_equal_one(name, cls):
    rec = build(name, cls)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec


def test_a_family_is_equal_by_ground_and_members_only():
    F = SetFamily(GroundSet(3), (0b011, 0b101))
    assert F == SetFamily(GroundSet(3), (0b101, 0b011, 0b011))
    assert 0b011 in F and F.members == (0b011, 0b101)  # ``in`` caches its member set
    assert F != SetFamily(GroundSet(4), (0b011, 0b101))
    assert F != (GroundSet(3), (0b011, 0b101))
    with pytest.raises(AttributeError):
        del F.members


@pytest.mark.parametrize("build_bad, error, message", [
    (lambda: GroundSet(True), CapacityError, "ground set size must be in 1..64, got True"),
    (lambda: GroundSet(65), CapacityError, "ground set size must be in 1..64, got 65"),
    (lambda: CorePredicate(1), PreconditionError, "a sunflower needs at least 2 petals"),
    (lambda: CorePredicate(3, CoreMode.EXACT), PreconditionError,
     "core-size bound must be a nonnegative int"),
    (lambda: CorePredicate(3, CoreMode.EXACT, 1, True), PreconditionError,
     "degenerate small-set convention applies to AT_MOST predicates"),
    (lambda: SetFamily(GroundSet(3), (0b001, True)), PreconditionError,
     "member True is not a subset of the ground set"),
    (lambda: SetFamily(GroundSet(3), (0b1000,)), PreconditionError,
     "member 8 is not a subset of the ground set"),
    (lambda: SunflowerWitness((0b011,), 0b001), PreconditionError,
     "witness petals must be at least 2 distinct sets"),
    (lambda: SunflowerWitness((0b011, 0b011), 0b011), PreconditionError,
     "witness petals must be at least 2 distinct sets"),
    (lambda: SunflowerWitness((0b011, 0b101, 0b111), 0b001), PreconditionError,
     "witness pairwise intersections must equal the core"),
], ids=["ground-bool", "ground-65", "one-petal", "no-bound", "degenerate-exact",
        "bool-member", "outside-member", "one-set", "repeated-set", "not-a-sunflower"])
def test_a_validated_record_refuses_what_it_refused(build_bad, error, message):
    with pytest.raises(error) as info:
        build_bad()
    assert type(info.value) is error
    assert info.value.message == message


def test_a_witness_keeps_its_petals_in_canonical_order():
    wit = SunflowerWitness((0b1001, 0b0101, 0b0011), 0b0001)
    assert wit.petals == (0b0011, 0b0101, 0b1001) and wit.core == 0b0001 and wit.s == 3
    assert wit == SunflowerWitness((0b0011, 0b1001, 0b0101), 0b0001)


def test_a_predicate_takes_its_fields_by_keyword():
    pred = CorePredicate(3, mode=CoreMode.AT_MOST, bound=1, degenerate_small_sets=True)
    assert pred == CorePredicate(3, CoreMode.AT_MOST, 1, True)
    assert repr(pred) == ("CorePredicate(s=3, mode=<CoreMode.AT_MOST: 'at_most'>, bound=1, "
                          "degenerate_small_sets=True)")


@pytest.mark.parametrize("args, digest", [
    (["--help"], "fb29374a0094ca499cd325d50c5bf46003371ae7117395df0f7a5ae806b32124"),
    (["verify", "--help"], "7752011f3d41d7e54c63765473b42e40b15354fc6ee1d108899704fd168ff60b"),
], ids=["sforge", "verify"])
def test_help_text_is_unchanged(args, digest):
    result = run_cli(args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
