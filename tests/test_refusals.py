"""Refusals that no other test reaches: each call raises its error class
with its message, before any answer is built."""

import json
from fractions import Fraction

import pytest

from pseudodyn import (CapabilityError, FiniteMeasure, FiniteMetricSpace,
                       GeneratingSystem, InputError, PartialMap,
                       PreconditionError)
from pseudodyn.dynamics import (brute_force_separated, dyn_ball,
                                dyn_ball_via_formula, separated_count,
                                separation_graph)
from pseudodyn.equicont import modulus_at
from pseudodyn.measure import brute_force_invariant_sets
from pseudodyn.model import load_iso, load_measure, parse_model
from pseudodyn.morphism import SpaceIso, transfer_expansive_constant
from pseudodyn.pseudogroup import raw_word_maps, separation_radius
from pseudodyn.shift import (BernoulliSpec, Cylinder, ShiftPoint,
                             bowen_ball_shift, dyn_ball_cylinder,
                             dyn_ball_cylinder_bounds, htop_shift,
                             measure_entropy_shift, window_radius)


def line(n):
    """Points 0..n-1 on a line, at their index distance."""
    return FiniteMetricSpace(list(range(n)),
                             [[abs(i - j) for j in range(n)] for i in range(n)])


LINE = line(3)
SHIFT = PartialMap(LINE, (1, 2, None), name="s")
SYSTEM = GeneratingSystem.build(LINE, [SHIFT])
IDENTITY = PartialMap.identity(LINE)
ISO = SpaceIso(LINE, LINE, [2, 1, 0])


def written(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return str(path)


# deeper than the JSON parser's recursion limit on every supported version
NESTED = "[" * 200_000


REFUSALS = {
    "dyn_ball n": (lambda tmp: dyn_ball(SYSTEM, 0, 0, 1),
                   InputError, "n must be at least 1"),
    "dyn_ball_via_formula n": (
        lambda tmp: dyn_ball_via_formula(SYSTEM, 0, 0, 1),
        InputError, "n must be at least 1"),
    "separated_count n": (lambda tmp: separated_count(SYSTEM, 0, 1),
                          InputError, "n must be at least 1"),
    "separated_count n float": (lambda tmp: separated_count(SYSTEM, 1.5, 1),
                                InputError, "n must be an integer (got 1.5)"),
    "dyn_ball n float": (lambda tmp: dyn_ball(SYSTEM, 0, 1.5, 1),
                         InputError, "n must be an integer (got 1.5)"),
    "dyn_ball n bool": (lambda tmp: dyn_ball(SYSTEM, 0, True, 1),
                        InputError, "n must be an integer (got True)"),
    "constraint_table n float": (
        lambda tmp: SYSTEM.constraint_table(2.5),
        InputError, "n must be an integer (got 2.5)"),
    "separated_count eps": (lambda tmp: separated_count(SYSTEM, 1, 0),
                            InputError, "scale must be positive"),
    "separation_graph eps": (lambda tmp: separation_graph(SYSTEM, 1, 0),
                             InputError, "scale must be positive"),
    "brute_force_separated eps": (
        lambda tmp: brute_force_separated(SYSTEM, 1, -1),
        InputError, "scale must be positive"),
    "modulus_at eps": (lambda tmp: modulus_at(SYSTEM, LINE, -5),
                       InputError, "radius must be nonnegative"),
    "forward_modulus eps": (lambda tmp: ISO.forward_modulus(-1),
                            InputError, "radius must be nonnegative"),
    "inverse_modulus eps": (lambda tmp: ISO.inverse_modulus(-1),
                            InputError, "radius must be nonnegative"),
    "ball_ix radius": (lambda tmp: LINE.ball_ix(0, -1),
                       InputError, "radius must be nonnegative"),
    "separated_count mode": (
        lambda tmp: separated_count(SYSTEM, 1, 1, mode="fast"),
        InputError, "unknown mode 'fast'"),
    "brute_force_separated size": (
        lambda tmp: brute_force_separated(
            GeneratingSystem.build(line(15), []), 1, 1),
        CapabilityError, "small instances only"),
    "weights length": (lambda tmp: FiniteMeasure(LINE, [1]),
                       InputError, "weight vector length"),
    "brute_force_invariant_sets size": (
        lambda tmp: brute_force_invariant_sets(
            GeneratingSystem.build(line(23), [])),
        InputError, "for small spaces"),
    "schema": (lambda tmp: parse_model(json.dumps({"schema": 99})),
               InputError, "unsupported schema version 99"),
    "model nested": (lambda tmp: parse_model(NESTED),
                     InputError, "JSON nested too deeply"),
    "model repeated key": (
        lambda tmp: parse_model('{"points": [0], "dist": [[0]], '
                                '"dist": [[1]]}'),
        InputError, "repeated key 'dist'"),
    "measure file mu": (lambda tmp: load_measure(written(tmp, "{}"), LINE),
                        InputError, "needs a 'mu' object"),
    "measure file nested": (
        lambda tmp: load_measure(
            written(tmp, '{"mu": ' + '{"0": ' * 200_000 + "1"
                    + "}" * 200_001),
            LINE),
        InputError, "JSON nested too deeply"),
    "measure file repeated key": (
        lambda tmp: load_measure(
            written(tmp, '{"mu": {"0": "1/2", "1": "1/2", "0": "1/4"}}'),
            LINE),
        InputError, "repeated key '0'"),
    "iso file phi": (lambda tmp: load_iso(written(tmp, "{}"), LINE),
                     InputError, "needs a 'phi' object"),
    "iso file nested": (lambda tmp: load_iso(written(tmp, NESTED), LINE),
                        InputError, "JSON nested too deeply"),
    "iso file repeated key": (
        lambda tmp: load_iso(
            written(tmp, '{"phi": {"0": "a", "1": "b", "2": "c", '
                         '"1": "d"}}'), LINE),
        InputError, "repeated key '1'"),
    "SpaceIso sizes": (lambda tmp: SpaceIso(LINE, line(2), [0, 1]),
                       InputError, "same cardinality"),
    "transfer eta": (
        lambda tmp: transfer_expansive_constant(0, SpaceIso(LINE, LINE,
                                                            [0, 1, 2])),
        InputError, "eta must be positive"),
    "PartialMap length": (lambda tmp: PartialMap(LINE, (0, 1)),
                          InputError, "value table length"),
    "PartialMap range": (lambda tmp: PartialMap(LINE, (0, 1, 3)),
                         InputError, "image index 3 out of range"),
    "apply off domain": (lambda tmp: SHIFT.apply(2),
                         InputError, "outside the domain"),
    "then across spaces": (
        lambda tmp: SHIFT.then(PartialMap.identity(line(4))),
        InputError, "different spaces"),
    "system generator from another space": (
        lambda tmp: GeneratingSystem(LINE, [IDENTITY,
                                            PartialMap(line(2), (1, 0))]),
        InputError, "does not live on the system's space"),
    "build generator from another space": (
        lambda tmp: GeneratingSystem.build(
            LINE, [PartialMap(line(2), (1, None), name="t")],
            cores={"t": {2}}),
        InputError, "does not live on the system's space"),
    "system identity": (lambda tmp: GeneratingSystem(LINE, [SHIFT]),
                        InputError, "must contain the total identity"),
    "cores length": (
        lambda tmp: GeneratingSystem(LINE, [IDENTITY, SHIFT], cores=[None]),
        InputError, "cores must parallel"),
    "core missing": (
        lambda tmp: GeneratingSystem(LINE, [IDENTITY, SHIFT],
                                     cores=[None, None]),
        InputError, "is missing its core"),
    "core outside domain": (
        lambda tmp: GeneratingSystem(LINE, [IDENTITY, SHIFT],
                                     cores=[None, {2}]),
        InputError, "is not inside its domain"),
    "build core outside domain": (
        lambda tmp: GeneratingSystem.build(LINE, [SHIFT], cores={"s": {2}}),
        InputError, "core of <s: 0->1, 1->2> is not inside its domain"),
    "build inverse core outside domain": (
        lambda tmp: GeneratingSystem.build(LINE, [SHIFT],
                                           cores={"s^-1": {0}}),
        InputError, "core of <s^-1: 1->0, 2->1> is not inside its domain"),
    "core unknown generator": (
        lambda tmp: GeneratingSystem.build(LINE, [SHIFT], cores={"t": {0}}),
        InputError, "unknown generator 't'"),
    "maps_at n": (lambda tmp: SYSTEM.word_closure().maps_at(0),
                  InputError, "n must be at least 1"),
    "raw_word_maps n": (lambda tmp: raw_word_maps(SYSTEM, 0),
                        InputError, "n must be at least 1"),
    "constraint_table n": (lambda tmp: SYSTEM.constraint_table(-1),
                           InputError, "n must be at least 1"),
    "separation_radius cores": (lambda tmp: separation_radius(SYSTEM),
                                PreconditionError, "requires cores"),
    "ShiftPoint window": (lambda tmp: ShiftPoint((0, 1)),
                          InputError, "length is odd"),
    "ShiftPoint symbols": (lambda tmp: ShiftPoint((2,)),
                           InputError, "symbols must be 0 or 1"),
    "ShiftPoint background": (lambda tmp: ShiftPoint((0,), 2),
                              InputError, "background symbol"),
    "window_radius mode": (lambda tmp: window_radius(1, mode="fast"),
                           InputError, "unknown mode 'fast'"),
    "Cylinder symbols": (lambda tmp: Cylinder(0, (0, 2)),
                         InputError, "symbols must be 0 or 1"),
    "BernoulliSpec p": (lambda tmp: BernoulliSpec(1),
                        InputError, "strictly between 0 and 1"),
    "dyn_ball_cylinder n": (
        lambda tmp: dyn_ball_cylinder(ShiftPoint.zero(), -1, 1),
        InputError, "n must be nonnegative"),
    "dyn_ball_cylinder_bounds n": (
        lambda tmp: dyn_ball_cylinder_bounds(ShiftPoint.zero(), -3,
                                             Fraction(1, 2)),
        InputError, "n must be nonnegative"),
    "measure_entropy_shift n": (
        lambda tmp: measure_entropy_shift(BernoulliSpec(0.5), 1, 0),
        InputError, "n must be at least 1"),
    "htop_shift n": (lambda tmp: htop_shift(1, -1),
                     InputError, "n must be nonnegative"),
    "bowen_ball_shift delta": (
        lambda tmp: bowen_ball_shift(ShiftPoint.zero(), 0),
        InputError, "delta must be positive"),
    "empty space": (lambda tmp: FiniteMetricSpace([], []),
                    InputError, "at least one point"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name, tmp_path):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert type(caught.value) is error
    assert fragment in str(caught.value)
