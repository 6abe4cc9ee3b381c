"""Each regime flag's cut, pinned by designs a part in 1e9 either side of it,
and by an exact tie where one is reachable."""

import pytest

from levicool.configfile import set_si, set_value
from levicool.dynamics import normal_modes
from levicool.steady_state import evaluate

SIDES = [(1 - 1e-9, False), (1 + 1e-9, True)]
#: the documented cuts, stated here so that a changed constant fails
BAD_CAVITY_LINEWIDTHS = 10.0        # trap frequencies
FEEDBACK_OCCUPATIONS = 8.0          # thermal occupations of cooperativity


@pytest.mark.parametrize("side, flag", SIDES)
def test_bad_cavity_cut(config_300nm, side, flag):
    """The linewidth is inversely proportional to the finesse, and the trap
    frequency does not depend on it."""
    _, bundle, _ = evaluate(config_300nm)
    ratio = bundle.cavity_linewidth / bundle.sphere_frequency
    finesse = config_300nm.cavity.finesse * ratio / (BAD_CAVITY_LINEWIDTHS * side)
    _, bundle, report = evaluate(set_si(config_300nm, "cavity.finesse", finesse))
    assert (bundle.cavity_linewidth / bundle.sphere_frequency > BAD_CAVITY_LINEWIDTHS) is flag
    assert report.flags.bad_cavity is flag


@pytest.mark.parametrize("side, flag", SIDES)
def test_feedback_cut(config_300nm, side, flag):
    """The cooperativity is proportional to the intracavity photon number."""
    probe = set_value(config_300nm, "feedback.intracavity_photons", 1e6)
    _, bundle, _ = evaluate(probe)
    photons = 1e6 * FEEDBACK_OCCUPATIONS * bundle.thermal_occupation * side / bundle.cooperativity
    _, bundle, report = evaluate(set_value(probe, "feedback.intracavity_photons", photons))
    assert (bundle.cooperativity > FEEDBACK_OCCUPATIONS * bundle.thermal_occupation) is flag
    assert report.flags.feedback_ground_state_feasible is flag


def test_occupation_of_exactly_one_is_not_the_ground_state(config_100nm):
    """n_ss = 1 exactly is reachable from a config: this atom count, found by
    bisection and a scan of neighbouring floats, gives it on the 100 nm design."""
    _, _, report = evaluate(set_value(config_100nm, "atoms.count", 341495.1569290113))
    assert report.occupation == 1.0
    assert report.flags.ground_state is False


def test_a_splitting_equal_to_the_mean_damping_is_not_resolved():
    """2g equal to the mean damping rate is reachable through `normal_modes`."""
    assert normal_modes(1e5, 1e5, 1.0, sphere_damping=1.0, atom_damping=3.0).resolved is False
    assert normal_modes(1e5, 1e5, 1.0, sphere_damping=1.0, atom_damping=2.9).resolved is True
