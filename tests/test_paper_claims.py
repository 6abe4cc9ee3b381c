"""The abstract's claims, as the two reference designs meet them under both models.

(a) ground-state cooling from room temperature, (b) with only a modest cavity
finesse, and (c) cooling that can be turned off to observe strongly coupled
dynamics. Claims (a) and (b) are read from one pass over 2,001 log-spaced
finesses from 1 to 1e6, every other key at its reference value, under the
closed form `n_ss` and the two-mode model of `test_model_limits`; a band edge
and the finesse of least n are pinned to the pass's grid spacing.
"""

import numpy as np
import pytest

from levicool.configfile import set_si
from levicool.constants import to_display_hz
from levicool.dynamics import normal_modes
from levicool.steady_state import evaluate

from test_model_limits import two_mode_occupation

FINESSE = np.geomspace(1.0, 1e6, 2001)
STEP = FINESSE[1] / FINESSE[0] - 1       # 0.7%

#: design -> model -> (ground-state band of finesse or None, least n, its finesse)
CLAIMS = {
    "300nm": {"closed form": ((112, 3236), 0.3605, 621), "two-mode": (None, 1.542, 630)},
    "100nm": {"closed form": ((23.3, 17579), 0.07315, 675),
              "two-mode": ((104, 4325), 0.3143, 675)},
}


@pytest.fixture(scope="module")
def finesse_pass(config_300nm, config_100nm):
    out = {}
    for design, config in (("300nm", config_300nm), ("100nm", config_100nm)):
        two_mode, closed_form, _ = two_mode_occupation(set_si(config, "cavity.finesse", FINESSE))
        out[design] = {"closed form": closed_form, "two-mode": two_mode}
    return out


@pytest.mark.parametrize("design, model", [(d, m) for d in CLAIMS for m in CLAIMS[d]])
def test_ground_state_finesse_band(finesse_pass, design, model):
    band, least, at = CLAIMS[design][model]
    occupation = finesse_pass[design][model]
    ground = np.flatnonzero(occupation < 1)
    if band is None:
        assert ground.size == 0
    else:
        assert ground.size == ground[-1] - ground[0] + 1        # one band
        # the stated edges are rounded to at most 0.5% of their value
        assert FINESSE[ground[0]] == pytest.approx(band[0], rel=STEP)
        assert FINESSE[ground[-1]] == pytest.approx(band[1], rel=STEP)
    k = int(np.argmin(occupation))
    assert occupation[k] == pytest.approx(least, rel=1e-3)
    assert FINESSE[k] == pytest.approx(at, rel=STEP)


def test_strong_coupling_only_at_100nm(pipeline_300nm, pipeline_100nm):
    """Claim (c): the 300 nm design is not strongly coupled (ratio 0.5511); the
    100 nm one is, with the resolved splitting that `simulate` prints."""
    _, _, report = pipeline_300nm
    assert report.flags.strong_coupling is False
    assert report.strong_coupling_ratio == pytest.approx(0.5511, rel=1e-3)
    _, bundle, report = pipeline_100nm
    assert report.flags.strong_coupling is True
    modes = normal_modes(bundle.sphere_frequency, bundle.atom_frequency, bundle.coupling,
                         sphere_damping=(bundle.sphere_backaction + bundle.sphere_recoil
                                         + bundle.thermalization),
                         atom_damping=bundle.atom_diffusion)
    assert modes.resolved is True
    assert to_display_hz(modes.splitting) == pytest.approx(2298, rel=1e-3)
