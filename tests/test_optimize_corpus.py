"""CLI golden corpus: exit code and the sha256 of stdout, stderr and the output
file of `optimize`, `report`, `sweep`, `simulate` and `sensitivity` runs on
thirteen configs, so no output byte moves unseen.

Each config is the 300 nm reference (or the 100 nm one) with a few lines
edited, or its bytes re-encoded. Every run starts in the directory that holds
the configs, so the paths the output names are the same on every machine. A
change that moves an entry on purpose lists it, with its reason, in
CHANGES.md. Run this file as a script to print the table for the tree at hand:
``PYTHONPATH=src python tests/test_optimize_corpus.py``.
"""

import hashlib
import os
import re
from pathlib import Path

import pytest

from levicool.cli import main

from conftest import CONFIG_100NM, CONFIG_300NM

#: config name -> (source config, {key: value}: None drops the key's line, others set it)
CONFIGS = {
    "table1_300nm": (CONFIG_300NM, {}),
    "table1_100nm": (CONFIG_100NM, {}),
    "gas_free": (CONFIG_300NM, {"env.pressure_torr": "0"}),
    "feedback": (CONFIG_300NM, {"feedback.intracavity_photons": "1e8"}),
    "first_principles": (CONFIG_300NM, {"mode": "first-principles",
                                        "atoms.axial_frequency_2pi_hz": None}),
    "noise": (CONFIG_300NM, {"noise.intensity_psd_per_hz": "1e-12",
                             "noise.pointing_psd_m2_per_hz": "1e-30",
                             "noise.mean_square_position_m2": "1e-18",
                             "noise.include_in_occupation": "true"}),
    "lossy_path": (CONFIG_300NM, {"cavity.coupling_efficiency": "0.5",
                                  "cavity.path_transmittivity": "0.3"}),
    "dark_lattice": (CONFIG_300NM, {"lattice.power_uw": "0"}),
    "huge_lattice_power": (CONFIG_300NM, {"lattice.power_uw": "1e300"}),
    "unknown_key": (CONFIG_300NM, {"cavity.colour": "red"}),
    "bad_number": (CONFIG_300NM, {"cavity.finesse": "4_00"}),
    "bom": (CONFIG_300NM, {}),
    "crlf": (CONFIG_300NM, {}),
}

#: config name -> its file's bytes from the edited text's UTF-8 bytes (default: as they are)
ENCODINGS = {
    "bom": lambda data: b"\xef\xbb\xbf" + data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
}

#: the file a run writes, in the configs' directory
OUTPUT = "out.csv"

FIVE = "sphere.radius_nm,atoms.count,lattice.power_uw,tweezer.power_mw,cavity.finesse"

#: search name -> its `optimize` arguments
SEARCHES = {
    "base": ("--require", "ground_state"),
    "v1": ("--vary", "cavity.finesse", "--bounds", "100:5000"),
    "v1_require": ("--vary", "cavity.finesse", "--bounds", "100:5000",
                   "--require", "ground_state", "--format", "json"),
    "v3": ("--vary", "sphere.radius_nm,atoms.count,cavity.finesse",
           "--bounds", "50:300,1e6:1e8,100:5000", "--format", "json"),
    "v3_require": ("--vary", "sphere.radius_nm,atoms.count,cavity.finesse",
                   "--bounds", "50:300,1e6:1e8,100:5000",
                   "--require", "ground_state,strong_coupling"),
    "v5": ("--vary", FIVE, "--bounds", "10:500,1e3:1e9,1:1e3,10:1e3,50:5000"),
    "v5_require": ("--vary", FIVE, "--bounds", "10:500,1e3:1e9,1:1e3,10:1e3,50:5000",
                   "--require", "ground_state,adiabatic_ok", "--format", "json"),
    # infeasible where no feedback cooperativity is configured: exit 3, no trace
    "feedback_require": ("--vary", "cavity.finesse", "--bounds", "100:5000",
                         "--require", "feedback_ground_state_feasible"),
    # radii past 1e100 nm overflow: error probes with empty n_ss fields
    "errors": ("--vary", "sphere.radius_nm", "--bounds", "50:1e200",
               "--require", "ground_state"),
}

def _sweep(radius: str = "50:300:6", atoms: str = "1e6:1e8:5", *options: str) -> tuple:
    return ("sweep", "--radius", radius, "--atoms", atoms, *options, "--out", OUTPUT)


def _bounds(bounds: str, vary: str = "cavity.finesse") -> tuple:
    return ("optimize", "--vary", vary, "--bounds", bounds)


#: run name -> its command and arguments after ``--config <config file>``
COMMANDS = {
    "report": ("report",),
    "report_json": ("report", "--format", "json"),
    "sweep": _sweep(),
    "sweep_log": _sweep("50:300:6", "1e6:1e8:5", "--log-atoms"),
    "simulate": ("simulate", "--t-end", "2e-4", "--out", OUTPUT),
    "simulate_off": ("simulate", "--t-end", "2e-4", "--cooling-off-at", "1e-4",
                     "--n0", "100", "--out", OUTPUT),
    "sensitivity": ("sensitivity", "--param", "cavity.finesse"),
    "sensitivity_json": ("sensitivity", "--param", "atoms.count", "--format", "json"),
}

#: run name -> its command and arguments: every range and bounds error, and
#: numbers outside a config file's grammar
ARGUMENTS = {
    "radius_parts": _sweep("50:300"),
    "radius_text": _sweep("5O:300:6"),
    "radius_float_steps": _sweep("50:300:6.0"),
    "radius_nan": _sweep("nan:300:6"),
    "radius_inf": _sweep("50:inf:6"),
    "radius_negative": _sweep("-50:300:6"),
    "radius_zero": _sweep("0:300:6"),
    "radius_reversed": _sweep("300:50:3"),
    "radius_degenerate": _sweep("100:100:2"),
    "radius_single": _sweep("100:100:1"),
    "radius_one_step": _sweep("50:300:1"),
    "radius_signed_steps": _sweep("50:300:+6"),
    "atoms_parts": _sweep(atoms="1e6:1e8:3:4"),
    "atoms_text": _sweep(atoms="1e6:lots:3"),
    "atoms_inf": _sweep(atoms="1e6:inf:3"),
    # "-inf..." is joined to its option, so the range check names it
    "atoms_negative_inf": _sweep(atoms="-inf:1e8:3"),
    "atoms_zero": _sweep(atoms="0:1e8:3"),
    "atoms_zero_log": _sweep("50:300:6", "0:1e8:3", "--log-atoms"),
    "atoms_reversed": _sweep(atoms="1e8:1e6:3"),
    "atoms_degenerate": _sweep(atoms="1e6:1e6:3"),
    "atoms_single_log": _sweep("50:300:6", "1e6:1e6:1", "--log-atoms"),
    "atoms_one_step": _sweep(atoms="1e6:1e8:1"),
    "atoms_negative_steps": _sweep(atoms="1e6:1e8:-3"),
    "radius_and_atoms_reversed": _sweep("300:50:3", "1e8:1e6:3"),
    "radius_reversed_atoms_text": _sweep("300:50:3", "1e6:x:3"),
    "too_many_cells": _sweep("50:300:1001", "1e6:1e8:1000"),
    "radius_underscore_steps": _sweep("50:300:1_0"),
    "radius_arabic_steps": _sweep("50:300:\u0663"),
    "radius_underscore_lo": _sweep("5_0:300:6"),
    "atoms_fullwidth_hi": _sweep(atoms="1e6:\uff11e8:5"),
    "bounds_parts": _bounds("100"),
    "bounds_text": _bounds("100:many"),
    "bounds_count": _bounds("100:1000", "cavity.finesse,atoms.count"),
    "bounds_reversed": _bounds("1000:100"),
    "bounds_infinite": _bounds("100:inf"),
    "bounds_underscore": _bounds("1_00:1_000"),
    "bounds_arabic": _bounds("\u0661\u0660\u0660:1000"),
    # a float option's value, read in the same grammar; argparse's exit 2 and message
    "t_end_underscore": ("simulate", "--t-end", "1_0e-5", "--out", OUTPUT),
    "dt_text": ("simulate", "--dt", "abc", "--out", OUTPUT),
    "n0_fullwidth": ("simulate", "--t-end", "2e-4", "--n0", "\uff11\uff10\uff10",
                     "--out", OUTPUT),
    "cooling_off_underscore": ("simulate", "--t-end", "2e-4", "--cooling-off-at", "1_0e-5",
                               "--out", OUTPUT),
    "rel_step_arabic": ("sensitivity", "--param", "cavity.finesse",
                        "--rel-step", "\u0660.\u0660\u0662"),
}

#: run name -> its command and arguments
RUNS = {**{name: ("optimize", *args, "--trace-out", OUTPUT) for name, args in SEARCHES.items()},
        **COMMANDS, **ARGUMENTS}

#: the runs recorded on each config: the searches on the first five, the
#: commands on all, the argument errors on the 300 nm reference
PLAN = [(config, name) for config in list(CONFIGS)[:5] for name in SEARCHES]
PLAN += [(config, name) for config in CONFIGS for name in COMMANDS]
PLAN += [("table1_300nm", name) for name in ARGUMENTS]

#: (config, run) -> (exit code, sha256 of stdout, of stderr, of the output file or None)
CORPUS = {
    ('table1_300nm', 'base'): (
        0, 'bcfce3e1625339751928c361af369fc8d6321800b01da2ceacdf12e56186867e',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c17ff6eba5dc90fea9e1f4aa74d943b82b0a1937964257b5757697ee14f10432'),
    ('table1_300nm', 'v1'): (
        0, '29b9bdd207938983da320d750274f72f9233a380a7725c34b53c9ea3a6a40c81',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b8e83f68d639bb98caa678db82cd7465558582b2474de3af747302c8f009b618'),
    ('table1_300nm', 'v1_require'): (
        0, '3b40e2f43ada10f15f798f62f1357a030f5633c780b79cbf86be3f04b4b5ba14',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '364963a458c4d1945900258c3be45faf94a96f06334523f9959c79cd0322fa68'),
    ('table1_300nm', 'v3'): (
        0, '12b94395f527a9deb7252585e5754a391951c71955b1ff4ac11218fc837789f6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0806dd4820a350ccc2e7bb41703810df2f0af79940d300950624417dabf849d4'),
    ('table1_300nm', 'v3_require'): (
        0, '5737bce288cb42cf7a48f1b065a4d253b02b5afe72188bc779051dc67076768c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'caab08d8102770e5ea80be1e7e4d19b3cb889c2f5de1c14ac36f3da04413a447'),
    ('table1_300nm', 'v5'): (
        0, '1d66df1d21b0d155cb32561c34f689cbd499bb8a470c00e5951a3d0ad5fba875',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd43a63bf53a006da9c781932b0b8e420b46ac8ec00fa01f5c94ccbe79affdac2'),
    ('table1_300nm', 'v5_require'): (
        0, 'cec9caa4b5f6cf52a70b2dd2fc5e6a2fb433a8f368b1d149980d0a38d8d26d31',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e70c3330986c767aa673ec6bd4e63e77327abf0fe639e53cecc4aa56587f9c60'),
    ('table1_300nm', 'feedback_require'): (
        3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd000f868daafb05fa95884675cb521e8ce0d10f8aeaff8d710afc4682b70c346',
        None),
    ('table1_300nm', 'errors'): (
        0, '7c63c1b8eb8746c5bb124e926d0f3b19f8fe1c08850788fd653251ef8dd89e0a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1cbd4d514385b3e2967b3326076816ddc2d7cf65b4c8420e2aca7f494570a665'),
    ('table1_100nm', 'base'): (
        0, '926f9f8167dc21b1f9dfaa1791078ed584d671dcf4482bf9b1b1b574e9ca98c6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '351b0470523d675e487162d5d80a9201242199903b7eaedc06d4d6c217720273'),
    ('table1_100nm', 'v1'): (
        0, 'b2881069419e95b3ead9d464279e61b0e6c403507079e5be59bb2f213a3e12fe',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'da661b9d549ab0a57462856813734dc2c20c86f2d9487d37f9ec69e7a0e6f555'),
    ('table1_100nm', 'v1_require'): (
        0, '3b94ab75e0a8443a8739b662ae7200f700e4542d98dd1a8ff6b61d662570c0da',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'da661b9d549ab0a57462856813734dc2c20c86f2d9487d37f9ec69e7a0e6f555'),
    ('table1_100nm', 'v3'): (
        0, '12b94395f527a9deb7252585e5754a391951c71955b1ff4ac11218fc837789f6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0806dd4820a350ccc2e7bb41703810df2f0af79940d300950624417dabf849d4'),
    ('table1_100nm', 'v3_require'): (
        0, '5737bce288cb42cf7a48f1b065a4d253b02b5afe72188bc779051dc67076768c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'caab08d8102770e5ea80be1e7e4d19b3cb889c2f5de1c14ac36f3da04413a447'),
    ('table1_100nm', 'v5'): (
        0, '1d66df1d21b0d155cb32561c34f689cbd499bb8a470c00e5951a3d0ad5fba875',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd43a63bf53a006da9c781932b0b8e420b46ac8ec00fa01f5c94ccbe79affdac2'),
    ('table1_100nm', 'v5_require'): (
        0, 'cec9caa4b5f6cf52a70b2dd2fc5e6a2fb433a8f368b1d149980d0a38d8d26d31',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e70c3330986c767aa673ec6bd4e63e77327abf0fe639e53cecc4aa56587f9c60'),
    ('table1_100nm', 'feedback_require'): (
        3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd000f868daafb05fa95884675cb521e8ce0d10f8aeaff8d710afc4682b70c346',
        None),
    ('table1_100nm', 'errors'): (
        0, '7c63c1b8eb8746c5bb124e926d0f3b19f8fe1c08850788fd653251ef8dd89e0a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1cbd4d514385b3e2967b3326076816ddc2d7cf65b4c8420e2aca7f494570a665'),
    ('gas_free', 'base'): (
        0, 'a72c7670943d6e9cb541d5db3660527b909c474831dcd2070a1ac3e12030406e',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '04fd75372f41d33e8d1cc888ffa3fa3287559ae3e24e2346d951eb44c87f1b99'),
    ('gas_free', 'v1'): (
        0, '4ba7c054a9b25b6d11a5c7a70b6bc1386df94a507d94bcbe5f7dc77e0892f0d8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1e2a5471520d84cd979c65ffc2c73029131012a7520f2e6ad646a3383fef1bf9'),
    ('gas_free', 'v1_require'): (
        0, '87407e74377f00d59841b7a59211e3a540bb764660bea4ded3db67891f9f65c3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e9793db5a9a2a3f41b6065bbc7d53a5a240d412b63dbd464df1c247d62f101ff'),
    ('gas_free', 'v3'): (
        0, 'db4d40a8167c960b4ac32ab8d5f9de77a0108f8513d679cae1ec3cd98a6826ef',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'df01e670e4b3780001405d25f7f973a5f182450ce729a055d668ef89e959fac5'),
    ('gas_free', 'v3_require'): (
        0, '4f58f03a12adbcdb9bb0d2a0d059be38b11737060956d604c445c3f5bccbfd77',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1b7ada58f14aa65a8c33ac1141c98612515ee5ab72f337d19e3ac9d34f207043'),
    ('gas_free', 'v5'): (
        0, 'a96d25572bd9817c9a10617790406eb1f64a60f0ad09feb482e3a6e85e68787c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0d7c7228ab56039756e50f6b6149f59c38c23427b31a7a631402d3bfb325a7a4'),
    ('gas_free', 'v5_require'): (
        0, '18a4f232fa7969d6a8ab77273afda910c48ee186fbe8ca839dedf7952a51e3d7',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'fe622fdce1751d45c48a348393db2c549fb25929f3339c85572910a7c4bf7eb9'),
    ('gas_free', 'feedback_require'): (
        3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd000f868daafb05fa95884675cb521e8ce0d10f8aeaff8d710afc4682b70c346',
        None),
    ('gas_free', 'errors'): (
        0, 'a641773476baca9916b33f8b1e6fc50000b6e2cbd1c39545e8733283b41b9f35',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '5116d59fae914134f8616bffb432be957a2cf93a2a969a7cc54c3096a3300bc3'),
    ('feedback', 'base'): (
        0, '3a1b33211477296b48270f150c026f66bc6426ecad3138f77cea7aa87324b58f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c17ff6eba5dc90fea9e1f4aa74d943b82b0a1937964257b5757697ee14f10432'),
    ('feedback', 'v1'): (
        0, 'c2b5dc2c5179686eb7ec95afba3d2043267b91c04ca1476462b2aecbfdb04b86',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b8e83f68d639bb98caa678db82cd7465558582b2474de3af747302c8f009b618'),
    ('feedback', 'v1_require'): (
        0, '689ac527d1d37274a67cc762282410662c653b962c4f903490af0d7e3e9cb959',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '364963a458c4d1945900258c3be45faf94a96f06334523f9959c79cd0322fa68'),
    ('feedback', 'v3'): (
        0, 'e9f88a1c4e9159709d9a929191d48ccd874c056045b0a659355fe4f9163ae431',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0806dd4820a350ccc2e7bb41703810df2f0af79940d300950624417dabf849d4'),
    ('feedback', 'v3_require'): (
        0, 'adae352e910bc4825a24b09ab08fa2ec671709e1e65292a1510933e70cc3198c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'caab08d8102770e5ea80be1e7e4d19b3cb889c2f5de1c14ac36f3da04413a447'),
    ('feedback', 'v5'): (
        0, '683b0ab9f8f8e01592437cf11e5a591ddc15646eb6f16ad0dc841b3967876cb7',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd43a63bf53a006da9c781932b0b8e420b46ac8ec00fa01f5c94ccbe79affdac2'),
    ('feedback', 'v5_require'): (
        0, 'd66886318eef26e094bae9e6cb10930aed550875a1efe67061262ae8555b2042',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e70c3330986c767aa673ec6bd4e63e77327abf0fe639e53cecc4aa56587f9c60'),
    ('feedback', 'feedback_require'): (
        0, 'c2b5dc2c5179686eb7ec95afba3d2043267b91c04ca1476462b2aecbfdb04b86',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b8e83f68d639bb98caa678db82cd7465558582b2474de3af747302c8f009b618'),
    ('feedback', 'errors'): (
        0, '8e44106d8cd61a43f05de62f2ad7b8d4b3d8a91d827aee13b2d3c7962bbdce2f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1cbd4d514385b3e2967b3326076816ddc2d7cf65b4c8420e2aca7f494570a665'),
    ('first_principles', 'base'): (
        0, 'd56de9022e1aee891162084731c67bfdc68855349fc5a0cb40232a5f1a249c22',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '2100bea864cfdd9b8af90a0ab563cc2371879894cb0968f11390f95e92e0e93a'),
    ('first_principles', 'v1'): (
        0, '3ef1a0d124654e23cd46640311ddbe3844b1d5d43fb0ee537480d7eeced4e498',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4e89fa9ca6d4861111610b598a1613235220a3c31c154c45ae935c3858972276'),
    ('first_principles', 'v1_require'): (
        0, 'fdb8d496207b76ce9785dafef80145f81ebd3590ff46c7f503b8461baeb719c3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '49b62f18edb7f56c95549102a269d9ff4edf043cab50421594f49323f01fc3af'),
    ('first_principles', 'v3'): (
        0, 'ff5cc3a4c540c433daeee0399b66808fa1c00b8eb971b30b4c8f7f28fb743f25',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '348138baedc65ff981b7e00535c78ca3e0a171681c2774e32562e1c550ecaff8'),
    ('first_principles', 'v3_require'): (
        0, '781fecb08985b7a7b00c38d5d3182bdd85c1c453913b1ee37c1c15556b0f506c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c9f07d43e6e31b09e82388ea4d2077b5483150c26e35b571d94edda4c41ddeed'),
    ('first_principles', 'v5'): (
        0, '925665c05f1da7450a43721cad258e00a75c38066df8cef22ba04e9c640a67f4',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '80f18dffba1380a0d5f4c35dd616e890e0df22b635960d7ccadaeeb24a9dc2b1'),
    ('first_principles', 'v5_require'): (
        0, '453517c001dd3b80d92334e34dc022138629aa564ca7909d11a6c116dfa0059a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b686416e21f054ee642538d07df863c59532045131fcaf20cdeef6907cd3de6d'),
    ('first_principles', 'feedback_require'): (
        3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd000f868daafb05fa95884675cb521e8ce0d10f8aeaff8d710afc4682b70c346',
        None),
    ('first_principles', 'errors'): (
        0, '5c4e5ab07bfa8f9624f7673ccd675c4fca4a01a88687dd42201c264c47731b6f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '51aa2ab4e4bbc27c0621017f68aff63bc7d46843daa9002a961651db3e52954d'),
    ('table1_300nm', 'report'): (
        0, 'd57941682f35037364a6667a84f3c2355a3a71be8491c8c2c406c5609a9c01d2',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_300nm', 'report_json'): (
        0, 'fc2b98dde52c2785be2b32495ff7c91f5caef030268d649628cce1e4bac12194',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_300nm', 'sweep'): (
        0, 'e789e7d30ad2de76cf688fbe7a88bd22a72c504923159cf4ea78fcac4b34acc8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3506e90f10d74b9c90c636da2f015e8fcfb9d59459a5d1c0c650d09c02225692'),
    ('table1_300nm', 'sweep_log'): (
        0, '1144791960b8069101a0d860dc6e91654ddc0c9b28f1e9b758cd3f76732d2c1c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4a9b468edab0571c392e6e27e58c2fc98dae39cdff42a3225fcfe41514cfb9d6'),
    ('table1_300nm', 'simulate'): (
        0, '378ba6e65b23a1955e0d7ed192eb8984af0a2ad88fd4653c6c57edd823e663bb',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd1f8937b9f55f278e6067f135faa9ac4285ddff4bcab3b9679e2699d38cfe8db'),
    ('table1_300nm', 'simulate_off'): (
        0, '22f7311230fba984ba84386b16a66416a8e86635d0c215308de900962a5aa079',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '39ce593bb0b713ba944961962e36e3d6c8a85b764590a01d2061936b33250d57'),
    ('table1_300nm', 'sensitivity'): (
        0, 'fd5da57c9ddfcaec8dcd0e52886805d363351fe0af086e249a78655a1aeca565',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_300nm', 'sensitivity_json'): (
        0, 'dbb7117470e0d162f8ae5733a1c52e44274a0d59252d37046b25562bc5926971',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_100nm', 'report'): (
        0, '294f7a4b27b321e3d71a8267a1f62350023160c970af9e0dce80542996e62430',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_100nm', 'report_json'): (
        0, '5a10978f0dd3a1b8aace37990116cf0d9c528dedf72a656f4f9b823cd31540b0',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_100nm', 'sweep'): (
        0, 'e789e7d30ad2de76cf688fbe7a88bd22a72c504923159cf4ea78fcac4b34acc8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3506e90f10d74b9c90c636da2f015e8fcfb9d59459a5d1c0c650d09c02225692'),
    ('table1_100nm', 'sweep_log'): (
        0, '1144791960b8069101a0d860dc6e91654ddc0c9b28f1e9b758cd3f76732d2c1c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4a9b468edab0571c392e6e27e58c2fc98dae39cdff42a3225fcfe41514cfb9d6'),
    ('table1_100nm', 'simulate'): (
        0, '0a24237e3181c883d79e7ef70b40952453ab6b9e103e51f8b308588baf03ba45',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd784c1f626ad4cf22df55c0225896cc322d1748a4c8a8e8eb47498ab858dba10'),
    ('table1_100nm', 'simulate_off'): (
        0, 'd3c813df194a5eaa3515690d2f07f686e060c569af80fd8f27e3610489cc1f4c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '7395741459a7541e4d982af2c6784ae4e18a7ae74309d8e83aa094e6fbf59906'),
    ('table1_100nm', 'sensitivity'): (
        0, '60841732aa5d6c3806913756012ddefbfccaf8716f7704aad69a701052281b9a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_100nm', 'sensitivity_json'): (
        0, '5ea62c02d34b86ed893361703e924a78a0457572034d1ac47f7689f980cc67c6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('gas_free', 'report'): (
        0, 'f2fb1538ce23633fd38aa1470ede085ec7eb500092669acfe50bf40361dccb3b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('gas_free', 'report_json'): (
        0, '3603f92eb292df25f6cf224fb194938fbe9a81902030f84ce49e8881855cc56b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('gas_free', 'sweep'): (
        0, '1612c501a433fb8bb04c8c21f68ba5149bd318d0b3a06ecdd7c5f5755b74e7bd',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9b88e5b9f36ff3d3897983fd242c6af8845d5d877db70765f2cd7da7ff0b6b30'),
    ('gas_free', 'sweep_log'): (
        0, '242adf8a4dc41e4cd96c40f4cdc7c62944e3cb985f1fc90605982b9d45be9074',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'f9243a3e171742a3f1eab724130e0cfa92a91e0eb34951f084730a9bf1176c9e'),
    ('gas_free', 'simulate'): (
        0, '4e9f0b55df1a9a64d208800e6d51da72812f0b97fc11856e04b768241b2e682f',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '430030c66473018cfb3fa4facd09d318ed8c20f0bc70806ba88ebfb6f740cbaf'),
    ('gas_free', 'simulate_off'): (
        0, 'f207770d155d8f0c48b977ee88e5e553a86ce8319d38e31b3c312dd971cecea4',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b791d042bfaafe9a2f6503d50945f65fd19a0b1d898f65d9178086b4a4b18545'),
    ('gas_free', 'sensitivity'): (
        0, '345845692faf6615da4c1c54efd2e0fffee3c3148037c7f1c6e3537b13fcce2d',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('gas_free', 'sensitivity_json'): (
        0, 'be80c6ab3d6fb1401503a80a278d076ecfe071b03e6b76241cb754afe2948f1c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('feedback', 'report'): (
        0, 'b0eb9b506c48f2bba298ea3ad43f16f472204b928b0353385c5548d1ba9a4de8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('feedback', 'report_json'): (
        0, 'dfcf70c38ba7ae54c5e2dafb9361cff316410c5154e7e23548582add78cfb16a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('feedback', 'sweep'): (
        0, 'e789e7d30ad2de76cf688fbe7a88bd22a72c504923159cf4ea78fcac4b34acc8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '840f13794b90959e358a4cf738b894430c2b1efefa6635c706d7f744d3d67c70'),
    ('feedback', 'sweep_log'): (
        0, '1144791960b8069101a0d860dc6e91654ddc0c9b28f1e9b758cd3f76732d2c1c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '96d21743c5d6fc9f6e6b20d35b2f5cb409476f44549890a9ef36d2ccc57ca204'),
    ('feedback', 'simulate'): (
        0, '378ba6e65b23a1955e0d7ed192eb8984af0a2ad88fd4653c6c57edd823e663bb',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd1f8937b9f55f278e6067f135faa9ac4285ddff4bcab3b9679e2699d38cfe8db'),
    ('feedback', 'simulate_off'): (
        0, '22f7311230fba984ba84386b16a66416a8e86635d0c215308de900962a5aa079',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '39ce593bb0b713ba944961962e36e3d6c8a85b764590a01d2061936b33250d57'),
    ('feedback', 'sensitivity'): (
        0, 'fd5da57c9ddfcaec8dcd0e52886805d363351fe0af086e249a78655a1aeca565',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('feedback', 'sensitivity_json'): (
        0, '0693dd6654392f26bd630103a6d3d61de38a9cbf183a56a4fc84d8969b544f34',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('first_principles', 'report'): (
        0, '4e8ace92de3f9d5156ef0b2e7c8ca4b0df903bf674f66836ac84f50e15e7ed93',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('first_principles', 'report_json'): (
        0, '7d89407958afe7e9789af6c5f38bef3689cdf3349ec47e3b5881c0304f3aa0db',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('first_principles', 'sweep'): (
        0, 'de19a1bf109b5b336ac84005b7e4b788c3b91ac14c52f7da11d235deb77732c6',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9b0caf3e2ef9d7ed96724e62fc78b3474662a0f7f93d3c63529237cb2b652ac1'),
    ('first_principles', 'sweep_log'): (
        0, '920137b3a8d73db3fd4da80b3c689ccc1705a37c4cb3452c979204378892d1bb',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b8e8eca2ed12646fa39d01376f01a4242fa409ae0b69f8e75c89826361e2e2fb'),
    ('first_principles', 'simulate'): (
        0, '6cd88f950b230ceac7ddc3e724658ac428c96b3f38c239f52e10a387ef70635a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '64c7094b2264d7d1e7d20be4cf97a4a9db04569c445fbe80393b43859fabc157'),
    ('first_principles', 'simulate_off'): (
        0, '69d061d14cbb2e280511aa1c91053fde07231bd034910c5d1a2cac406c4de0a1',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b9c696c158df642970b89ae66e2fd46c9ff0e8939bcccb613abbcb75ec69cee3'),
    ('first_principles', 'sensitivity'): (
        0, 'c309e5ef682ed880653f09d2680887b822b05f7bcb5d4409345733ef4a53cb3c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('first_principles', 'sensitivity_json'): (
        0, 'd792a3f4879b5bc38972562737ca7a657f5a77a7c6930f5b169df90dde10c915',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('noise', 'report'): (
        0, '6c604e0a95cce213bdc07b8377254b140526abdf51f1e1434eb75e29cd510f34',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('noise', 'report_json'): (
        0, '24f1c62155d07efe6b841053531a8870d6572a6229a863542c872ddfd40a40ec',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('noise', 'sweep'): (
        0, 'e789e7d30ad2de76cf688fbe7a88bd22a72c504923159cf4ea78fcac4b34acc8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1f2c1176429cc09ecc5eaebd3700dcc2454d5f1c487b00c87f8ed847dbe37819'),
    ('noise', 'sweep_log'): (
        0, '1144791960b8069101a0d860dc6e91654ddc0c9b28f1e9b758cd3f76732d2c1c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0c20a0e8edd5f6365bf804302655b7952e166221a408d993d3852195dffdb639'),
    ('noise', 'simulate'): (
        0, '378ba6e65b23a1955e0d7ed192eb8984af0a2ad88fd4653c6c57edd823e663bb',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c1e07c463184870b06783c28c0092adf258bfda5bca59b4b8a08c282e66908e1'),
    ('noise', 'simulate_off'): (
        0, '22f7311230fba984ba84386b16a66416a8e86635d0c215308de900962a5aa079',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '0c589bca514c8763d432254f4a6df5427271fee4ee73f2782a89371520f07d97'),
    ('noise', 'sensitivity'): (
        0, 'fd5da57c9ddfcaec8dcd0e52886805d363351fe0af086e249a78655a1aeca565',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('noise', 'sensitivity_json'): (
        0, '7dd3be348936189b008b4a544ed01376e336fd8368497775461aa0760515ffe2',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('lossy_path', 'report'): (
        0, 'abc9802d35a1cb84b4727ac8af750503b993f564467b716822fa95683b4a8eb1',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('lossy_path', 'report_json'): (
        0, '607fb8a644026b2b8d3feb2d8a552e2439eaf30680caf7d320fd1e1afe33abcf',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('lossy_path', 'sweep'): (
        0, '1e56311f5da8376f6e0937a7c3d008874f6aa3b21ae152857adfe814696b3911',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '564922ee4051be6cbacf1368ac30be01580a64ecb38ba4d6c4002157fc289198'),
    ('lossy_path', 'sweep_log'): (
        0, 'b10ddc9bd636f6ca76106ce7651eb9a772896ae7475c0ad2f1840abad9e0e560',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '31f90911a2025f662f07e0aedf5ef2479bb1b5bff6cb288ec5974086a79a8850'),
    ('lossy_path', 'simulate'): (
        0, 'e307d97baf41ed9210a59a085f154ba6d4e112b22250b2a58121249474ac8e5e',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'afdf3b67b54e4fd7903ee846c37e40d72f15df7f12689c73767cb14a97d310c0'),
    ('lossy_path', 'simulate_off'): (
        0, '074b2b00f8061958127185257958866e76a869db06eff46c7445f7ccab445f05',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'db895302ae267a94f3d27b58f0cc5797ba8679c7592c8176c82f5f006a3e7ec1'),
    ('lossy_path', 'sensitivity'): (
        0, 'c4343132e1672558676df26cb73bf398c971d41fdf577d7b61df84ce629dbbb9',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('lossy_path', 'sensitivity_json'): (
        0, 'a0ad9556e093093ec7e4fe5e9228d6ca5785cf7755d37ceb502fa75fb409ae48',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('dark_lattice', 'report'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a3f874577f35275fa924709d4b4ece6e3a8ae23c2c538f34f67b4c751ef87783',
        None),
    ('dark_lattice', 'report_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a3f874577f35275fa924709d4b4ece6e3a8ae23c2c538f34f67b4c751ef87783',
        None),
    ('dark_lattice', 'sweep'): (
        0, 'd57b2d81365ebc307235c62ad7d052068fba017c974f2d7b4156a5dbc19994f3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '57bc0ee234d912c0aa2290c3c2d415f22a284526f0fcc0b68f087e9ded970eda'),
    ('dark_lattice', 'sweep_log'): (
        0, 'd57b2d81365ebc307235c62ad7d052068fba017c974f2d7b4156a5dbc19994f3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '13013459b2a0d06b8f825a2c8a1d6b93860ebab46b01cbebe94d1cd6e6114abb'),
    ('dark_lattice', 'simulate'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a3f874577f35275fa924709d4b4ece6e3a8ae23c2c538f34f67b4c751ef87783',
        None),
    ('dark_lattice', 'simulate_off'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a3f874577f35275fa924709d4b4ece6e3a8ae23c2c538f34f67b4c751ef87783',
        None),
    ('dark_lattice', 'sensitivity'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a3f874577f35275fa924709d4b4ece6e3a8ae23c2c538f34f67b4c751ef87783',
        None),
    ('dark_lattice', 'sensitivity_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a3f874577f35275fa924709d4b4ece6e3a8ae23c2c538f34f67b4c751ef87783',
        None),
    ('huge_lattice_power', 'report'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9ee768a665463671d2d5965bcb79291f281a405d6b494609ff2e5c893aefccb8',
        None),
    ('huge_lattice_power', 'report_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9ee768a665463671d2d5965bcb79291f281a405d6b494609ff2e5c893aefccb8',
        None),
    ('huge_lattice_power', 'sweep'): (
        0, 'd57b2d81365ebc307235c62ad7d052068fba017c974f2d7b4156a5dbc19994f3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '57bc0ee234d912c0aa2290c3c2d415f22a284526f0fcc0b68f087e9ded970eda'),
    ('huge_lattice_power', 'sweep_log'): (
        0, 'd57b2d81365ebc307235c62ad7d052068fba017c974f2d7b4156a5dbc19994f3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '13013459b2a0d06b8f825a2c8a1d6b93860ebab46b01cbebe94d1cd6e6114abb'),
    ('huge_lattice_power', 'simulate'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9ee768a665463671d2d5965bcb79291f281a405d6b494609ff2e5c893aefccb8',
        None),
    ('huge_lattice_power', 'simulate_off'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9ee768a665463671d2d5965bcb79291f281a405d6b494609ff2e5c893aefccb8',
        None),
    ('huge_lattice_power', 'sensitivity'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9ee768a665463671d2d5965bcb79291f281a405d6b494609ff2e5c893aefccb8',
        None),
    ('huge_lattice_power', 'sensitivity_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9ee768a665463671d2d5965bcb79291f281a405d6b494609ff2e5c893aefccb8',
        None),
    ('unknown_key', 'report'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('unknown_key', 'report_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('unknown_key', 'sweep'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('unknown_key', 'sweep_log'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('unknown_key', 'simulate'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('unknown_key', 'simulate_off'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('unknown_key', 'sensitivity'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('unknown_key', 'sensitivity_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'ea683802964fdb6b2eb0bdb771d49700cd99f25f9a9bcad8b70ee8f8d1a9cbb8',
        None),
    ('bad_number', 'report'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bad_number', 'report_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bad_number', 'sweep'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bad_number', 'sweep_log'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bad_number', 'simulate'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bad_number', 'simulate_off'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bad_number', 'sensitivity'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bad_number', 'sensitivity_json'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bd534d3547154b1305dd29b09f0673e7d0bd798665c56909f415e26cea5e9e',
        None),
    ('bom', 'report'): (
        0, 'd57941682f35037364a6667a84f3c2355a3a71be8491c8c2c406c5609a9c01d2',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('bom', 'report_json'): (
        0, 'fc2b98dde52c2785be2b32495ff7c91f5caef030268d649628cce1e4bac12194',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('bom', 'sweep'): (
        0, 'e789e7d30ad2de76cf688fbe7a88bd22a72c504923159cf4ea78fcac4b34acc8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3506e90f10d74b9c90c636da2f015e8fcfb9d59459a5d1c0c650d09c02225692'),
    ('bom', 'sweep_log'): (
        0, '1144791960b8069101a0d860dc6e91654ddc0c9b28f1e9b758cd3f76732d2c1c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4a9b468edab0571c392e6e27e58c2fc98dae39cdff42a3225fcfe41514cfb9d6'),
    ('bom', 'simulate'): (
        0, '378ba6e65b23a1955e0d7ed192eb8984af0a2ad88fd4653c6c57edd823e663bb',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd1f8937b9f55f278e6067f135faa9ac4285ddff4bcab3b9679e2699d38cfe8db'),
    ('bom', 'simulate_off'): (
        0, '22f7311230fba984ba84386b16a66416a8e86635d0c215308de900962a5aa079',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '39ce593bb0b713ba944961962e36e3d6c8a85b764590a01d2061936b33250d57'),
    ('bom', 'sensitivity'): (
        0, 'fd5da57c9ddfcaec8dcd0e52886805d363351fe0af086e249a78655a1aeca565',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('bom', 'sensitivity_json'): (
        0, 'dbb7117470e0d162f8ae5733a1c52e44274a0d59252d37046b25562bc5926971',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('crlf', 'report'): (
        0, 'd57941682f35037364a6667a84f3c2355a3a71be8491c8c2c406c5609a9c01d2',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('crlf', 'report_json'): (
        0, 'fc2b98dde52c2785be2b32495ff7c91f5caef030268d649628cce1e4bac12194',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('crlf', 'sweep'): (
        0, 'e789e7d30ad2de76cf688fbe7a88bd22a72c504923159cf4ea78fcac4b34acc8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3506e90f10d74b9c90c636da2f015e8fcfb9d59459a5d1c0c650d09c02225692'),
    ('crlf', 'sweep_log'): (
        0, '1144791960b8069101a0d860dc6e91654ddc0c9b28f1e9b758cd3f76732d2c1c',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4a9b468edab0571c392e6e27e58c2fc98dae39cdff42a3225fcfe41514cfb9d6'),
    ('crlf', 'simulate'): (
        0, '378ba6e65b23a1955e0d7ed192eb8984af0a2ad88fd4653c6c57edd823e663bb',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'd1f8937b9f55f278e6067f135faa9ac4285ddff4bcab3b9679e2699d38cfe8db'),
    ('crlf', 'simulate_off'): (
        0, '22f7311230fba984ba84386b16a66416a8e86635d0c215308de900962a5aa079',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '39ce593bb0b713ba944961962e36e3d6c8a85b764590a01d2061936b33250d57'),
    ('crlf', 'sensitivity'): (
        0, 'fd5da57c9ddfcaec8dcd0e52886805d363351fe0af086e249a78655a1aeca565',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('crlf', 'sensitivity_json'): (
        0, 'dbb7117470e0d162f8ae5733a1c52e44274a0d59252d37046b25562bc5926971',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        None),
    ('table1_300nm', 'radius_parts'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '5dacde56a44eb38d4c91de9ebb6d160beaa9d44c874a7c9cadb9cf1cee416693',
        None),
    ('table1_300nm', 'radius_text'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6b94430060af156d7f4300771b75622e7e2af26051971301d5dd1adbfbf0ccba',
        None),
    ('table1_300nm', 'radius_float_steps'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a52ba249dc27a226ec8e22fcf348d57082e82fe8ba1ccd6a267b73c32799f899',
        None),
    ('table1_300nm', 'radius_nan'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'f6e50c619cf1863ef19d95c9b19b7ad641d197ddc6a43e7595cd0e421a18da23',
        None),
    ('table1_300nm', 'radius_inf'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'f6e50c619cf1863ef19d95c9b19b7ad641d197ddc6a43e7595cd0e421a18da23',
        None),
    ('table1_300nm', 'radius_negative'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dc48ca9eb05b88b13629b4bd8e9da348257e7e16dc70f1a04a47e593a6464ad5',
        None),
    ('table1_300nm', 'radius_zero'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dc48ca9eb05b88b13629b4bd8e9da348257e7e16dc70f1a04a47e593a6464ad5',
        None),
    ('table1_300nm', 'radius_reversed'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c7d3e932f0989b3ab9d50680b249d8d37a928deb8c03930547dc22a8c45a1fa1',
        None),
    ('table1_300nm', 'radius_degenerate'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6a4e72a03263865ccbcad567a8ec1daee1cd2b1a38961a08ba9a5f1cf8fbf3e0',
        None),
    ('table1_300nm', 'radius_single'): (
        0, '9b829c21098350a5b07d7c1f28407d472eff473bbd361c20883b04bd827ccbc4',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '790a3c840ef307f7c8cfa5329a16d3075563f22e065e18bcf6a0e67aa2776e41'),
    ('table1_300nm', 'radius_one_step'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9ae4e4ad0b406e8f1551642e1f5029afd700b755828a87e5eeb85f3eb661814f',
        None),
    ('table1_300nm', 'radius_signed_steps'): (
        0, 'e789e7d30ad2de76cf688fbe7a88bd22a72c504923159cf4ea78fcac4b34acc8',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3506e90f10d74b9c90c636da2f015e8fcfb9d59459a5d1c0c650d09c02225692'),
    ('table1_300nm', 'atoms_parts'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e60aaaee0affcdacb1e6a6b18307e259b7323b7e7c9c53325ae2af1bef78c012',
        None),
    ('table1_300nm', 'atoms_text'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9fe610242a3e8e5aeffee13790cd47c17dfa336a67a2602017422a1403a96532',
        None),
    ('table1_300nm', 'atoms_inf'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e865a5b0236fef318811a6701cfdf96418b4452d0abbb840f6d5688df2dde3b5',
        None),
    ('table1_300nm', 'atoms_negative_inf'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'e865a5b0236fef318811a6701cfdf96418b4452d0abbb840f6d5688df2dde3b5',
        None),
    ('table1_300nm', 'atoms_zero'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dab2abc0185e3ea65cef4eb4d190ae432d070456d3058a183072b83e2d017ae5',
        None),
    ('table1_300nm', 'atoms_zero_log'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dab2abc0185e3ea65cef4eb4d190ae432d070456d3058a183072b83e2d017ae5',
        None),
    ('table1_300nm', 'atoms_reversed'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '190228f3cef0a55cfa0e35a6db9e226c666adc0974806ee28d60be4b98d7e2ae',
        None),
    ('table1_300nm', 'atoms_degenerate'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '05b2aebb270cf2e9ca44f501275a3e6927472c1dd7235fd93af787fb66b239bc',
        None),
    ('table1_300nm', 'atoms_single_log'): (
        0, '9ad6aceb48151708eda85a08399f57495fe71a658ef3b0d15d93d5180881a938',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '225c3af109f791500def94841447121faf98afb7cc624dab068a74e9049e120d'),
    ('table1_300nm', 'atoms_one_step'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bedb3196c370fe789195377dbf75908f574987f680521318d0efc28fc79d8f',
        None),
    ('table1_300nm', 'atoms_negative_steps'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '33bedb3196c370fe789195377dbf75908f574987f680521318d0efc28fc79d8f',
        None),
    ('table1_300nm', 'radius_and_atoms_reversed'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c7d3e932f0989b3ab9d50680b249d8d37a928deb8c03930547dc22a8c45a1fa1',
        None),
    ('table1_300nm', 'radius_reversed_atoms_text'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a8fd8fed8cf7eee8c7ed7f71b46a39c25b7bfc8de87116588f9c836e5b692edf',
        None),
    ('table1_300nm', 'too_many_cells'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dd90adcb6d4af682dd5ef014bc9858ce0e1fada94b45fd080a928dce93ea3255',
        None),
    ('table1_300nm', 'radius_underscore_steps'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '809b0608fcd0d6098f00905eb444b6059cbf0110dfb2533f62a33dbd1b5c2698',
        None),
    ('table1_300nm', 'radius_arabic_steps'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a00202ba0f58826e383c23ce54c308c7b674d70e04f6ee0b5f2bfd444d28a55f',
        None),
    ('table1_300nm', 'radius_underscore_lo'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c4bee836083aa1e31414faf83ccc0b5d0283b09f11c8eabb322e4077f949c223',
        None),
    ('table1_300nm', 'atoms_fullwidth_hi'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '43c73994f0581530822cc60a9a70b411be3e04241dc83a66cec5d1e874559184',
        None),
    ('table1_300nm', 'bounds_parts'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '80bfabfb305d17177ab0558b6fabfa0cc47bb79ae6e15814a6cc2610fa10a107',
        None),
    ('table1_300nm', 'bounds_text'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'b01e41ad2e7b6eadf3bba989f23d284039ce76574628281466c54c9f7e00f298',
        None),
    ('table1_300nm', 'bounds_count'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '388b188cbc4cf12ab90a5c4d1cb5bb9c431dae1db1def8e23d7b5f882888a3d3',
        None),
    ('table1_300nm', 'bounds_reversed'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1dd0737a19b1a9cc252b221b6c6cf5940a4bd3a3e1276cf7942b1e927eb7e57e',
        None),
    ('table1_300nm', 'bounds_infinite'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '1dd0737a19b1a9cc252b221b6c6cf5940a4bd3a3e1276cf7942b1e927eb7e57e',
        None),
    ('table1_300nm', 'bounds_underscore'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '9a90d30e92043b1564fff75230bbda7e5e00e0cf8c8a0194deb629a9010be9c0',
        None),
    ('table1_300nm', 'bounds_arabic'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'c5213ad8fab5f60348ac78641fcbb27fdfc4710847b3b6c2d7eb9d3d4165c3b4',
        None),
    ('table1_300nm', 't_end_underscore'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'a1d3be864b5e7d84a8feb29ba18fee69328dc1d07d86a33b09cc3ba0628bc0e9',
        None),
    ('table1_300nm', 'dt_text'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6d5718e83963d22eef6285814527b1d9e53ed6e0452e98ab318edd4304efe21f',
        None),
    ('table1_300nm', 'n0_fullwidth'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '25b8c643e9e861478fc1892a45cf51452c9d6d3ab3bb562648be9a5c0db392c7',
        None),
    ('table1_300nm', 'cooling_off_underscore'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '503b56e435e523128f49ca20f8c1f890cea4459daaa2a8c6b3365f2fd3c8d058',
        None),
    ('table1_300nm', 'rel_step_arabic'): (
        2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '3f200c5dff60a85689ef820edbf25c6dc585904e7ab10a8c1b5e9122c359bf23',
        None),
}


def write_config(directory: Path, name: str) -> Path:
    source, edits = CONFIGS[name]
    text = source.read_text(encoding="utf-8")
    for key, value in edits.items():
        text = re.sub(rf"(?m)^{re.escape(key)}\s*=.*\n", "", text)
        if value is not None:
            text += f"{key} = {value}\n"
    path = directory / f"{name}.cfg"
    path.write_bytes(ENCODINGS.get(name, bytes)(text.encode("utf-8")))
    return path


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(config: str, name: str, capture) -> tuple:
    """The entry of run `name` on `config`, made in the configs' directory;
    `capture()` returns (stdout, stderr)."""
    output = Path(OUTPUT)
    output.unlink(missing_ok=True)
    command, *args = RUNS[name]
    try:
        code = main([command, "--config", f"{config}.cfg", *args])
    except SystemExit as exc:   # argparse's exit on a malformed command line
        code = exc.code
    out, err = capture()
    return (code, digest(out.encode()), digest(err.encode()),
            digest(output.read_bytes()) if output.exists() else None)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    for name in CONFIGS:
        write_config(directory, name)
    return directory


@pytest.fixture
def entry(capsys, monkeypatch, config_dir):
    """The entry of a run on a config, made as the table's was."""
    monkeypatch.chdir(config_dir)

    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err
    return lambda config, name: run(config, name, capture)


@pytest.mark.parametrize("config, search", [key for key in PLAN if key[1] in SEARCHES])
def test_optimize_output_bytes_are_pinned(entry, config, search):
    assert entry(config, search) == CORPUS[config, search]


@pytest.mark.parametrize("config, name", [key for key in PLAN if key[1] not in SEARCHES])
def test_command_output_bytes_are_pinned(entry, config, name):
    assert entry(config, name) == CORPUS[config, name]


def test_corpus_covers_every_config_and_run():
    assert sorted(CORPUS) == sorted(PLAN)
    assert len(RUNS) == len(SEARCHES) + len(COMMANDS) + len(ARGUMENTS)   # no name repeats


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for config in CONFIGS:
            write_config(directory, config)
        os.chdir(directory)
        print("CORPUS = {")
        for config, run_name in PLAN:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, *digests = run(config, run_name,
                                     lambda: (out.getvalue(), err.getvalue()))
            print(f"    ({config!r}, {run_name!r}): (\n        {code}, "
                  + ",\n        ".join(map(repr, digests)) + "),")
        print("}")
