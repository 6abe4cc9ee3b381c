"""`optimize` golden corpus: exit code and the sha256 of stdout, stderr and the
`--trace-out` file of searches on five configs, so no output byte moves unseen.

Each config is the 300 nm reference (or the 100 nm one) with a few lines
edited. A change that moves an entry on purpose lists it, with its reason, in
CHANGES.md. Run this file as a script to print the table for the tree at hand:
``PYTHONPATH=src python tests/test_optimize_corpus.py``.
"""

import hashlib
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
}

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

#: (config, search) -> (exit code, sha256 of stdout, of stderr, of the trace file or None)
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
}


def write_config(directory: Path, name: str) -> Path:
    source, edits = CONFIGS[name]
    text = source.read_text(encoding="utf-8")
    for key, value in edits.items():
        text = re.sub(rf"(?m)^{re.escape(key)}\s*=.*\n", "", text)
        if value is not None:
            text += f"{key} = {value}\n"
    path = directory / f"{name}.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(config: Path, search: str, trace: Path, capture) -> tuple:
    """`optimize`'s entry for `config` and `search`; `capture()` returns (stdout, stderr)."""
    trace.unlink(missing_ok=True)
    code = main(["optimize", "--config", str(config), *SEARCHES[search],
                 "--trace-out", str(trace)])
    out, err = capture()
    return (code, digest(out.encode()), digest(err.encode()),
            digest(trace.read_bytes()) if trace.exists() else None)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    for name in CONFIGS:
        write_config(directory, name)
    return directory


@pytest.mark.parametrize("config, search", list(CORPUS))
def test_optimize_output_bytes_are_pinned(capsys, config_dir, config, search):
    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err
    entry = run(config_dir / f"{config}.cfg", search, config_dir / "trace.csv", capture)
    assert entry == CORPUS[config, search]


def test_corpus_covers_every_config_and_search():
    assert set(CORPUS) == {(c, s) for c in CONFIGS for s in SEARCHES}


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        print("CORPUS = {")
        for config in CONFIGS:
            path = write_config(directory, config)
            for search in SEARCHES:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    entry = run(path, search, directory / "trace.csv",
                                lambda: (out.getvalue(), err.getvalue()))
                code, *digests = entry
                print(f"    ({config!r}, {search!r}): (\n        {code}, "
                      + ",\n        ".join(map(repr, digests)) + "),")
        print("}")
