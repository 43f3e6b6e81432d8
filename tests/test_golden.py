"""Same seed, same bytes: sha256 pins of every file the CLI writes.

Each command runs in a fresh temporary directory with relative paths, so
summary.json's config holds nothing that varies between checkouts.  A
change that moves any of these hashes changes the lab's output and must
say so.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bell_lab.cli import main

GOLDEN = {
    "simulate/events_a.csv":
        "a49d76922fdc999c9a647a955054c775bed6930f9796a25920160ccf7b0a43fa",
    "simulate/events_b.csv":
        "cad6a81788268c4ff6b5343e2896bc56ffd7a21fdc8e04faaf4693e5b3e1812d",
    "simulate/trials.csv":
        "b56fd17db05ea5c59bfe7c99b17bc51ce348eb21e337a0c20f8d9efc9bd1e5a3",
    "singlet/trials.csv":
        "d048e28f51b74d813dabf19e47f33df5390036eaf625db0f6af8daf0e0529a4d",
    "singlet/summary.json":
        "25e9c69b73dc932fbbe7013392d2e3c5f513814de829cd8e56e275c61ca1cb3c",
    "smeared/trials.csv":
        "77ee43b92db6175868215f3e7b094cfba0a38eb5c957a4a99c32d1342604d27c",
    "smeared/summary.json":
        "8f373d9efbefed8f2ae2d94f8f6fe60ed06eab6fbd28c34b22c11cbf0c06b941",
    "systematic/trials.csv":
        "325cffceaf6e9416e15fe2a91bfbe7ba2f6cf8e8029b3b228ab6720e0c017cf5",
    "random/trials.csv":
        "a2989c11e468924f84f186b6ae7f6454b75105f9cb462f97a98e9a72e06f9e29",
    "window1/trials.csv":
        "a94c0ab50f87db27c7609058b2abd047125818f50bbc1fbaaff0a2425d539fa0",
    "window2/trials.csv":
        "2c8a2bd72a506a98c21bb9fb059a9abf9fffa4f250a8988cdd8c1557de2b2d08",
    "chsh/summary.json":
        "6ff1736d5f92ede7cd53b6c5f9756dd8e52b6ac7942637e1b2532f3c3f12f5fb",
    "eberhard/summary.json":
        "c1cd50bf29f023503ecede5dd8ff322108bc0ae4628d0aca203a845869b8c4fa",
    "gill/per_run.csv":
        "0ca2d31ae00491b74a148a166e8fdc8c0441d8300a4ad9b573bfb3ff9180e987",
    "gill/summary.json":
        "659148db514b5dd7827b41bb5a09cddc0707029e0408412b6ce69bacfbe5896f",
    "vongher/per_run.csv":
        "bc9eee10c4ec1f4877bf512204fe7dc758bc9c0d10c18dbb0359c6e91079944e",
    "vongher/summary.json":
        "a192d39283d885d1b978281efbf8824a7a4a1581253928a09c4166b5f1695808",
    "breakdown/summary.json":
        "55a534d5ebdbb61a05c3c188cd8bdba781eb0dd59589d7eec89e2abf0a2608a4",
    "breakdown-spec/summary.json":
        "a4ad76ae7061f2220ab01eb8ff069f469cbc1d66d63713863a75bcb44a186cfe",
    "homogeneity/summary.json":
        "7bc09844149830fd613885c6f300309bfc0018c54bac718219f5094ed6e3a79d",
    "homogeneity-raw/summary.json":
        "2dbcf499af45a2909a36909707582ba6176f4e268891aa41538a03111deeb391",
    "homogeneity-setting/summary.json":
        "e2f3c4d9b9860ee89ef8b2c1a356efc3ac34f804ac54622b5ba99af6e776a5fb",
    "game-scripted/rounds.csv":
        "1399b04dc85d7de8ac740a23d0c16837a4c7c202372c49168df0d6ffed4df29e",
    "game-scripted/summary.json":
        "997396766d54c699ba2ccfc910e392e173dc1e04f68a037f2d3940157c5a85e4",
    "game-quantum/rounds.csv":
        "e138ab6b675f26a8629f3a861fe7d5272092fffc08a91ab29eae3eb7c0a054af",
    "game-quantum/summary.json":
        "b3e23d776b8bc5f04d8ff881ad95152c9a115f6a60aaa482dfddee634b1d7684",
    "game-random/rounds.csv":
        "9fe53fa97a8eb085ce3ba5ae2db0f619eb2e0849c74e1cb6abc39eadc3843a5b",
    "game-random/summary.json":
        "00e7f666e7ea4c89302f034cb9d3ea08cdd7951cd85763c6331b58bd703b1e8f",
    "reproduce-vongher/summary.json":
        "7b28834c904ed4daa527391ee8158288073d5eba7e08b182f2c026d26f22ff8f",
    "reproduce-gill/summary.json":
        "d79e231984595d75c4e3d0c7a6a4c535638f55342709980a2c04923dacfcd6b2",
}

COMMANDS = {
    "simulate": ["simulate", "--model", "contextual", "--n", "500",
                 "--x", "1", "--y", "0", "--seed", "11"],
    "singlet": ["simulate", "--model", "singlet", "--n", "500",
                "--angles", "0,1.2", "--seed", "12"],
    "smeared": ["simulate", "--model", "smeared", "--n", "500",
                "--angles", "0.3,0.9", "--half-width-a", "0.4",
                "--half-width-b", "0.2", "--seed", "13"],
    "systematic": ["pair", "--events-a", "a.csv", "--events-b", "b.csv",
                   "--pairing", "systematic:1"],
    "random": ["pair", "--events-a", "a.csv", "--events-b", "b.csv",
               "--pairing", "random:500", "--seed", "4"],
    "window1": ["pair", "--events-a", "a.csv", "--events-b", "b.csv",
                "--pairing", "window:1"],
    "window2": ["pair", "--events-a", "a.csv", "--events-b", "b.csv",
                "--pairing", "window:2"],
    "chsh": ["estimate", "--input", "window2/trials.csv", "--stat", "chsh"],
    "eberhard": ["estimate", "--input", "systematic/trials.csv",
                 "--stat", "eberhard"],
    "gill": ["qrc-gill", "--rows", "400", "--runs", "12", "--seed", "5"],
    "vongher": ["qrc-vongher", "--variant", "quantum", "--pairs", "300",
                "--runs", "12", "--seed", "6"],
    "breakdown": ["breakdown", "--runs", "100", "--run-len", "500",
                  "--seed", "8"],
    "breakdown-spec": ["breakdown", "--spec", "drift.cfg", "--runs", "4",
                       "--run-len", "200", "--seed", "8"],
    "homogeneity": ["homogeneity", "--input", "a.csv", "--method", "all"],
    "homogeneity-raw": ["homogeneity", "--input", "a.csv", "--bins", "0",
                        "--parts", "3"],
    "homogeneity-setting": ["homogeneity", "--input", "a.csv",
                            "--per-setting"],
    "game-scripted": ["bellgame", "--strategy", "scripted", "--rounds", "8"],
    "game-quantum": ["bellgame", "--strategy", "quantum", "--rounds", "200",
                     "--seed", "9"],
    "game-random": ["bellgame", "--strategy", "random", "--rounds", "200",
                    "--seed", "9"],
    "reproduce-vongher": ["reproduce", "--target", "vongher-quantum"],
    "reproduce-gill": ["reproduce", "--target", "gill-boundary"],
}


# the middle symbol never occurs, so its all-zero count column is dropped
# before the chi-square
DRIFT_SPEC = """values = 0,1,2
regimes = 0:2:0.5,0,0.5;2:4:0.2,0,0.8
"""


def write_event_pair(emissions: int = 400, seed: int = 3) -> None:
    """a.csv and b.csv: mixed settings, independent loss, +-1 jitter on B."""
    rng = np.random.default_rng(seed)
    window = np.cumsum(rng.integers(1, 4, size=emissions))
    x = rng.integers(0, 2, size=emissions)
    y = rng.integers(0, 2, size=emissions)
    a = rng.choice([1, -1, 0], size=emissions, p=[0.45, 0.45, 0.1])
    b = np.where(rng.random(emissions) < 0.8, -a, a)
    keep_a = rng.random(emissions) >= 0.1
    keep_b = rng.random(emissions) >= 0.15
    jitter = rng.integers(-1, 2, size=emissions)
    sides = (("a.csv", window, x, a, keep_a),
             ("b.csv", window + jitter, y, b, keep_b))
    for name, w, s, o, keep in sides:
        with open(name, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("window_index", "setting_label", "outcome"))
            out.writerows(zip(w[keep].tolist(), s[keep].tolist(),
                              o[keep].tolist()))


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        write_event_pair()
        with open("drift.cfg", "w") as fh:
            fh.write(DRIFT_SPEC)
        for label, argv in COMMANDS.items():
            assert main(argv + ["--out", label]) == 0, label
        return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(hashes, name):
    assert hashes[name] == GOLDEN[name]


@pytest.mark.parametrize("label", ["systematic", "random", "window1", "window2"])
def test_lf_event_files_pair_to_the_pinned_bytes(tmp_path, monkeypatch, capsys,
                                                 label):
    # the same event pair with LF line ends, as np.savetxt writes them
    monkeypatch.chdir(tmp_path)
    write_event_pair()
    for name in ("a.csv", "b.csv"):
        data = Path(name).read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n")
        with open(name, "wb") as fh:
            fh.write(data.replace(b"\r\n", b"\n"))
    assert main(COMMANDS[label] + ["--out", label]) == 0
    capsys.readouterr()
    name = f"{label}/trials.csv"
    assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("label", ["systematic", "random", "window1", "window2"])
def test_pair_summary_counts_unmatched_events(tmp_path, monkeypatch, capsys, label):
    # the golden event pair with each event's index as its setting label:
    # a trial then names its events, and an event no trial pairs with a
    # partner (label -1 marks an absent one) is unmatched
    monkeypatch.chdir(tmp_path)
    write_event_pair()
    sizes = {}
    for name in ("a.csv", "b.csv"):
        with open(name, newline="") as fh:
            rows = list(csv.reader(fh))
        sizes[name] = len(rows) - 1
        with open(name, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [rows[0]] + [[w, k, o] for k, (w, _, o) in enumerate(rows[1:])])
    assert main(COMMANDS[label] + ["--out", "out"]) == 0
    capsys.readouterr()
    with open("out/trials.csv", newline="") as fh:
        trials = np.array([r for r in csv.reader(fh)][1:], dtype=int)
    paired = trials[(trials[:, 0] >= 0) & (trials[:, 1] >= 0)]
    results = json.loads(Path("out/summary.json").read_text())["results"]
    assert results["unmatched_a"] == sizes["a.csv"] - len(set(paired[:, 0]))
    assert results["unmatched_b"] == sizes["b.csv"] - len(set(paired[:, 1]))
    assert 0 < results["unmatched_a"] + results["unmatched_b"]
