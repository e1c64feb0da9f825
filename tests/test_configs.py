"""Every shipped config runs, at a reduced size, through the subcommand
that README's Command line block names for it, and shows its finding.

The (subcommand, config) pairs are read from README.md, so README cannot
name a config that does not run, and the pairs must cover configs/*.json,
so no shipped config can break unseen.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from blindmfg.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# README's row of the module table for the CLI, which names its artifacts
CLI_ROW = re.search(r"^\| `blindmfg\.cli` \|.*$", README, flags=re.MULTILINE).group()
PAIRS = re.findall(r"^blindmfg +([a-z-]+) +--config +(configs/\S+\.json)",
                   README, flags=re.MULTILINE)


def _shrink(command: str, cfg: dict) -> dict:
    """The same run at a size that takes well under 2 s."""
    if command == "simulate-observed":
        # the same dt as T = 2 / 600 steps; the event at t = 0.15 stays
        cfg["time"] = {"T": 0.5, "steps": 150}
    elif command == "certify-monotone":
        cfg["certify"]["trials"] = 300
    elif command == "solve-blind":
        cfg["grid"]["n"] = 64
    return cfg


def _race(out: Path) -> None:
    trace = json.loads((out / "trace.json").read_text())
    assert trace["events"] == [{"time": pytest.approx(0.15), "eliminated": [1]}]


def _nonnegative(out: Path) -> None:
    assert json.loads((out / "report.json").read_text())["nonnegative"]


def _violation(out: Path) -> None:
    report = json.loads((out / "report.json").read_text())
    assert report["min_pairing"] < 0 and not report["nonnegative"]


# the numbers README's Shipped runs quote for validate-weak: three
# residuals, then the perturbed residual
WEAK_QUOTED = re.findall(r"\d\.\de-\d", README[README.index("- `validate-weak` on"):]
                         .split("\n- ")[0])


def _weak(out: Path) -> None:
    report = json.loads((out / "report.json").read_text())
    assert report["order_ok"] and report["violation"]["detected"]
    found = report["residuals"] + [report["violation"]["perturbed_residual"]]
    assert [float(f"{x:.1e}") for x in found] == [float(q) for q in WEAK_QUOTED]


def _converged(out: Path) -> None:
    assert json.loads((out / "summary.json").read_text())["converged"]


HEADLINE = {
    "configs/illustrative.json": _race,
    "configs/certify_product.json": _nonnegative,
    "configs/certify_moment.json": _violation,
    "configs/weak.json": _weak,
    "configs/blind.json": _converged,
}


def test_readme_pairs_cover_every_shipped_config():
    shipped = {f"configs/{p.name}" for p in (ROOT / "configs").glob("*.json")}
    named = set(re.findall(r"configs/[\w-]+\.json", README))
    assert sorted(path for _, path in PAIRS) == sorted(shipped)
    assert named == shipped == set(HEADLINE)


@pytest.mark.parametrize("command,config", PAIRS)
def test_shipped_config_runs(tmp_path, command, config):
    """The finding shows, README's CLI row names every manifest-listed
    artifact, and a rerun writes each and manifest.json byte for byte again."""
    cfg = _shrink(command, json.loads((ROOT / config).read_text()))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, again = tmp_path / "out", tmp_path / "again"
    for where in (out, again):
        assert main([command, "--config", str(path), "--out", str(where)]) == 0
    HEADLINE[config](out)
    names = list(json.loads((out / "manifest.json").read_text())["artifacts"])
    written = {p.name for p in out.iterdir()} - {"manifest.json", "telemetry.json"}
    assert written == set(names)
    assert [name for name in names if f"`{name}`" not in CLI_ROW] == []
    for name in names + ["manifest.json"]:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


BAD_VALUES = ("x", [], {}, None)

# what a bad config that names no field prints: every exit 2 names one
BARE_PATH = "config error at config:"


def _run(argv):
    """main(argv)'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _sites(node, path=()):
    """Paths to every leaf and every list element under `node`."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, child in items:
        here = path + (key,)
        if isinstance(node, list) or not isinstance(child, (dict, list)):
            yield here
        if isinstance(child, (dict, list)):
            yield from _sites(child, here)


_DELETE = object()


def _replaced(cfg, site, value):
    """`cfg` with the value at `site` replaced, or removed for _DELETE."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in site[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[site[-1]]
    else:
        node[site[-1]] = value
    return cfg


@pytest.mark.parametrize("command,config", PAIRS)
def test_every_malformed_value_exits_cleanly(tmp_path, monkeypatch, command, config):
    """Each leaf and list element of the reduced config, replaced by each of
    BAD_VALUES, gives exit 0, 2 or 3 and never a traceback, and an exit 2
    names a field; with no --out, output.directory is read too."""
    monkeypatch.chdir(tmp_path)
    cfg = _shrink(command, json.loads((ROOT / config).read_text()))
    failures = []
    for site in _sites(cfg):
        for value in BAD_VALUES:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(_replaced(cfg, site, value)))
            try:
                code, err = _run([command, "--config", str(path)])
            except Exception as exc:  # any raise is the finding
                code, err = f"{type(exc).__name__}: {exc}", ""
            if code not in (0, 2, 3) or (code == 2 and BARE_PATH in err):
                failures.append((".".join(map(str, site)), value, code, err))
    assert failures == []


def _objects(node, path=()):
    """Paths to `node` and to every object under it."""
    if isinstance(node, dict):
        yield path
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from _objects(child, path + (key,))


def _field(site) -> str:
    """How an exit 2 names the config path `site`: `config` for the top."""
    name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in site)
    return name[1:] or "config"


@pytest.mark.parametrize("command,config", PAIRS)
def test_every_unread_key_exits_2_at_its_path(tmp_path, command, config):
    """A key that nothing reads, put into any object of the reduced config,
    exits 2 at its own path, with --out given as well as output.directory."""
    cfg = _shrink(command, json.loads((ROOT / config).read_text()))
    path = tmp_path / "cfg.json"
    failures = []
    for site in _objects(cfg):
        path.write_text(json.dumps(_replaced(cfg, site + ("unread_key",), 0)))
        code, err = _run([command, "--config", str(path), "--out", str(tmp_path / "o")])
        if code != 2 or f"config error at {_field(site)}.unread_key:" not in err:
            failures.append((_field(site), code, err))
    assert failures == []


@pytest.mark.parametrize("command,config", PAIRS)
def test_every_number_as_a_bool_exits_2_at_its_path(tmp_path, command, config):
    """Each number of the reduced config, replaced by `true`, exits 2 at its
    own path or at the list that holds it: a bool is no number."""
    cfg = _shrink(command, json.loads((ROOT / config).read_text()))
    path = tmp_path / "cfg.json"
    failures = []
    for site in _sites(cfg):
        node = cfg
        for key in site:
            node = node[key]
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            continue
        path.write_text(json.dumps(_replaced(cfg, site, True)))
        code, err = _run([command, "--config", str(path), "--out", str(tmp_path / "o")])
        named = {_field(site), _field(site[:-1])} if isinstance(site[-1], int) else {_field(site)}
        if code != 2 or not any(f"config error at {name}:" in err for name in named):
            failures.append((_field(site), code, err))
    assert failures == []


# ---------------------------------------------------------------------------
# config fuzzing

FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["abs", "dirac", "cosine", "constant", "sqrt", ""]),
    st.just([]), st.just({}), st.lists(st.floats(-1.0, 2.0), max_size=3),
    st.just(_DELETE),
)


def _small(command: str, cfg: dict, dim: int, n: int, steps: int) -> dict:
    """The shipped config on a dim-D grid of n <= 16 nodes, <= 16 steps."""
    cfg["grid"] = {"dim": dim, "n": n}
    if "time" in cfg:
        cfg["time"]["steps"] = steps
    if command == "certify-monotone":
        cfg["certify"]["trials"] = 4
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), dim=st.sampled_from([1, 1, 2]),
       n=st.integers(8, 16), steps=st.integers(1, 16), data=st.data())
def test_fuzzed_configs_exit_cleanly(pair, dim, n, steps, data):
    """Small configs with up to three leaves replaced or deleted give exit
    0, 2 or 3 and never raise, and an exit 2 names a field."""
    command, config = pair
    cfg = _small(command, json.loads((ROOT / config).read_text()), dim, n, steps)
    sites = list(_sites(cfg))
    for _ in range(data.draw(st.integers(0, 3))):
        cfg = _replaced(cfg, data.draw(st.sampled_from(sites)), data.draw(FUZZ_VALUES))
        sites = list(_sites(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, err = _run([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3)
    assert not (code == 2 and BARE_PATH in err), err
