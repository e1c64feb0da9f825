"""README.md is the user's contract, and this file holds it to the CLI.

Every shipped config runs, at a reduced size, through the subcommand that
README's Commands block names for it, and shows its finding; the certify
runs also run at their shipped size for the minima README quotes.  The
(subcommand, config) pairs are read from README.md, so README cannot name
a config that does not run, and the pairs must cover configs/*.json, so no
shipped config can break unseen.

README's section table, config schema table and exit codes are parsed
and run against `main`: each key's wrong type and each side of its bound
exits 2 at that key, each default gives the bytes of the key left out.
README names no private name, so a refactor of private internals needs no
README edit.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from blindmfg import cli
from blindmfg.beliefs import MAX_ATOMS
from blindmfg.cli import main
from blindmfg.solver import SolverConfig

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


def _bullet(start: str) -> str:
    """README's bullet that begins with `start`, up to the next bullet."""
    return README[README.index(start):].split("\n- ")[0]


# the numbers README's Shipped runs quote for validate-weak: three
# residuals, then the perturbed residual
WEAK_QUOTED = re.findall(r"\d\.\de-\d", _bullet("- `validate-weak` on"))


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


# ---------------------------------------------------------------------------
# README's quoted numbers, names and tables against the CLI

# the minima README's Shipped runs quote for the certify runs, in the
# order of their configs
CERTIFY_QUOTED = re.findall(r"`([+-]\d\.\de-\d\d)`", _bullet("- `certify-monotone` on"))


@pytest.mark.parametrize("config,quoted", zip(
    ["configs/certify_product.json", "configs/certify_moment.json"], CERTIFY_QUOTED))
def test_certify_minimum_as_quoted(tmp_path, config, quoted):
    """The shipped certify runs, at their shipped size, give the minimum
    README quotes to its printed digits, nonnegative when it is."""
    assert len(CERTIFY_QUOTED) == 2
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify-monotone", "--config", str(ROOT / config),
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert f"{report['min_pairing']:+.1e}" == quoted
    assert report["nonnegative"] == (float(quoted) >= 0)


def _is_private(part: str) -> bool:
    return part.startswith("_") and not (part.startswith("__") and part.endswith("__"))


def test_readme_names_no_private_name():
    """No backticked identifier in README starts with `_` or has a `._`
    component; dunder names such as `__all__` are public."""
    private = {ident for span in re.findall(r"`([^`\n]+)`", README)
               for ident in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span)
               if any(map(_is_private, ident.split(".")))}
    assert private == set()


def test_readme_requirements_are_the_package_metadata():
    """README's Python version and its memory cap are the code's."""
    python = re.search(r"Requires Python ≥ (\S+) ", README).group(1)
    assert f'requires-python = ">={python}"' in (ROOT / "pyproject.toml").read_text()
    cap = re.search(r"`blindmfg\.cli\.MAX_STATE_BYTES`, 2\^(\d+) bytes", README).group(1)
    assert cli.MAX_STATE_BYTES == 2 ** int(cap)


def _table(header: str) -> list:
    """The cells of README's table under `header`, one list per row."""
    block = README[README.index(header):].split("\n\n")[0].splitlines()[2:]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in block]


def test_exit_codes_are_the_cli_constants():
    codes = {int(row[0].strip("`")) for row in _table("| Code | Meaning |")}
    assert codes == {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NONCONVERGENCE}


# Small configs that together hold every key of README's schema table:
# the first one that holds a key is the one its checks run on.
_GAME = {
    "grid": {"dim": 1, "n": 16}, "time": {"T": 0.5, "steps": 16}, "sigma": 0.05,
    "hamiltonian": {"kind": "smoothed_abs", "delta": 0.5},
    "cost": {"id": "product_form",
             "phi": {"kind": "cosine", "amplitude": 0.3, "frequency": 1, "phase": 0.0},
             "base": {"kind": "constant", "value": 0.1}},
}
_LADDER = {
    "grid": {"dim": 1, "n": 16}, "time": {"T": 0.25, "steps": 16}, "sigma": 0.05,
    "drift": {"kind": "sine", "amplitude": 0.5, "frequency": 1},
    "belief": {"weights": [0.3, 0.7],
               "atoms": [{"kind": "dirac", "center": 0.2, "bandwidth": 0.1},
                         {"kind": "dirac", "center": 0.6, "bandwidth": 0.1}]},
    "phi": {"inner": {"kind": "cosine"}},
    "ladder": {"levels": 2},
    "perturb": {"at_fraction": 0.5, "weights": [0.7, 0.3]},
}
BASES = [
    ("solve-blind", dict(
        _GAME, belief={"weights": [0.5, 0.5],
                       "atoms": [{"kind": "dirac", "center": 0.2, "bandwidth": 0.125},
                                 {"kind": "grid", "values": [1.0] * 16}]},
        solver={"relaxation": 0.5, "tol": 1e-6, "max_iter": 500})),
    ("solve-blind", dict(
        _GAME, hamiltonian={"kind": "capped_quadratic", "cap": 1.0},
        cost={"id": "constant", "field": {"kind": "constant", "value": 1.0},
              "terminal": {"kind": "sine", "amplitude": 0.2}},
        belief={"weights": [1.0], "atoms": [{"kind": "dirac", "center": 0.3}]},
        solver={"tol": 1e-6})),
    ("simulate-observed", _shrink("simulate-observed", json.loads(
        (ROOT / "configs/illustrative.json").read_text()))),
    ("certify-monotone", {"grid": {"dim": 1, "n": 16}, "cost": {"id": "moment_form", "g": "sqrt"},
                          "certify": {"trials": 4, "max_atoms": 8, "seed": 0}}),
    ("validate-weak", _LADDER),
    ("validate-weak", dict(_LADDER, drift={"kind": "constant", "value": 0.5})),
]
# where README says a field sits
FIELDS = re.search(r"it sits at (.*?)\.\s", README, flags=re.DOTALL).group(1)
FIELD_SITES = re.findall(r"`([\w.]+)`", FIELDS)
SCHEMA = _table("| Key | Type | Bound | Default |")
# the bound of a weight list, with the tolerance of its sum
WEIGHTS = r"each `> 0`, sum `1 ± (.+)`"


def _get(cfg: dict, site: tuple):
    """The value at config path `site`, or _DELETE where there is none."""
    node = cfg
    for part in site:
        if isinstance(node, dict) and part in node or (
                isinstance(node, list) and isinstance(part, int) and part < len(node)):
            node = node[part]
        else:
            return _DELETE
    return node


def _base(key: str) -> tuple:
    """The first of BASES that holds README's `key`, atom i and a field at
    the first place that holds them: (command, config, path)."""
    for command, cfg in BASES:
        for prefix in FIELD_SITES if key.startswith("<field>") else [""]:
            for i in range(MAX_ATOMS):
                dotted = key.replace("<field>", prefix).replace("[i]", f".{i}")
                site = tuple(int(part) if part.isdigit() else part for part in dotted.split("."))
                if _get(cfg, site) is not _DELETE:
                    return command, cfg, site
    raise AssertionError(f"no base config holds {key}")


def _value(expr: str, cfg: dict) -> float:
    """A bound of README's schema as a number: `h` is the grid spacing and
    `K` the belief's atom count."""
    expr = expr.replace("^", "**").replace("h", f"(1 / {cfg['grid']['n']})")
    if "K" in expr:
        expr = expr.replace("K", str(len(cfg["belief"]["atoms"])))
    return eval(expr, {})  # README's arithmetic: numbers, h, K, ^ and -


def _outside(bound: str, integer: bool, cfg: dict) -> list:
    """(value, bound) just outside each finite side of README's `bound`."""
    def step(x, side):
        return x + side if integer else x + side * 1e-9 * max(1.0, abs(x))
    interval = re.fullmatch(r"([\[(])(.+), (.+)([\])])", bound)
    if interval:
        lo, hi = _value(interval[2], cfg), _value(interval[3], cfg)
        return [(lo if interval[1] == "(" else step(lo, -1), lo),
                (hi if interval[4] == ")" else step(hi, +1), hi)]
    op, lo = re.fullmatch(r"(>=|>) (.+)", bound).groups()
    lo = _value(lo, cfg)
    return [(lo if op == ">" else step(lo, -1), lo)]


def _bad_values(kind: str, bound: str, now, cfg: dict) -> list:
    """(value, bound or None): a value of the wrong type for README's
    `kind`, then values that break README's `bound`, each with the bound
    its error message must state; `now` is the key's value in `cfg`."""
    integer = kind.startswith("int")
    bad = [(1.5 if integer else 0 if kind == "string" else "0.5", None)]
    weights = re.fullmatch(WEIGHTS, bound)
    atoms = re.fullmatch(r"`\[(\d+), (\d+)\]` atoms", bound)
    if weights:
        return bad + [([0.0] + now[1:], None),
                      (now[:-1] + [now[-1] + 2 * float(weights[1])], None)]
    if atoms:
        return bad + [(now[:1] * (int(atoms[1]) - 1), int(atoms[1])),
                      (now[:1] * (int(atoms[2]) + 1), int(atoms[2]))]
    return bad + (_outside(bound.strip("`"), integer, cfg) if bound else [])


def _states(err: str, field: str, bound) -> bool:
    """Whether `err` is an error at `field` whose message, before the value
    it got, states `bound` (any message when `bound` is None)."""
    line = next((ln for ln in err.splitlines()
                 if ln.startswith(f"config error at {field}: ")), None)
    if line is None or bound is None:
        return line is not None
    said = re.findall(r"-?\d+(?:\.\d+)?(?:e-?\d+)?", line.split(": ", 1)[1].split(", got")[0])
    return any(math.isclose(float(x), bound, rel_tol=1e-12) for x in said)


def _runs(command: str, cfg: dict, tmp_path: Path, name: str) -> tuple:
    """main's exit code and stderr on `cfg`, written out to tmp_path/name."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return _run([command, "--config", str(path), "--out", str(tmp_path / name)])


def _artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()
            if p.name not in ("telemetry.json", "manifest.json")}


@pytest.mark.parametrize("key,kind,bound,default", SCHEMA, ids=[row[0] for row in SCHEMA])
def test_schema_row_is_the_cli(tmp_path, key, kind, bound, default):
    """A value of the wrong type, and a value just outside each side of the
    bound, exit 2 at the key, with the bound in the message; a weight sum
    just inside the tolerance runs; the default writes the bytes of the key
    left out, and a solver default is SolverConfig's."""
    command, cfg, site = _base(key.strip("`"))
    field = _field(site)
    failures = []
    for i, (value, side) in enumerate(_bad_values(kind, bound, _get(cfg, site), cfg)):
        code, err = _runs(command, _replaced(cfg, site, value), tmp_path, f"bad{i}")
        if code != 2 or not _states(err, field, side):
            failures.append((value, side, code, err))
    assert failures == []
    weights = re.fullmatch(WEIGHTS, bound)
    if weights:
        now = _get(cfg, site)
        inside = now[:-1] + [now[-1] + 0.5 * float(weights[1])]
        code, err = _runs(command, _replaced(cfg, site, inside), tmp_path, "inside")
        assert code in (0, 3), err
    if re.fullmatch(r"`[\d.e-]+h?`", default):
        value = default.strip("`")
        value = 2 * _value("h", cfg) if value == "2h" else json.loads(value)
        if site[0] == "solver":
            assert getattr(SolverConfig, site[1]) == value
        for name, case in (("left_out", _replaced(cfg, site, _DELETE)),
                           ("default", _replaced(cfg, site, value))):
            code, err = _runs(command, case, tmp_path, name)
            assert code in (0, 3), err
        assert _artifacts(tmp_path / "left_out") == _artifacts(tmp_path / "default")


SECTIONS = {row[0].strip("`"): re.findall(r"(\[?)`(\w+)`", row[1])
            for row in _table("| Command | Sections |")}


@pytest.mark.parametrize("command", SECTIONS)
def test_sections_are_the_cli(tmp_path, command):
    """The first base config of each command holds the sections README
    lists for it; leaving out one not in brackets exits 2 at it, one in
    brackets runs, and a section README does not list exits 2 at it."""
    cfg = next(cfg for name, cfg in BASES if name == command)
    listed = {name for _, name in SECTIONS[command]}
    assert set(cfg) - {"output"} == listed
    for optional, name in SECTIONS[command]:
        code, err = _runs(command, _replaced(cfg, (name,), _DELETE), tmp_path, name)
        if optional:
            assert code in (0, 3), err
        else:
            assert code == 2 and re.search(rf"config error at (config\.)?{name}:", err), err
    others = {name for sections in SECTIONS.values() for _, name in sections} - listed
    for name in others:
        code, err = _runs(command, dict(cfg, **{name: {}}), tmp_path, name)
        assert code == 2 and f"config error at config.{name}:" in err, err
