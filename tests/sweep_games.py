"""Robustness sweep of the solver over 48 monotone games.

    python3 tests/sweep_games.py

Each game is configs/blind.json's with the cost's `phi` amplitude in
{0.3, 1, 3, 10}, the Hamiltonian's delta in {0.5, 0.05}, sigma in
{0.05, 0.005} and the solver's relaxation in {0.2, 0.5, 0.9}, solved
with max_iter 300 and tol 1e-8 through `solver.solve_blind`.  Every cost
is product-form, f = phi * ∫phi dm, which is monotone at every
amplitude, so each game has one equilibrium.  Prints one line per game
(converged, iterations, final drift gap), then the games converged and
the iterations they took.  pytest does not collect this file.
"""

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from blindmfg.cli import _build_game  # noqa: E402
from blindmfg.solver import solve_blind  # noqa: E402

AMPLITUDES = (0.3, 1.0, 3.0, 10.0)
DELTAS = (0.5, 0.05)
SIGMAS = (0.05, 0.005)
RELAXATIONS = (0.2, 0.5, 0.9)


def game_config(amplitude: float, delta: float, sigma: float, relaxation: float) -> dict:
    cfg = json.loads((ROOT / "configs" / "blind.json").read_text())
    cfg["cost"]["phi"]["amplitude"] = amplitude
    cfg["hamiltonian"]["delta"] = delta
    cfg["sigma"] = sigma
    cfg["solver"] = {"relaxation": relaxation, "tol": 1e-8, "max_iter": 300}
    return cfg


def sweep() -> None:
    converged = iterations = 0
    games = list(itertools.product(RELAXATIONS, AMPLITUDES, DELTAS, SIGMAS))
    print("relaxation amplitude delta sigma converged iterations final_gap")
    for relaxation, amplitude, delta, sigma in games:
        _, tg, sig, H, cm, mu0, scfg = _build_game(game_config(amplitude, delta, sigma,
                                                               relaxation))
        diag = solve_blind(mu0, cm, H, sig, tg, scfg).diagnostics
        converged += diag["converged"]
        iterations += diag["iterations"] if diag["converged"] else 0
        print(f"{relaxation:10} {amplitude:9} {delta:5} {sigma:5} {diag['converged']!s:9} "
              f"{diag['iterations']:10} {diag['final_gap']:.3e}", flush=True)
    print(f"converged {converged} of {len(games)}, in {iterations} iterations together")


if __name__ == "__main__":
    sweep()
