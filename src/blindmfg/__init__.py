"""Numerical laboratory for mean field games with unknown population
distribution: blind-case equilibria over atomic beliefs, lifted
monotonicity certificates, and belief filtering from observed payments."""
