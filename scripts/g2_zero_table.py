#!/usr/bin/env python3
"""End-to-end experiment for the adjoint character of type G2.

Computes the character on the principal one-parameter subgroup, factors it
into cyclotomics, then runs the seven-substitution resultant pipeline on the
full two-variable torus character and prints the variant table with every
verified torsion-zero orbit.
"""

import sys
import time

sys.path.insert(0, "src")

from cyclochar.cli import _solve_report
from cyclochar.cyclopoints import g2_adjoint_poly, solve
from cyclochar.principal import principal_character, t_orders, zero_orders
from cyclochar.rootsys import CartanType, adjoint_weight, build


def main():
    system = build(CartanType.parse("G2"))
    weight = adjoint_weight(system)
    pc = principal_character(system, weight)
    print(f"type G2, adjoint weight ({weight}), dimension {pc.dimension()}")
    print(f"chi on the principal torus, u = t^2: {pc.poly_u.to_str('u')}")
    orders = zero_orders(pc)
    factors = " ".join(f"Phi_{d}" + (f"^{m}" if m > 1 else "") for d, m in orders)
    print(f"factorization: u^{pc.poly_u.min_exp} * {factors}")
    print(f"principal zeros: element orders {[d for d, _ in orders]}, "
          f"t-orders {t_orders(pc, orders)}")
    print()

    start = time.perf_counter()
    report = solve(g2_adjoint_poly())
    elapsed = time.perf_counter() - start
    print("\n".join(_solve_report(report)[1]))
    print(f"points on the verified orbits: {sum(report.orbit_sizes)}, solved in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
