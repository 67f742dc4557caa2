"""Solve a perturbed ensemble and look at its equilibrium density.

Walks through the endpoint solve for a mixed cubic/quartic perturbation,
prints the support, samples the density to CSV next to this script, and
confirms the mass and the variational characterization.
"""

import csv
import pathlib

import numpy as np

from eqmap import PotentialSpec, density, solve_endpoints, total_mass, variational_report
from eqmap.measure import equilibrium_measure

pot = PotentialSpec(x=1.0, t={3: 0.03, 4: 0.015})
print("potential: V(y) = (y^2/2 + 0.03 y^3 + 0.015 y^4) / x,  x = 1")

ep = solve_endpoints(pot)
print("solved center/width parameters: u = %.12f, z = %.12f" % (ep.u, ep.z))
print("support: [%.12f, %.12f]" % (ep.alpha_minus, ep.alpha_plus))
print("residual norm at the solution: %.2e" % ep.residual_norm)

em = equilibrium_measure(pot)
print("\ntotal mass from the Chebyshev-U expansion of h: %.15f" % total_mass(em))

rep = variational_report(em)
print("variational constant l = %.12f" % rep.lagrange_constant)
print("max deviation of 2 g(lambda) - V(lambda) from l on the support: %.2e"
      % rep.max_support_deviation)
print("min slack of the inequality off the support: %.2e" % rep.min_offsupport_margin)

lam = np.linspace(ep.alpha_minus, ep.alpha_plus, 201)
psi = density(em, lam)
out = pathlib.Path(__file__).with_name("density_samples.csv")
with out.open("w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(("lambda", "psi"))
    writer.writerows(zip(lam, psi))
print("\nwrote %d density samples to %s" % (len(lam), out.name))
print("peak density %.6f near lambda = %.4f" % (psi.max(), lam[psi.argmax()]))
