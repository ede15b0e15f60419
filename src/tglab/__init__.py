"""tglab: growing graph states with double heralding under mismatched photon leakage.

Modules
-------
leakage       calibrated emission densities, quadrature and sampling
tilted_graph  extended graph-state data model (tilts, weighted edges, partial fusions)
oracle        dense state-vector simulator and quantum-trajectory integrator
heralding     double-heralding click statistics and graph rewrites
procedures    realignment, merge, bridge, method selection
metrics       E(F), E(F^2) and its first-order form, fidelity distribution, strategy comparison
growth        three-phase Monte Carlo growth engine
cli           command-line front end (`tglab`)
"""

__version__ = "0.1.0"
