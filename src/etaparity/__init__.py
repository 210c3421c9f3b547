"""Mod-2 arithmetic of eta powers: packed GF(2) series, Hecke operators,
the level-1 and level-9 form algebras, and parity-density experiments.

Import what you use from its module (``from etaparity.density import
eta_densities``); the package itself loads no module, so importing one
module loads only the modules it needs.
"""
