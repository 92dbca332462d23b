"""Stabilizer codes with exact verification of error transmutation over GF(2)."""
