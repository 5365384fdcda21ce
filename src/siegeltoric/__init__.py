"""Exact cone and volume-polynomial machinery for smooth toroidal
compactifications of Siegel varieties, with exact period-domain checks.
"""

__version__ = "0.1.0"
