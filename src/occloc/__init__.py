"""occloc: indoor smartphone localization over existing LED lighting.

Ceiling fixtures broadcast their coordinates as modulated light; a smartphone
camera decodes them, measures range from each fixture's projected pixel area,
and a lighting server trilaterates and Kalman-tracks the phone. This package
is the desk-scale simulator and library for that pipeline.
"""

__version__ = "0.1.0"
