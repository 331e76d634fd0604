"""Analysis tooling: skyline-growth profiling (the mechanism behind the
paper's Figure 6 trends)."""

from repro.analysis.skylines import (
    BandProfile,
    label_depth_profile,
    skyline_growth_profile,
)

__all__ = [
    "BandProfile",
    "label_depth_profile",
    "skyline_growth_profile",
]
