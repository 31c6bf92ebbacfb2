"""Shared test helpers."""

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "demos" / "configs"

#: fields within 1e-10 of an integer relation, with their count of
#: merged Bohr groups: generic_field_check (threshold 1e-12 max|B|)
#: passes them, the default clustering (1e-9 times the level spread)
#: merges their flip patterns
NEAR_RELATION_FIELDS = [
    ([0.5, -0.4999999999], 3),
    ([0.5, 0.25000000003], 2),
    ([0.47, 0.51, 0.9800000002], 7),
]
#: a scaling b_interval whose draws merge flip patterns at every size
NARROW_B_INTERVAL = (0.5, 0.5000000001)
