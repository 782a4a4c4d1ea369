"""Small planar-polygon helpers shared by geometry, meshing and the CLI.

All polygons are arrays of shape (n, 2) listing vertices once, in order,
without repeating the first vertex at the end.
"""

import numpy as np


def signed_area(points):
    """Shoelace signed area; positive for counterclockwise loops."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def polygon_is_simple(points):
    """Check that no two non-adjacent polygon edges properly cross (shared
    endpoints and touching are ignored)."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = p[:, :1], p[:, 1:]
    dx, dy = np.roll(x, -1) - x, np.roll(y, -1) - y
    # side[i, j] > 0 when p[j] lies left of edge i; head[i, j] takes p[j + 1]
    side = dx * (y.T - y) - dy * (x.T - x)
    head = np.roll(side, -1, axis=1)
    cross = (side * head < 0) & (side.T * head.T < 0)
    n = len(p)
    non_adjacent = np.triu(np.ones((n, n), dtype=bool), k=2)
    non_adjacent &= ~np.eye(n, k=n - 1, dtype=bool)  # last edge meets first
    return not np.any(cross & non_adjacent)


def random_convex_polygon(rng, n_vertices, radius=1.0, center=(0.0, 0.0)):
    """Random convex CCW polygon: sorted angles on a jittered circle."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
    # enforce minimal angular separation so no edge degenerates
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.05:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
    r = radius * rng.uniform(0.5, 1.5)
    pts = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    return pts + np.asarray(center, dtype=float)
