"""Whole-component and whole-graph references for the local graph reads.

The library answers "is this a GHZ star" from one vertex's neighbourhood and
rewrites only the edge a merge or bridge makes.  These are the earlier
versions that read the whole component or graph; tests check the local
versions against them.  `without_vertices_by_comprehension` is the earlier
`TiltedGraph.without_vertices`, which rebuilt both maps key by key.
"""

import math
from dataclasses import replace

from tglab.tilted_graph import HALF_PI, EdgeAnnotation, EdgeKind, TiltedGraph, _fusion_rewrite


def component_star_center(g, comp):
    """The centre of a GHZ-star component, or None if the component is not a star."""
    comp = frozenset(comp)
    if len(comp) == 1:
        return next(iter(comp))
    centers = [vid for vid in comp if not g.vertex(vid).hadamard]
    if len(centers) != 1:
        return None
    c = centers[0]
    for vid in comp - {c}:
        v = g.vertex(vid)
        if g.neighbors(vid) != (c,) or not v.hadamard or not v.untilted:
            return None
        if g.edge(c, vid).kind is not EdgeKind.PURE:
            return None
    return c


def whole_graph_canonicalize(g):
    """Canonical form from one tilt pass over every vertex, then one pass over a
    snapshot of every edge."""
    out = g
    for vid in g.vertex_ids:
        v = out.vertex(vid)
        if v.tilt < 0:
            out = out.with_vertex(replace(v, tilt=-v.tilt).absorb_inner_z(math.pi))
    for a, b, annot in list(out.edges()):
        if annot.kind is EdgeKind.WEIGHTED and annot.maximal:
            sgn = 1 if annot.phi > 0 else -1
            if out.vertex(a).hadamard or out.vertex(b).hadamard:
                continue
            out = out.with_edge(a, b, EdgeAnnotation.pure())
            out = out.map_vertex(a, lambda v: v.absorb_inner_z(-sgn * HALF_PI))
            out = out.map_vertex(b, lambda v: v.absorb_inner_z(-sgn * HALF_PI))
        elif annot.kind is EdgeKind.PARTIAL and annot.maximal:
            out = _fusion_rewrite(out, a, b, 1 if annot.phi > 0 else -1)
    return out


def whole_graph_join(g, central, record):
    """The graph a merge or bridge at `central` left when it canonicalized the
    whole graph after installing its annotation."""
    x, y = g.neighbors(central)
    out = g.without_vertices([central]).with_edge(x, y, record.annotation_after)
    return whole_graph_canonicalize(out) if record.annotation_after.maximal else out


def without_vertices_by_comprehension(g, vids):
    """g without vids and their edges, every map rebuilt by a comprehension."""
    vids = set(vids)
    for vid in vids:
        g.vertex(vid)
    out = TiltedGraph.__new__(TiltedGraph)
    out._vertices = {k: v for k, v in g._vertices.items() if k not in vids}
    out._adj = {k: row for k, row in g._adj.items() if k not in vids}
    for nb in {nb for vid in vids for nb in g._adj[vid]} - vids:
        out._adj[nb] = {k: a for k, a in out._adj[nb].items() if k not in vids}
    return out
