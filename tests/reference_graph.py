"""Test-side graph references: the GHZ-star helpers, and whole-component,
whole-graph and chained versions of the graph rewrites.

The library builds GHZ stars (`ghz_graph`) but does not recognise or rebuild
them: `realign` reads only the cherry and its holder, and the DH rewrite only
its two cherries.  `star_center_id` (the centre of the star holding a vertex,
read from that vertex's neighbourhood) and `with_star` (drop some vertices,
then join a centre to its leaves) are the helpers the library used for
that; `reference_heralding`'s GHZ-star fusion and the tests still use them.
`component_star_center` is the earlier star test that read the whole
component; `star_center_id` is checked against it.

Merge and bridge rewrite only the edge they make; `whole_graph_join` is the
earlier version that canonicalized the whole graph.
`without_vertices_by_comprehension` is the earlier
`TiltedGraph.without_vertices`, which rebuilt both maps key by key.

The `chained_*` rewrites are the earlier fusion rewrite, edge canonicalization
and DH success rewrite between two cherries, each a chain of one-step
copy-on-write edits; the library makes each of them in one `TiltedGraph.edited`
call.
"""

import math
from dataclasses import replace

from tglab.errors import GraphConfigError
from tglab.tilted_graph import (
    HALF_PI,
    QUARTER_PI,
    EdgeAnnotation,
    EdgeKind,
    TiltedGraph,
    Vertex,
)


def with_star(g, removed, center, leaves):
    """Drop the vertices `removed`, then join `center` to each leaf by a pure edge."""
    removed, leaves, seen = set(removed), tuple(leaves), set()
    for v in (center, *leaves):
        if v.id in seen or (v.id in g._vertices and v.id not in removed):
            raise GraphConfigError(f"duplicate vertex id {v.id}")
        seen.add(v.id)
    pure = EdgeAnnotation.pure()
    return g.edited(removed, (center, *leaves), [(center.id, leaf.id, pure) for leaf in leaves])


def star_center_id(g, vid):
    """The centre of the GHZ star holding vid, or None, from vid's neighbourhood.

    A lone vertex is its own star.  Otherwise the centre is vid (if plain) or a
    Hadamard vid's only neighbour, and it must be plain with every neighbour an
    untilted Hadamard leaf of degree 1 on a pure edge.
    """
    v, row = g.vertex(vid), g._adj[vid]
    if not row:
        return vid
    center = next(iter(row)) if v.hadamard and len(row) == 1 else vid
    if g.vertex(center).hadamard:
        return None
    for nb, annot in g._adj[center].items():
        leaf = g.vertex(nb)
        if (annot.kind is not EdgeKind.PURE or len(g._adj[nb]) != 1 or not leaf.hadamard
                or not leaf.untilted):
            return None
    return center


def chained_fusion_rewrite(g, a, b, sign):
    """Rewrite a maximal partial fusion P(+-pi/4) between a and b to pure form,
    one edge or vertex at a time."""
    x, y = (a, b) if a < b else (b, a)   # deterministic inheritor
    vx, vy = g.vertex(x), g.vertex(y)
    for v in (vx, vy):
        if v.hadamard or v.x_flip or not v.untilted or v.tilt < 0:
            raise GraphConfigError(
                f"fusion rewrite needs plain untilted endpoints, vertex {v.id} is not")
    nx = set(g.neighbors(x)) - {y}
    ny = set(g.neighbors(y)) - {x}
    out = g.without_edge(x, y)
    for end, others in ((x, nx), (y, ny)):
        for n in others:
            if g.edge(end, n).kind is not EdgeKind.PURE:
                raise GraphConfigError(f"fusion rewrite needs pure edges at {end}")
            out = out.without_edge(end, n)
    for n in nx ^ ny:                       # shared neighbours cancel (CZ^2 = 1)
        out = out.with_edge(x, n, EdgeAnnotation.pure())
    out = out.with_edge(x, y, EdgeAnnotation.pure())
    out = out.map_vertex(y, lambda v: v.absorb_inner_h())
    if sign < 0:
        out = out.map_vertex(y, lambda v: v.append_x())
        for n in ny:
            out = out.map_vertex(n, lambda v: v.absorb_inner_z(math.pi))
    return out


def chained_absorb_negative_tilts(g, vids):
    """Negative tilts among vids absorb a Z(pi), one vertex at a time."""
    for vid in vids:
        v = g.vertex(vid)
        if v.tilt < 0:
            g = g.with_vertex(replace(v, tilt=-v.tilt).absorb_inner_z(math.pi))
    return g


def chained_canonical_edge(g, a, b):
    """`canonical_edge` as a chain of one-step edits."""
    annot = g.edge(a, b)
    if annot is None or not annot.maximal:
        return g
    out = chained_absorb_negative_tilts(g, (a, b))
    sgn = 1 if annot.phi > 0 else -1
    if annot.kind is EdgeKind.PARTIAL:
        return chained_fusion_rewrite(out, a, b, sgn)
    if out.vertex(a).hadamard or out.vertex(b).hadamard:
        return out
    out = out.with_edge(a, b, EdgeAnnotation.pure())
    out = out.map_vertex(a, lambda v: v.absorb_inner_z(-sgn * HALF_PI))
    return out.map_vertex(b, lambda v: v.absorb_inner_z(-sgn * HALF_PI))


def chained_cherry_success(g, qa, qb, theta_beta):
    """The success rewrite of `heralding.apply_dh_to_graph` between the cherries
    qa and qb, as a star rewrite, two edges and a vertex update, one after
    another."""
    (ca,), (cb,) = g.neighbors(qa), g.neighbors(qb)
    central = Vertex(qa, theta_beta)
    cherry = Vertex(qb, QUARTER_PI, hadamard=True).append_x()
    out = with_star(g, [qa, qb], central, [cherry])
    for node in (ca, cb):
        out = out.with_edge(qa, node, EdgeAnnotation.pure())
    return out.map_vertex(ca, lambda v: v.append_z(math.pi))


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
            out = chained_fusion_rewrite(out, a, b, 1 if annot.phi > 0 else -1)
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
