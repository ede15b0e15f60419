"""Extended graph-state data model: tilted vertices, weighted edges, partial fusions.

State semantics (the contract the state-vector oracle implements): a graph
represents the state obtained by

  1. preparing every vertex v as cos(tilt_v)|0> + sin(tilt_v)|1>,
  2. applying control-Z across every Pure edge,
  3. applying U_xy(phi) = cos(phi) I + i sin(phi) Z_x Z_y for every Weighted
     edge and P_xy(phi) = cos(phi) I + sin(phi) Z_x Z_y (renormalised) for
     every PartialFusion edge,
  4. applying the recorded per-vertex corrections, innermost first:
     H^hadamard, then X^x_flip, then Z(z_phase) = diag(1, e^{i z_phase}).

Global phases are never tracked; all state comparisons are up to phase.

Correction flags form a small closed algebra under the operations the
procedures actually append (Z rotations and X from byproducts, H from
fusion rewrites); the Vertex append_* methods implement it.  Angles live
in the canonical range (-pi/2, pi/2] (both U and P are pi-periodic up to
global phase, and |theta + pi> = -|theta>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import GraphConfigError, ImpossibleStateError

HALF_PI = 0.5 * math.pi
QUARTER_PI = 0.25 * math.pi
TWO_PI = 2.0 * math.pi

ANGLE_TOL = 1e-12


def canonical_angle(x: float) -> float:
    """Reduce an angle mod pi into (-pi/2, pi/2]."""
    y = math.remainder(float(x), math.pi)
    if y <= -HALF_PI:
        y += math.pi
    return y


def canonical_phase(x: float) -> float:
    """Reduce a diagonal-phase angle mod 2 pi into [0, 2 pi), snapping ~0 to 0."""
    y = math.fmod(float(x), TWO_PI)
    if y < 0.0:
        y += TWO_PI
    if abs(y) < ANGLE_TOL or abs(y - TWO_PI) < ANGLE_TOL:
        y = 0.0
    return y


def is_untilted(theta: float) -> bool:
    """True for theta = +-pi/4, the pure graph-state preparation."""
    return abs(abs(canonical_angle(theta)) - QUARTER_PI) < ANGLE_TOL


# ---------------------------------------------------------------------------
# Vertices and their correction-flag algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vertex:
    """A graph vertex with tilt and recorded local-frame corrections."""

    id: int
    tilt: float = QUARTER_PI
    hadamard: bool = False
    z_phase: float = 0.0
    x_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tilt", canonical_angle(self.tilt))
        object.__setattr__(self, "z_phase", canonical_phase(self.z_phase))

    # -- outermost appends (new correction applied after existing ones) ----

    def append_z(self, alpha: float) -> "Vertex":
        return replace(self, z_phase=canonical_phase(self.z_phase + alpha))

    def append_x(self) -> "Vertex":
        # X Z(phi) = e^{i phi} Z(-phi) X; the global phase is dropped
        return replace(self, z_phase=canonical_phase(-self.z_phase), x_flip=not self.x_flip)

    def absorb_inner_h(self) -> "Vertex":
        """Absorb a Hadamard applied *below* the recorded corrections."""
        return replace(self, hadamard=not self.hadamard)

    def absorb_inner_z(self, alpha: float) -> "Vertex":
        """Absorb a Z(alpha) applied *below* the recorded corrections."""
        if self.hadamard:
            a = canonical_phase(alpha)
            if abs(a) < ANGLE_TOL:
                return self
            if abs(a - math.pi) < ANGLE_TOL:
                # Z(pi) through H becomes X, landing between X^x_flip and H
                return replace(self, x_flip=not self.x_flip)
            raise GraphConfigError(
                f"cannot absorb Z({alpha:.6g}) below a Hadamard flag on vertex {self.id}")
        if self.x_flip:
            alpha = -alpha
        return replace(self, z_phase=canonical_phase(self.z_phase + alpha))

    @property
    def untilted(self) -> bool:
        return is_untilted(self.tilt)


def swap_tilt(theta: float) -> float:
    """The tilt whose branches are theta's swapped: (cos, sin) -> (sin, cos)."""
    return canonical_angle(HALF_PI - theta)


def z_pi_count(g: "TiltedGraph", vids) -> int:
    """Number of Z(pi) flags (branch-sign flips) on the given vertices.

    Any other Z phase, or a Z(pi) under a Hadamard flag, raises GraphConfigError.
    """
    count = 0
    for vid in vids:
        v = g.vertex(vid)
        if abs(v.z_phase) < ANGLE_TOL:
            continue
        if abs(v.z_phase - math.pi) >= ANGLE_TOL:
            raise GraphConfigError(f"vertex {vid}: z_phase {v.z_phase:.6g} is unsupported here")
        if v.hadamard:
            raise GraphConfigError(f"vertex {vid}: z(pi) under a Hadamard flag is unsupported here")
        count += 1
    return count


def branch_amplitudes(tilt: float, x_flip: bool, z_flips: int) -> tuple[float, float]:
    """Amplitudes (cos tilt, sin tilt) after z_flips Z(pi) flags (an odd count
    negates the second), then an X flip (which swaps the two)."""
    alpha, beta = math.cos(tilt), math.sin(tilt)
    if z_flips % 2:
        beta = -beta
    if x_flip:
        alpha, beta = beta, alpha
    return alpha, beta


# ---------------------------------------------------------------------------
# Edge annotations
# ---------------------------------------------------------------------------

class EdgeKind(Enum):
    PURE = "pure"
    WEIGHTED = "weighted"
    PARTIAL = "partial"


@dataclass(frozen=True)
class EdgeAnnotation:
    """Pure control-Z edge, weighted edge U(phi), or partial fusion P(phi)."""

    kind: EdgeKind
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phi", canonical_angle(self.phi) if self.kind is not EdgeKind.PURE else 0.0)

    @staticmethod
    def pure() -> "EdgeAnnotation":
        return _PURE

    @staticmethod
    def weighted(phi: float) -> "EdgeAnnotation":
        return EdgeAnnotation(EdgeKind.WEIGHTED, phi)

    @staticmethod
    def partial_fusion(phi: float) -> "EdgeAnnotation":
        return EdgeAnnotation(EdgeKind.PARTIAL, phi)

    @property
    def maximal(self) -> bool:
        """True when phi = +-pi/4 (rewritable to a pure structure)."""
        return self.kind is not EdgeKind.PURE and abs(abs(self.phi) - QUARTER_PI) < ANGLE_TOL


_PURE = EdgeAnnotation(EdgeKind.PURE)     # frozen, so one instance serves every pure edge


# ---------------------------------------------------------------------------
# Annotation-combination algebra
# ---------------------------------------------------------------------------

def combine_partial_fusions(phi1: float, phi2: float) -> tuple[float, float]:
    """Fold P(phi1) P(phi2) into N_M P(phi); returns (phi, N_M).

    N_M^2 = cos^2(phi1 - phi2) + sin^2(phi1 + phi2); the angle has
    sin(phi) = sin(phi1 + phi2)/N_M with the cosine sign fixed by
    cos(phi1 - phi2)/N_M.  N_M = 0 signals annihilating projectors.
    """
    s = math.sin(phi1 + phi2)
    c = math.cos(phi1 - phi2)
    n_m = math.hypot(s, c)
    if n_m < 1e-12:
        raise ImpossibleStateError(
            f"partial fusions P({phi1:.6g}) and P({phi2:.6g}) annihilate (N_M = 0)")
    return canonical_angle(math.atan2(s, c)), n_m


def combine_weighted_edges(phi1: float, phi2: float) -> float:
    """U(phi1) U(phi2) = U(phi1 + phi2), reduced mod pi."""
    return canonical_angle(phi1 + phi2)


# ---------------------------------------------------------------------------
# The graph
# ---------------------------------------------------------------------------

def _pair(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise GraphConfigError(f"self-edge on vertex {a}")
    return (a, b) if a < b else (b, a)


class TiltedGraph:
    """Immutable-by-convention tilted graph; every edit returns a new graph.

    Edges live in one adjacency map {vid: {neighbour: annotation}}.  Only `edited`
    copies the maps, once per rewrite and only the rows it changes, so a published
    row is never mutated.
    """

    __slots__ = ("_vertices", "_adj")

    def __init__(self, vertices=(), edges=()):
        vmap = {}
        for v in vertices:
            if v.id in vmap:
                raise GraphConfigError(f"duplicate vertex id {v.id}")
            vmap[v.id] = v
        adj = {vid: {} for vid in vmap}
        for a, b, annot in edges:
            key = _pair(a, b)
            if a not in vmap or b not in vmap:
                raise GraphConfigError(f"edge {key} references a missing vertex")
            if b in adj[a]:
                raise GraphConfigError(f"duplicate annotation on edge {key}")
            adj[a][b] = adj[b][a] = annot
        self._vertices = vmap
        self._adj = adj

    # -- queries ------------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._vertices))

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    def vertex(self, vid: int) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise GraphConfigError(f"no vertex {vid}") from None

    def vertices(self):
        return (self._vertices[i] for i in self.vertex_ids)

    def edges(self):
        """(a, b, annotation) with a < b, in sorted (a, b) order."""
        for a in self.vertex_ids:
            row = self._adj[a]
            for b in sorted(row):
                if a < b:
                    yield a, b, row[b]

    def edge(self, a: int, b: int) -> EdgeAnnotation | None:
        _pair(a, b)
        return self._adj.get(a, {}).get(b)

    def neighbors(self, vid: int) -> tuple[int, ...]:
        self.vertex(vid)
        return tuple(sorted(self._adj[vid]))

    def degree(self, vid: int) -> int:
        self.vertex(vid)
        return len(self._adj[vid])

    def components(self) -> tuple[frozenset, ...]:
        seen, comps = set(), []
        for vid in self.vertex_ids:
            if vid not in seen:
                comp = self.component_of(vid)
                seen |= comp
                comps.append(comp)
        return tuple(comps)

    def component_of(self, vid: int) -> frozenset:
        self.vertex(vid)
        comp, stack = {vid}, [vid]
        while stack:
            for nb in self._adj[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        return frozenset(comp)

    # -- copy-on-write edits --------------------------------------------------

    def edited(self, drop=(), vertices=(), edges=()) -> "TiltedGraph":
        """A new graph: the vertices `drop` removed with their edges, then each
        vertex of `vertices` added or replaced, then each (a, b, annotation) of
        `edges` set, or deleted where the annotation is None.  The only edit that
        copies: both top-level maps once, and only the rows it changes."""
        vmap, adj = dict(self._vertices), dict(self._adj)
        own, drop = set(), set(drop)    # own: rows made or copied here, the only ones mutated
        for vid in drop:
            self.vertex(vid)
        for vid in drop:
            del vmap[vid]
            for nb in adj.pop(vid).keys() - drop:
                if nb not in own:
                    own.add(nb)
                    adj[nb] = dict(adj[nb])
                del adj[nb][vid]
        for v in vertices:
            vmap[v.id] = v
            if v.id not in adj:
                own.add(v.id)
                adj[v.id] = {}
        for a, b, annot in edges:
            key = _pair(a, b)
            if annot is None and b not in adj.get(a, ()):
                raise GraphConfigError(f"no edge {key}")
            for u in (a, b):
                if u not in own:
                    if u not in vmap:
                        raise GraphConfigError(f"no vertex {u}")
                    own.add(u)
                    adj[u] = dict(adj[u])
            if annot is None:
                del adj[a][b], adj[b][a]
            else:
                adj[a][b] = adj[b][a] = annot
        g = TiltedGraph.__new__(TiltedGraph)
        g._vertices, g._adj = vmap, adj
        return g

    def with_vertex(self, v: Vertex) -> "TiltedGraph":
        return self.edited(vertices=(v,))

    def map_vertex(self, vid: int, fn) -> "TiltedGraph":
        return self.edited(vertices=(fn(self.vertex(vid)),))

    def without_vertices(self, vids) -> "TiltedGraph":
        return self.edited(drop=vids)

    def with_edge(self, a: int, b: int, annot: EdgeAnnotation) -> "TiltedGraph":
        return self.edited(edges=((a, b, annot),))

    def without_edge(self, a: int, b: int) -> "TiltedGraph":
        return self.edited(edges=((a, b, None),))

    def __eq__(self, other):
        if not isinstance(other, TiltedGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __repr__(self):
        n_edges = sum(map(len, self._adj.values())) // 2
        return f"TiltedGraph({len(self._vertices)} vertices, {n_edges} edges)"

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for v in self.vertices():
            lines.append(f"V {v.id} {v.tilt:.17g} {int(v.hadamard)} {v.z_phase:.17g} {int(v.x_flip)}")
        for a, b, annot in self.edges():
            lines.append(f"E {a} {b} {annot.kind.value} {annot.phi:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TiltedGraph":
        vertices, edges = [], []
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()
            try:
                if tok[0] == "V" and len(tok) == 6:
                    vertices.append(Vertex(int(tok[1]), float(tok[2]), bool(int(tok[3])),
                                           float(tok[4]), bool(int(tok[5]))))
                elif tok[0] == "E" and len(tok) == 5:
                    edges.append((int(tok[1]), int(tok[2]),
                                  EdgeAnnotation(EdgeKind(tok[3]), float(tok[4]))))
                else:
                    raise ValueError(line)
            except (ValueError, KeyError) as exc:
                raise GraphConfigError(f"line {ln}: cannot parse graph record {raw!r}") from exc
        return cls(vertices, edges)


# ---------------------------------------------------------------------------
# GHZ-star structure helpers
# ---------------------------------------------------------------------------

def with_star(g: TiltedGraph, removed, center: Vertex, leaves) -> TiltedGraph:
    """Drop the vertices `removed`, then join `center` to each leaf by a pure edge."""
    removed, leaves, seen = set(removed), tuple(leaves), set()
    for v in (center, *leaves):
        if v.id in seen or (v.id in g._vertices and v.id not in removed):
            raise GraphConfigError(f"duplicate vertex id {v.id}")
        seen.add(v.id)
    pure = EdgeAnnotation.pure()
    return g.edited(removed, (center, *leaves), [(center.id, leaf.id, pure) for leaf in leaves])


def ghz_graph(ids, tilt: float = QUARTER_PI, center: int | None = None) -> TiltedGraph:
    """Star representation of an N-qubit (tilted) GHZ state.

    The centre carries the tilt; every leaf is |+> with a Hadamard flag,
    so the built state is cos(tilt)|0...0> + sin(tilt)|1...1> exactly.
    """
    ids = list(ids)
    if not ids:
        raise GraphConfigError("GHZ piece needs at least one qubit")
    if center is None:
        center = ids[0]
    if center not in ids:
        raise GraphConfigError(f"centre {center} not among ids {ids}")
    leaves = [Vertex(i, QUARTER_PI, hadamard=True) for i in ids if i != center]
    return with_star(TiltedGraph(), (), Vertex(center, tilt), leaves)


def star_center_id(g: TiltedGraph, vid: int) -> int | None:
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


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _fusion_rewrite(g: TiltedGraph, va: Vertex, vb: Vertex, sign: int) -> TiltedGraph:
    """Rewrite a maximal partial fusion P(+-pi/4) between va and vb to pure form.
    va and vb replace g's vertices of their ids (canonical_edge passes them with
    their negative tilts absorbed).

    The inheritor keeps all connections of both endpoints; the other endpoint
    becomes its Hadamard cherry (type-II-fusion redundant encoding).  Odd
    parity adds an X on the cherry and Z(pi) on the cherry's old neighbours.
    Requires untilted, Hadamard-free, flip-free endpoints with pure incident
    edges (the configuration the merge procedure produces).
    """
    vx, vy = (va, vb) if va.id < vb.id else (vb, va)    # deterministic inheritor
    x, y = vx.id, vy.id
    for v in (vx, vy):
        if v.hadamard or v.x_flip or not v.untilted or v.tilt < 0:
            raise GraphConfigError(
                f"fusion rewrite needs plain untilted endpoints, vertex {v.id} is not")
    nx = set(g.neighbors(x)) - {y}
    ny = set(g.neighbors(y)) - {x}
    for end, others in ((x, nx), (y, ny)):
        for n in others:
            if g.edge(end, n).kind is not EdgeKind.PURE:
                raise GraphConfigError(f"fusion rewrite needs pure edges at {end}")
    pure = EdgeAnnotation.pure()
    vy = vy.absorb_inner_h()
    vertices = [vx, vy.append_x() if sign < 0 else vy]
    if sign < 0:
        # the parity correction arises below n's recorded corrections
        vertices += [g.vertex(n).absorb_inner_z(math.pi) for n in ny]
    # y keeps x alone; x gains y's other neighbours, and shared ones cancel (CZ^2 = 1)
    edges = ([(y, n, None) for n in ny] + [(x, n, None) for n in nx & ny]
             + [(x, n, pure) for n in ny - nx] + [(x, y, pure)])
    return g.edited(vertices=vertices, edges=edges)


def _nonnegative_tilt(v: Vertex) -> Vertex:
    """v, or with a negative tilt absorbed as a Z(pi) (an X below a Hadamard flag)."""
    return replace(v, tilt=-v.tilt).absorb_inner_z(math.pi) if v.tilt < 0 else v


def canonical_edge(g: TiltedGraph, a: int, b: int) -> TiltedGraph:
    """Rewrite the edge (a, b) to pure form if its current annotation is maximal,
    after its endpoints' negative tilts absorb a Z(pi); any other edge leaves g as
    it is.  A maximal weighted edge becomes pure with S-phase corrections (unless
    an endpoint carries a Hadamard flag), a maximal partial fusion pure fused
    structure."""
    annot = g.edge(a, b)
    if annot is None or not annot.maximal:
        return g
    va, vb = _nonnegative_tilt(g.vertex(a)), _nonnegative_tilt(g.vertex(b))
    sgn = 1 if annot.phi > 0 else -1
    if annot.kind is EdgeKind.PARTIAL:
        return _fusion_rewrite(g, va, vb, sgn)
    if va.hadamard or vb.hadamard:
        return g.edited(vertices=(va, vb))      # S corrections cannot pass a Hadamard flag
    return g.edited(vertices=[v.absorb_inner_z(-sgn * HALF_PI) for v in (va, vb)],
                    edges=((a, b, EdgeAnnotation.pure()),))


def canonicalize(g: TiltedGraph) -> TiltedGraph:
    """Return the canonical form of a graph (same physical state up to phase):
    tilts mapped into [0, pi/2], then canonical_edge on every edge.  Idempotent."""
    out = g.edited(vertices=map(_nonnegative_tilt, g.vertices()))
    for a, b, _ in list(out.edges()):
        out = canonical_edge(out, a, b)
    return out
