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
        return EdgeAnnotation(EdgeKind.PURE)

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

    Edges live in one adjacency map {vid: {neighbour: annotation}}; edits copy
    only the rows they change and never mutate a published row.
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

    def _clone(self) -> "TiltedGraph":
        g = TiltedGraph.__new__(TiltedGraph)
        g._vertices = dict(self._vertices)
        g._adj = dict(self._adj)
        return g

    def with_vertex(self, v: Vertex) -> "TiltedGraph":
        g = self._clone()
        g._vertices[v.id] = v
        g._adj.setdefault(v.id, {})
        return g

    def map_vertex(self, vid: int, fn) -> "TiltedGraph":
        return self.with_vertex(fn(self.vertex(vid)))

    def without_vertices(self, vids) -> "TiltedGraph":
        vids = set(vids)
        for vid in vids:
            self.vertex(vid)
        g = TiltedGraph.__new__(TiltedGraph)
        g._vertices = {k: v for k, v in self._vertices.items() if k not in vids}
        g._adj = {k: row for k, row in self._adj.items() if k not in vids}
        for nb in {nb for vid in vids for nb in self._adj[vid]} - vids:
            g._adj[nb] = {k: a for k, a in g._adj[nb].items() if k not in vids}
        return g

    def with_edge(self, a: int, b: int, annot: EdgeAnnotation) -> "TiltedGraph":
        _pair(a, b)
        self.vertex(a), self.vertex(b)
        g = self._clone()
        g._adj[a] = {**self._adj[a], b: annot}
        g._adj[b] = {**self._adj[b], a: annot}
        return g

    def without_edge(self, a: int, b: int) -> "TiltedGraph":
        key = _pair(a, b)
        if self.edge(a, b) is None:
            raise GraphConfigError(f"no edge {key}")
        g = self._clone()
        g._adj[a] = {k: x for k, x in self._adj[a].items() if k != b}
        g._adj[b] = {k: x for k, x in self._adj[b].items() if k != a}
        return g

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
    out = g.without_vertices(removed)     # fresh maps: safe to extend here
    leaves = tuple(leaves)
    for v in (center, *leaves):
        if v.id in out._vertices:
            raise GraphConfigError(f"duplicate vertex id {v.id}")
        out._vertices[v.id] = v
    pure = EdgeAnnotation.pure()
    out._adj[center.id] = {leaf.id: pure for leaf in leaves}
    for leaf in leaves:
        out._adj[leaf.id] = {center.id: pure}
    return out


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


def star_center_id(g: TiltedGraph, comp: frozenset) -> int:
    """The centre of a GHZ-star component (raises if the shape is not a star)."""
    comp = frozenset(comp)
    if len(comp) == 1:
        return next(iter(comp))
    centers = [vid for vid in comp if not g.vertex(vid).hadamard]
    if len(centers) != 1:
        raise GraphConfigError(f"component {sorted(comp)} is not a GHZ star (centres: {centers})")
    c = centers[0]
    for vid in comp:
        if vid == c:
            continue
        v = g.vertex(vid)
        if g.neighbors(vid) != (c,) or not v.hadamard or not v.untilted:
            raise GraphConfigError(f"component {sorted(comp)} is not a GHZ star at vertex {vid}")
        if g.edge(c, vid).kind is not EdgeKind.PURE:
            raise GraphConfigError(f"component {sorted(comp)} has a non-pure star edge")
    return c


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def _fusion_rewrite(g: TiltedGraph, a: int, b: int, sign: int) -> TiltedGraph:
    """Rewrite a maximal partial fusion P(+-pi/4) between a and b to pure form.

    The inheritor keeps all connections of both endpoints; the other endpoint
    becomes its Hadamard cherry (type-II-fusion redundant encoding).  Odd
    parity adds an X on the cherry and Z(pi) on the cherry's old neighbours.
    Requires untilted, Hadamard-free, flip-free endpoints with pure incident
    edges (the configuration the merge procedure produces).
    """
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
            # the parity correction arises below n's recorded corrections
            out = out.map_vertex(n, lambda v: v.absorb_inner_z(math.pi))
    return out


def canonicalize(g: TiltedGraph) -> TiltedGraph:
    """Return the canonical form of a graph (same physical state up to phase).

    Tilts are mapped into [0, pi/2] (negative tilts absorb a Z(pi), or an X
    below a Hadamard flag); maximal weighted edges become pure edges with
    S-phase corrections; maximal partial fusions become pure fused structure.
    Idempotent.
    """
    out = g
    for vid in g.vertex_ids:
        v = out.vertex(vid)
        if v.tilt < 0:
            out = out.with_vertex(replace(v, tilt=-v.tilt).absorb_inner_z(math.pi))
    for a, b, annot in list(out.edges()):
        if annot.kind is EdgeKind.WEIGHTED and annot.maximal:
            sgn = 1 if annot.phi > 0 else -1
            va, vb = out.vertex(a), out.vertex(b)
            if va.hadamard or vb.hadamard:
                continue        # S corrections cannot pass a Hadamard flag
            out = out.with_edge(a, b, EdgeAnnotation.pure())
            out = out.map_vertex(a, lambda v: v.absorb_inner_z(-sgn * HALF_PI))
            out = out.map_vertex(b, lambda v: v.absorb_inner_z(-sgn * HALF_PI))
        elif annot.kind is EdgeKind.PARTIAL and annot.maximal:
            sgn = 1 if annot.phi > 0 else -1
            out = _fusion_rewrite(out, a, b, sgn)
    return out
