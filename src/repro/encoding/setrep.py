"""Set representations for negated inclusion constraints (Theorem 5.1).

Cardinalities alone cannot express ``tau_i.l_i ⊄ tau_j.l_j`` — it speaks
about *set difference*, not sizes. The paper extends the system with
matrices ``U = (u_ij)``, ``V = (v_ij)`` intended as
``u_ij = |ext(tau_i.l_i) ∩ ext(tau_j.l_j)|`` and
``v_ij = |ext(tau_i.l_i) \\ ext(tau_j.l_j)|``, requires

* ``|ext(tau_i.l_i)| = u_ii = u_ij + v_ij`` for all ``i, j``;
* ``v_ij = 0`` for each inclusion ``i ⊆ j`` in Sigma (and ``v_ii = 0``);
* ``v_ij >= 1`` for each negated inclusion ``i ⊄ j``,

and demands that ``U, V`` admit a **set representation** (finite sets
``A_1..A_n`` realizing them). Lemma 5.3 shows this is equivalent to the
solvability of the extension ``Psi'`` with one variable ``z_theta`` per
nonempty ``theta ⊆ {1..n}`` — ``z_theta`` counts the values lying in
exactly the sets ``{A_i : theta(i) = 1}`` — via

    u_ij = sum of z_theta with theta(i) = theta(j) = 1,
    v_ij = sum of z_theta with theta(i) = 1, theta(j) = 0.

We solve ``Psi'`` directly: it is exponential only in the number of
*active* attribute pairs (those occurring in an inclusion or negated
inclusion), which is small in practice and capped explicitly. A feasible
``z`` assignment *is* a set representation, which the witness synthesizer
turns into concrete attribute values (Lemma 5.2).

For fidelity, this module also provides the paper's intersection-pattern
machinery: :func:`build_uv_matrices`, the ``2n x 2n`` matrix ``W`` of
Theorem 5.1, and a decision procedure :func:`has_set_representation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.constraints.ast import Constraint, InclusionConstraint, NegInclusion
from repro.encoding.cardinality import attr_var
from repro.errors import ComplexityLimitError
from repro.ilp.model import LinearSystem, VarId


def z_var(mask: int) -> VarId:
    """The ``z_theta`` variable for the membership bitmask ``theta``."""
    return ("z", mask)


@dataclass
class SetRepBlock:
    """Bookkeeping for a built ``z_theta`` block.

    ``pairs`` lists the active attribute pairs in index order; bit ``i`` of
    a mask corresponds to ``pairs[i]``.  ``rows_of`` records the stable row
    indices each (negated) inclusion contributed — its part of the toggle
    registry (the ``setrep-card`` rows depend only on the pair set and are
    never toggleable).
    """

    pairs: tuple[tuple[str, str], ...]
    rows_of: dict[Constraint, tuple[int, ...]] = field(default_factory=dict)

    @property
    def num_masks(self) -> int:
        return (1 << len(self.pairs)) - 1

    def index_of(self, tau: str, attr: str) -> int:
        return self.pairs.index((tau, attr))

    def masks_with(self, bit: int) -> list[int]:
        """All nonempty masks with ``bit`` set."""
        return [m for m in range(1, (1 << len(self.pairs))) if m >> bit & 1]

    def masks_with_without(self, bit_in: int, bit_out: int) -> list[int]:
        """All nonempty masks with ``bit_in`` set and ``bit_out`` clear."""
        return [
            m
            for m in range(1, (1 << len(self.pairs)))
            if (m >> bit_in & 1) and not (m >> bit_out & 1)
        ]


def active_pairs(
    inclusions: Sequence[InclusionConstraint],
    neg_inclusions: Sequence[NegInclusion],
) -> tuple[tuple[str, str], ...]:
    """Attribute pairs occurring in any (negated) inclusion constraint."""
    seen: list[tuple[str, str]] = []

    def add(tau: str, attr: str) -> None:
        pair = (tau, attr)
        if pair not in seen:
            seen.append(pair)

    for inc in inclusions:
        add(inc.child_type, inc.child_attrs[0])
        add(inc.parent_type, inc.parent_attrs[0])
    for neg in neg_inclusions:
        add(neg.child_type, neg.child_attr)
        add(neg.parent_type, neg.parent_attr)
    return tuple(seen)


def encode_set_representation(
    system: LinearSystem,
    inclusions: Sequence[InclusionConstraint],
    neg_inclusions: Sequence[NegInclusion],
    max_active: int = 12,
) -> SetRepBlock:
    """Add the ``z_theta`` block tying ``|ext(tau.l)|`` to set membership.

    Only called when negated inclusions are present. Raises
    :class:`ComplexityLimitError` beyond ``max_active`` active pairs (the
    block has ``2^n - 1`` variables; the problem is NP-complete, so some
    cap is inevitable — raise it explicitly for larger instances).
    """
    pairs = active_pairs(inclusions, neg_inclusions)
    if len(pairs) > max_active:
        raise ComplexityLimitError(
            f"{len(pairs)} attribute pairs occur in (negated) inclusion "
            f"constraints; the set-representation block is exponential and "
            f"capped at {max_active} (override with max_setrep_attrs)"
        )
    block = SetRepBlock(pairs)

    # |ext(tau_i.l_i)| = u_ii = sum of z over masks containing i.
    for i, (tau, attr) in enumerate(pairs):
        coeffs: dict[VarId, int] = {attr_var(tau, attr): 1}
        for mask in block.masks_with(i):
            coeffs[z_var(mask)] = -1
        system.add_eq(coeffs, 0, label=f"setrep-card:{tau}.{attr}")

    # v_ij = 0 for inclusions i ⊆ j (v_ii = 0 holds by construction:
    # no mask has bit i both set and clear).
    for inc in inclusions:
        i = block.index_of(inc.child_type, inc.child_attrs[0])
        j = block.index_of(inc.parent_type, inc.parent_attrs[0])
        if i == j:
            continue
        coeffs = {z_var(mask): 1 for mask in block.masks_with_without(i, j)}
        if coeffs:
            row = system.add_eq(coeffs, 0, label=f"setrep-ic:{inc}")
            block.rows_of[inc] = block.rows_of.get(inc, ()) + (row,)

    # v_ij >= 1 for negated inclusions i ⊄ j.
    for neg in neg_inclusions:
        i = block.index_of(neg.child_type, neg.child_attr)
        j = block.index_of(neg.parent_type, neg.parent_attr)
        if i == j:
            # tau.l ⊄ tau.l is unsatisfiable: force 0 >= 1.
            row = system.add_ge({}, 1, label=f"setrep-negic-self:{neg}")
            block.rows_of[neg] = block.rows_of.get(neg, ()) + (row,)
            continue
        coeffs = {z_var(mask): 1 for mask in block.masks_with_without(i, j)}
        row = system.add_ge(coeffs, 1, label=f"setrep-negic:{neg}")
        block.rows_of[neg] = block.rows_of.get(neg, ()) + (row,)

    return block


# ---------------------------------------------------------------------------
# Paper-faithful intersection-pattern machinery (Theorem 5.1)
# ---------------------------------------------------------------------------


def build_uv_matrices(sets: Sequence[frozenset[str] | set[str]]):
    """``U, V`` matrices of a family of finite sets.

    ``u_ij = |A_i ∩ A_j|``, ``v_ij = |A_i \\ A_j|`` — the intended
    interpretation in Theorem 5.1.
    """
    n = len(sets)
    u = [[0] * n for _ in range(n)]
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            u[i][j] = len(set(sets[i]) & set(sets[j]))
            v[i][j] = len(set(sets[i]) - set(sets[j]))
    return u, v


def build_intersection_pattern_matrix(
    u: Sequence[Sequence[int]], v: Sequence[Sequence[int]], big_k: int
):
    """The ``2n x 2n`` matrix ``W`` from the proof of Theorem 5.1.

    ``W`` is an intersection pattern iff ``U, V`` admit a set
    representation inside a universe of size ``big_k`` (the proof picks
    ``K = M * n`` for the solution bound ``M``).
    """
    n = len(u)
    w = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(2 * n):
            if i < n and j < n:
                w[i][j] = u[i][j]
            elif i < n <= j:
                w[i][j] = v[i][j - n]
            elif j < n <= i:
                w[i][j] = v[j][i - n]
            else:
                a, b = i - n, j - n
                w[i][j] = big_k - u[a][b] - v[a][b] - v[b][a]
    return w


def has_set_representation(
    u: Sequence[Sequence[int]], v: Sequence[Sequence[int]], max_active: int = 12
) -> bool:
    """Do ``U, V`` admit a set representation? (Lemma 5.3 check.)

    Decided by solving the ``z_theta`` system for the given matrices —
    small inputs only (exponential in ``n``). Uses the fast backend with
    certified fallback on numerical doubt.
    """
    from repro.ilp.assembled import AssembledSystem
    from repro.ilp.exact import solve_exact

    n = len(u)
    if n > max_active:
        raise ComplexityLimitError(
            f"set-representation check capped at {max_active} sets, got {n}"
        )
    system = LinearSystem()
    for i in range(n):
        for j in range(n):
            coeffs_u: dict[VarId, int] = {}
            coeffs_v: dict[VarId, int] = {}
            for mask in range(1, 1 << n):
                if mask >> i & 1 and mask >> j & 1:
                    coeffs_u[z_var(mask)] = 1
                if mask >> i & 1 and not (mask >> j & 1):
                    coeffs_v[z_var(mask)] = 1
            system.add_eq(coeffs_u, u[i][j], label=f"u[{i}][{j}]")
            system.add_eq(coeffs_v, v[i][j], label=f"v[{i}][{j}]")
    result = AssembledSystem(system).solve_int({})
    if result.status == "error":
        result = solve_exact(system)
    return result.feasible


def extract_sets(
    block: SetRepBlock, values: Mapping[VarId, int], prefix: str = "v"
) -> dict[tuple[str, str], list[str]]:
    """Concrete value sets realizing a feasible ``z`` assignment.

    Returns, per active pair, the list of value tokens forming ``A_i``;
    tokens are shared across pairs exactly according to mask membership,
    so intersections and differences match ``U, V`` by construction.
    """
    tokens: dict[int, list[str]] = {}
    for mask in range(1, (1 << len(block.pairs))):
        count = values.get(z_var(mask), 0)
        if count > 0:
            tokens[mask] = [f"{prefix}{mask}_{t}" for t in range(count)]
    sets: dict[tuple[str, str], list[str]] = {}
    for i, pair in enumerate(block.pairs):
        members: list[str] = []
        for mask, names in tokens.items():
            if mask >> i & 1:
                members.extend(names)
        sets[pair] = members
    return sets
