"""Offspring laws with within-group dependence and their random environments.

A sibling group of size i reproduces as one unit: the joint child counts of its
i members follow an exchangeable law on {0..N}^i, where N caps the litter size
of a single member.  Exchangeability means only the multiset of counts matters,
so laws are stored on canonical (non-decreasing) tuples, each carrying the total
weight of its permutation orbit.  An Environment bundles one law per group size
1..N; an EnvironmentEnsemble is a finite mixture of environments, one drawn
independently per generation.

The joint generating function phi_i of a size-i group's child-group counts
gives a child count of zero the factor 1; the library evaluates it only in
survival form, and its plain power form is a reference in tests/oracles.py.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import EnsembleFormatError, InvalidLawError
from .records import Record

# Probability data must balance to this tolerance before the single
# renormalization applied at construction time.
VALIDATION_TOL = 1e-12

# Steps whose gather positions a blocked kernel forms at once, here and in
# spectral._indexed_log_norms; longer blocks cost more in working set than they save.
_BLOCK = 8

# Uniforms that _uniform_blocks draws at a time: 128 kB of float64, which
# stays in cache, so a draw never holds a float64 array of all its uniforms.
# Smaller blocks pay their per-call cost too often: at 8,192, a 512 x 512
# member draw took about 7% longer than one call over all its uniforms.
_DRAW_BLOCK = 16384


def _uniform_blocks(rng: np.random.Generator, size: int):
    """Yield (start, u): rng.random(size) as consecutive blocks of at most
    _DRAW_BLOCK uniforms, each drawn into one reused buffer with
    rng.random(out=...).  A uniform takes one output of the bit generator
    whatever the block, so the blocks hold the values of the one call, in
    its order, and leave the generator in the same state."""
    buf = np.empty(min(size, _DRAW_BLOCK))
    for start in range(0, size, _DRAW_BLOCK):
        u = buf[:size - start]
        rng.random(out=u)
        yield start, u


@dataclass(frozen=True)
class SiblingLaw:
    """Joint offspring law for one sibling-group size.

    atoms pairs canonical non-decreasing count tuples with the total
    probability of their orbit under coordinate permutation.  Construction
    owns the atom shape (arity, integer entries, canonical order, no
    duplicates), with messages that start at the position, "atoms[0].tuple:
    ..."; numeric soundness is checked by validate_sibling_law.
    """

    group_size: int
    order: int
    atoms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if not isinstance(self.group_size, int) or self.group_size < 1:
            raise ValueError(f"group_size: must be a positive integer, got {self.group_size!r}")
        if not isinstance(self.order, int) or self.order < 1:
            raise ValueError(f"order: must be a positive integer, got {self.order!r}")
        if self.group_size > self.order:
            raise ValueError(f"group_size: {self.group_size} exceeds order {self.order}; "
                             "groups cannot outgrow the per-member litter cap")
        items, seen = [], set()
        for a, (t, w) in enumerate(self.atoms):
            where = f"atoms[{a}].tuple"
            if len(t) != self.group_size:
                raise ValueError(f"{where}: arity {len(t)} does not match "
                                 f"group_size {self.group_size}")
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in t):
                raise ValueError(f"{where}: entries must be integers, got {reprlib.repr(t)}")
            t = tuple(int(v) for v in t)
            if any(t[r] > t[r + 1] for r in range(len(t) - 1)):
                raise ValueError(f"{where}: {list(t)} is not canonical "
                                 "(entries must be non-decreasing)")
            if t in seen:
                raise ValueError(f"{where}: duplicate atom {list(t)}")
            seen.add(t)
            items.append((t, float(w)))
        if not items:
            raise ValueError("atoms: a sibling law needs at least one atom")
        items.sort(key=lambda kv: kv[0])
        object.__setattr__(self, "atoms", tuple(items))

    # -- structural views -------------------------------------------------

    @property
    def atom_count(self) -> int:
        return len(self.atoms)

    def weight_sum(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def normalized(self) -> "SiblingLaw":
        total = self.weight_sum()
        if not (total > 0.0):
            raise InvalidLawError(
                f"law for group size {self.group_size} has non-positive total weight {total}"
            )
        return SiblingLaw(
            self.group_size, self.order,
            tuple((t, w / total) for t, w in self.atoms),
        )

    # -- numeric views (valid laws only) ----------------------------------

    def weight_array(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def count_matrix(self) -> np.ndarray:
        """Value multiplicities: row a, column v = how many entries of atom a equal v."""
        mat = np.zeros((len(self.atoms), self.order + 1), dtype=np.int64)
        for a, (t, _) in enumerate(self.atoms):
            for v in t:
                mat[a, v] += 1
        return mat


@dataclass(frozen=True)
class ValidationReport(Record):
    """Outcome of the numeric checks on one sibling law."""

    group_size: int
    atom_count: int
    weight_sum: float
    normalization_defect: float
    out_of_range: tuple[tuple[int, tuple[int, ...]], ...]
    negative_weights: tuple[tuple[int, float], ...]
    nonfinite_weights: tuple[tuple[int, float], ...]

    @property
    def ok(self) -> bool:
        return (
            self.normalization_defect <= VALIDATION_TOL
            and not self.out_of_range
            and not self.negative_weights
            and not self.nonfinite_weights
        )

    def defect_lines(self) -> list[str]:
        lines = []
        if self.normalization_defect > VALIDATION_TOL:
            lines.append(
                f"weights sum to {self.weight_sum!r}; defect "
                f"{self.normalization_defect:.3e} exceeds {VALIDATION_TOL:.0e}"
            )
        for idx, t in self.out_of_range:
            lines.append(f"atom {idx} {t} has entries outside 0..order")
        for idx, w in self.negative_weights:
            lines.append(f"atom {idx} has negative weight {w!r}")
        for idx, w in self.nonfinite_weights:
            lines.append(f"atom {idx} has non-finite weight {w!r}")
        return lines

    def to_dict(self) -> dict:
        return {**super().to_dict(), "ok": self.ok}


def validate_sibling_law(law: SiblingLaw) -> ValidationReport:
    """Check weights and entry ranges without mutating the law."""
    out_of_range = []
    negative = []
    nonfinite = []
    total = 0.0
    for idx, (t, w) in enumerate(law.atoms):
        if any(v < 0 or v > law.order for v in t):
            out_of_range.append((idx, t))
        if not math.isfinite(w):
            nonfinite.append((idx, w))
        elif w < 0.0:
            negative.append((idx, w))
        total += w
    defect = abs(total - 1.0) if math.isfinite(total) else math.inf
    return ValidationReport(
        group_size=law.group_size,
        atom_count=law.atom_count,
        weight_sum=total,
        normalization_defect=defect,
        out_of_range=tuple(out_of_range),
        negative_weights=tuple(negative),
        nonfinite_weights=tuple(nonfinite),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _build_phi_tables(members: Sequence["Environment"]) -> tuple[np.ndarray, np.ndarray]:
    """Tables that evaluate every member's phi_i at once.

    Column k of `counts` (N, keys) is one of the members' deduplicated atom
    child-count rows, so log(s) @ counts is the log of every monomial.
    Entry (k, m*N + i-1) of `table` is key k's weight in member m's size-i law.
    Both are C-contiguous: matmul by a transposed `counts` runs 2-4x slower.
    """
    child = [c for env in members for c in env._atom_child_counts]
    weights = [w for env in members for w in env._atom_weights]
    keys, key = np.unique(np.concatenate(child), axis=0, return_inverse=True)
    law = np.repeat(np.arange(len(child)), [w.shape[0] for w in weights])
    table = np.zeros((keys.shape[0], len(child)))
    table[key.reshape(-1), law] = np.concatenate(weights)
    return _frozen(np.ascontiguousarray(keys.T, dtype=float)), _frozen(table)


@dataclass(frozen=True)
class Environment:
    """One complete reproduction regime: a sibling law for every group size 1..N.

    Laws are validated on construction and renormalized exactly once.  Derived
    tables (marginals, pair marginals, atom weights and child counts) are cached
    as read-only arrays, so instances are safe to share across worker threads.
    """

    order: int
    laws: tuple[SiblingLaw, ...]
    label: str = ""

    def __post_init__(self):
        by_size: dict[int, SiblingLaw] = {}
        for law in self.laws:
            if law.group_size in by_size:
                raise ValueError(f"duplicate law for group size {law.group_size}")
            if law.order != self.order:
                raise ValueError(
                    f"law for group size {law.group_size} has order {law.order}, "
                    f"environment has order {self.order}"
                )
            by_size[law.group_size] = law
        if len(by_size) < self.order:   # sizes lie in 1..order: the gaps are missing
            ends = [0, *sorted(by_size), self.order + 1]
            gaps = [f"{a + 1}" + (f"..{b - 1}" if b - a > 2 else "")
                    for a, b in zip(ends, ends[1:]) if b - a > 1]
            more = f" and {len(gaps) - 4} more ranges" if len(gaps) > 4 else ""
            raise ValueError(f"missing laws for group sizes {', '.join(gaps[:4])}{more}")

        reports = {i: validate_sibling_law(by_size[i]) for i in by_size}
        bad = {i: r for i, r in reports.items() if not r.ok}
        if bad:
            detail = "; ".join(
                f"group size {i}: " + "; ".join(r.defect_lines()) for i, r in bad.items()
            )
            raise InvalidLawError(
                f"environment {self.label or '<unnamed>'} rejected: {detail}",
                report=reports,
            )

        laws = tuple(by_size[i].normalized() for i in range(1, self.order + 1))
        object.__setattr__(self, "laws", laws)

        n = self.order
        marg = np.zeros((n, n + 1))
        pair = np.full((n, n + 1, n + 1), np.nan)
        weights = []
        child_counts = []
        for i, law in enumerate(laws, start=1):
            w = law.weight_array()
            c = law.count_matrix()
            marg[i - 1] = (w @ c) / i
            if i >= 2:
                second = (c.T * w) @ c - np.diag(w @ c)
                pair[i - 1] = second / (i * (i - 1))
            weights.append(_frozen(w))
            child_counts.append(_frozen(c[:, 1:]))
        object.__setattr__(self, "_marginals", _frozen(marg))
        object.__setattr__(self, "_pairs", _frozen(pair))
        object.__setattr__(self, "_atom_weights", tuple(weights))
        object.__setattr__(self, "_atom_child_counts", tuple(child_counts))

    # -- bookkeeping -------------------------------------------------------

    @cached_property
    def _sibship_counts(self) -> tuple[np.ndarray, ...]:
        """Per group size, row a column k-1: members of atom a with k children.

        Counted straight from the raw atom tuples rather than from the cached
        count matrices, so coupled simulations can check one bookkeeping
        against the other.  Built on first use, then shared.
        """
        tables = []
        for law in self.laws:
            by_value = np.zeros((law.atom_count, self.order), dtype=np.int64)
            for a, (combo, _) in enumerate(law.atoms):
                for c in combo:
                    if c >= 1:
                        by_value[a, c - 1] += 1
            tables.append(_frozen(by_value))
        return tuple(tables)

    def _check_size(self, i: int):
        if not 1 <= i <= self.order:
            raise IndexError(f"group size {i} outside 1..{self.order}")

    def _check_child(self, j: int):
        if not 0 <= j <= self.order:
            raise IndexError(f"child count {j} outside 0..{self.order}")

    # -- marginals ---------------------------------------------------------

    def marginal(self, i: int, j: int) -> float:
        """Probability that one member of a size-i group has exactly j children."""
        self._check_size(i)
        self._check_child(j)
        return float(self._marginals[i - 1, j])

    def pair_marginal(self, i: int, j: int, k: int) -> float:
        """Joint child counts (j, k) of two distinct members of a size-i group."""
        self._check_size(i)
        if i < 2:
            raise ValueError("pair marginals need a group of size at least 2")
        self._check_child(j)
        self._check_child(k)
        return float(self._pairs[i - 1, j, k])

    # -- generating functions ---------------------------------------------

    def phi_map(self, s_rows: np.ndarray) -> np.ndarray:
        """Apply every phi_i to a batch of points; rows are points, columns types.

        1 - survival_step(1 - s) on a one-member ensemble: the quenched
        kernel in extinction form.  Assumes rows already lie in the unit box.
        """
        s = np.asarray(s_rows, dtype=float)
        alone = EnvironmentEnsemble((self,), np.array([1.0]), label=self.label)
        return 1.0 - alone.survival_step(1.0 - s, np.zeros(s.shape[0], dtype=np.intp))


@dataclass(frozen=True)
class ParticleTable:
    """Per-law particle data; law m * N + i - 1 is member m's size-i law."""

    weights: tuple[np.ndarray, ...]
    pvals: np.ndarray                # (members, N, 1, P) atom weights, zero-padded in front
    children: np.ndarray             # (members, N, P, N) child-group counts, padded alike
    coupled: tuple[tuple, ...]       # per law and atom: [child-group counts | sibship counts]
    type_sizes: np.ndarray           # (N,) group size of each type
    members: np.ndarray              # (members, 1, 1) member ids, as member_index types them


@dataclass(frozen=True)
class EnvironmentEnsemble:
    """Finite mixture of environments; one member is drawn per generation."""

    members: tuple[Environment, ...]
    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        orders = {env.order for env in self.members}
        if len(orders) != 1:
            raise ValueError(f"members disagree on order: {sorted(orders)}")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != len(self.members):
            raise ValueError(
                f"{len(self.members)} members but {w.shape[0]} weights"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("ensemble weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("ensemble weights must be nonnegative")
        defect = abs(w.sum() - 1.0)
        if defect > VALIDATION_TOL:
            raise ValueError(
                f"ensemble weights sum to {w.sum()!r}; defect {defect:.3e} "
                f"exceeds {VALIDATION_TOL:.0e}"
            )
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "weights", _frozen(w / w.sum()))
        # The member CDF as Generator.choice builds it, less its last entry:
        # that one is exactly 1.0 and exceeds every uniform.  Counting the
        # thresholds at or below u gives searchsorted(side="right") on the
        # full CDF, so draws match rng.choice(size, p=weights).
        cdf = self.weights.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_thresholds", tuple(cdf[:-1].tolist()))

    @property
    def order(self) -> int:
        return self.members[0].order

    @property
    def size(self) -> int:
        return len(self.members)

    def member_index(self, u: np.ndarray) -> np.ndarray:
        """The members that Generator.choice with the ensemble weights picks
        for uniforms u: per uniform, the count of thresholds at or below it,
        one pass per threshold, in the narrowest unsigned type (uint8 up to
        256 members).  The first pass's booleans, one byte of 0 or 1 each,
        are viewed as the uint8 count, so it needs no zero fill and no add."""
        dtype = np.min_scalar_type(self.size - 1)
        if not self._thresholds:
            return np.zeros(u.shape, dtype=dtype)
        first, *rest = self._thresholds
        idx = (u >= first).view(np.uint8).astype(dtype, copy=False)
        for c in rest:
            np.add(idx, u >= c, out=idx)
        return idx

    def sample_index_array(self, shape, rng: np.random.Generator) -> np.ndarray:
        """member_index(rng.random(shape)), with the same indices and the same
        final generator state, indexed block by block from _uniform_blocks:
        beside the index it holds one block of uniforms, not all of them."""
        idx = np.empty(shape, dtype=np.min_scalar_type(self.size - 1))
        flat = idx.reshape(-1)
        for start, u in _uniform_blocks(rng, flat.size):
            flat[start:start + u.size] = self.member_index(u)
        return idx

    @cached_property
    def _phi_tables(self) -> tuple[np.ndarray, np.ndarray]:
        return _build_phi_tables(self.members)

    @cached_property
    def _particle_table(self) -> ParticleTable:
        weights = tuple(w for env in self.members for w in env._atom_weights)
        child = [c for env in self.members for c in env._atom_child_counts]
        sibship = [s for env in self.members for s in env._sibship_counts]
        coupled = tuple(tuple(map(tuple, np.hstack(p).tolist())) for p in zip(child, sibship))
        # Zeros in front, never behind: a leading zero weight is a binomial
        # with p = 0, which draws nothing and leaves the remaining mass at
        # exactly 1, while a trailing one would make the last atom a draw.
        n, width = self.order, max(w.shape[0] for w in weights)
        pvals = np.zeros((self.size, n, 1, width))
        children = np.zeros((self.size, n, width, n), dtype=np.int64)
        for law, (w, c) in enumerate(zip(weights, child)):
            m, k = divmod(law, n)
            pvals[m, k, 0, width - w.shape[0]:] = w
            children[m, k, width - c.shape[0]:] = c
        ids = np.arange(self.size, dtype=np.min_scalar_type(self.size - 1))
        return ParticleTable(weights, _frozen(pvals), _frozen(children), coupled,
                             _frozen(np.arange(1, n + 1)), _frozen(ids.reshape(-1, 1, 1)))

    def survival_step(self, q_rows: np.ndarray, member_idx: np.ndarray) -> np.ndarray:
        """One backward generation in survival form: row r becomes
        1 - phi(1 - q_r) under member member_idx[r]; one step of _survival_loop.
        An index outside [0, size) would gather another row's maps, so it raises."""
        idx = np.asarray(member_idx)
        _check_member_indices(idx, self.size)
        state = np.negative(q_rows, dtype=float, order="C")
        return 0.0 - self._survival_loop(state, idx[:, None])

    def _survival_loop(self, state: np.ndarray, member_idx: np.ndarray) -> np.ndarray:
        """Compose q -> 1 - phi(1 - q) backward over the columns of member_idx,
        the last first, on state = -q, which it overwrites and returns.

        Weights sum to 1 per law, so 1 - phi_i(s) = sum_k w_ik (1 - s^key_k),
        and -expm1(log1p(-q) @ counts) @ table keeps small survival accurate
        where 1 - phi would cancel.  Negation is exact, so the loop carries
        -q with no negation pass: log1p(state), and expm1(...) @ table is the
        next -q bit for bit, up to the sign of a zero.  The matrix product
        sums a row of zero terms to +0.0, so callers read a survival back as
        0.0 - state, which gives +0.0 for a survival of exactly 0 as the
        plain step does, where -state would give -0.0.  The logs are
        floored, since -inf * 0 is NaN inside a matrix product; fmax also
        floors the NaN of a q an ulp above 1.  Every member's maps run on
        every row and each row gathers its member's.  Gather positions are
        formed for _BLOCK generations at once, and every step writes into
        buffers made once per call, so concurrent calls share nothing.  The
        gather runs in "wrap" mode, which leaves an index in range as it is
        and, unlike the default "raise", writes straight into state instead
        of through a temporary copy.  It checks no index: survival_step
        checks its own, and every other caller draws its indices with
        member_index or builds them from the members, so they lie in
        [0, size) by construction.
        """
        rows, length = member_idx.shape
        counts, table = self._phi_tables
        logs = np.empty((rows, self.order))
        monomials = np.empty((rows, counts.shape[1]))
        every = np.empty((rows, table.shape[1]))
        take = every.reshape(rows * self.size, self.order).take
        offsets = np.arange(rows) * self.size
        pos = np.empty((_BLOCK, rows), dtype=np.intp)
        steps = list(pos)
        log1p, fmax, matmul, expm1 = np.log1p, np.fmax, np.matmul, np.expm1
        with np.errstate(divide="ignore", invalid="ignore"):
            for end in range(length, 0, -_BLOCK):
                n = min(_BLOCK, end)
                np.add(member_idx[:, end - n:end].T, offsets, out=pos[:n])
                for at in steps[n - 1::-1]:
                    log1p(state, out=logs)
                    fmax(logs, -1e300, out=logs)
                    matmul(logs, counts, out=monomials)
                    expm1(monomials, out=monomials)
                    matmul(monomials, table, out=every)
                    take(at, axis=0, out=state, mode="wrap")
        return state


def _check_member_indices(idx: np.ndarray, size: int) -> None:
    """Raise IndexError unless every member index lies in [0, size): the
    gather of either kernel would read another row's block at any other."""
    low = 0 if idx.dtype.kind in "bu" else idx.min(initial=0)   # bool, unsigned: >= 0
    if low < 0 or idx.max(initial=0) >= size:
        raise IndexError(f"member indices must lie in [0, {size})")


# -- interchange format ----------------------------------------------------
#
# {
#   "N": int,
#   "label": str (optional),
#   "environments": [
#     {
#       "weight": float,
#       "label": str (optional),
#       "laws": [
#         {"group_size": int,
#          "atoms": [{"tuple": [int, ...], "weight": float}, ...]},
#         ...
#       ]
#     },
#     ...
#   ]
# }
#
# The reader checks that each key is there and of its JSON kind, bools being
# no numbers.  SiblingLaw owns the atom shape, Environment the laws and their
# weights, EnvironmentEnsemble the mixture weights; the reader prefixes their
# messages with the position of the object that failed.

_KINDS = {   # JSON kind -> test of a parsed value
    "a positive integer": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
    "a number within float range": lambda v: isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    "an array": lambda v: isinstance(v, Sequence) and not isinstance(v, (str, bytes)),
    "a string": lambda v: isinstance(v, str),
}


def _object(doc, where: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise EnsembleFormatError(f"{where}: must be an object, got {reprlib.repr(doc)}")
    return doc


def _field(doc: Mapping, key: str, where: str, kind: str, *default):
    """doc[key] if it is of the JSON kind named; a missing key gives the default if any."""
    if key not in doc:
        if default:
            return default[0]
        raise EnsembleFormatError(f"{where}: missing required key {key!r}")
    if not _KINDS[kind](doc[key]):
        raise EnsembleFormatError(f"{where}.{key}: must be {kind}, got {reprlib.repr(doc[key])}")
    return doc[key]


def ensemble_from_dict(doc: Mapping) -> EnvironmentEnsemble:
    """Build an ensemble from a parsed document, with position-precise errors."""
    number, root = "a number within float range", "document root"
    order = _field(_object(doc, root), "N", root, "a positive integer")
    env_docs = _field(doc, "environments", root, "an array")
    if not env_docs:
        raise EnsembleFormatError(f"{root}: environments array is empty")
    members, weights = [], []
    for e, env_doc in enumerate(env_docs):
        where_env = f"environments[{e}]"
        weights.append(float(_field(_object(env_doc, where_env), "weight", where_env, number)))
        laws = []
        for l, law_doc in enumerate(_field(env_doc, "laws", where_env, "an array")):
            where_law = f"{where_env}.laws[{l}]"
            group_size = _field(_object(law_doc, where_law), "group_size", where_law,
                                "a positive integer")
            atoms = []
            for a, atom_doc in enumerate(_field(law_doc, "atoms", where_law, "an array")):
                where_atom = f"{where_law}.atoms[{a}]"
                _object(atom_doc, where_atom)
                atoms.append((_field(atom_doc, "tuple", where_atom, "an array"),
                              _field(atom_doc, "weight", where_atom, number)))
            try:
                laws.append(SiblingLaw(group_size, order, tuple(atoms)))
            except ValueError as exc:
                raise EnsembleFormatError(f"{where_law}.{exc}") from exc
        label = _field(env_doc, "label", where_env, "a string", "")
        try:
            members.append(Environment(order, tuple(laws), label=label))
        except InvalidLawError as exc:   # keeps the per-law reports that validate prints
            raise InvalidLawError(f"{where_env}: {exc}", report=exc.report) from exc
        except ValueError as exc:
            raise type(exc)(f"{where_env}: {exc}") from exc
    label = _field(doc, "label", root, "a string", "")
    try:
        return EnvironmentEnsemble(tuple(members), np.array(weights), label=label)
    except ValueError as exc:
        raise ValueError(f"{root}: {exc}") from exc


def read_ensemble_doc(path) -> dict:
    """Parse a JSON ensemble document; one that does not parse names the path as given."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise EnsembleFormatError(f"{path}: invalid JSON at line {exc.lineno} "
                                  f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:   # not UTF-8, too long an integer, too deep
        raise EnsembleFormatError(f"{path}: unreadable JSON: {exc}") from exc


def load_ensemble(path) -> EnvironmentEnsemble:
    """Load an ensemble document from a JSON file."""
    return ensemble_from_dict(read_ensemble_doc(path))


def ensemble_to_dict(ens: EnvironmentEnsemble) -> dict:
    out: dict = {"N": ens.order}
    if ens.label:
        out["label"] = ens.label
    out["environments"] = [
        {"weight": float(weight),
         **({"label": env.label} if env.label else {}),
         "laws": [{"group_size": law.group_size,
                   "atoms": [{"tuple": list(t), "weight": w} for t, w in law.atoms]}
                  for law in env.laws]}
        for env, weight in zip(ens.members, ens.weights)
    ]
    return out
