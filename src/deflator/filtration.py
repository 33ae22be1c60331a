"""Finite outcome spaces, algebras, measures and simple functions.

An algebra on a finite outcome space is stored as a partition: an
integer array mapping each atom to its block.  Simple functions are
constant per block (scalar- or vector-valued), finitely additive
measures assign a weight per block, and restriction sums fine weights
into coarser blocks.  These are the bookkeeping pieces that multi
period markets are built from.
"""

from __future__ import annotations

import numpy as np

from .exceptions import AlgebraMismatch, DimensionMismatch, NotCoarser


class Algebra:
    """A partition of atoms 0..n-1 into blocks 0..B-1.

    block_of[a] is the block containing atom a.  Block indices must be
    exactly 0..B-1 with every block nonempty, so functions and measures
    can store one value per block index.  A coarse level of a
    Filtration stores only its parent map from the blocks of the next
    finer level; its block_of is composed from the maps when asked for.
    """

    __slots__ = ("_block_of", "n_blocks", "n_atoms", "_finer", "_up")

    def __init__(self, block_of):
        block_of = np.asarray(block_of, dtype=int)
        if block_of.ndim != 1 or block_of.size == 0:
            raise ValueError("block_of must map a nonempty atom set")
        n_blocks = int(block_of.max()) + 1
        if block_of.min() < 0 or not np.bincount(block_of).all():
            raise ValueError("blocks must be numbered 0..B-1 with none empty")
        block_of.setflags(write=False)
        self._block_of, self._finer, self._up = block_of, None, None
        self.n_blocks, self.n_atoms = n_blocks, block_of.size

    @classmethod
    def _coarsening(cls, finer: "Algebra", up) -> "Algebra":
        """The algebra whose block up[f] holds block f of finer; up, a
        map from the blocks of finer onto 0..B-1, is kept as it is."""
        alg = cls.__new__(cls)
        alg._block_of, alg._finer, alg._up = None, finer, up
        alg.n_blocks, alg.n_atoms = int(up.max()) + 1, finer.n_atoms
        return alg

    @property
    def block_of(self) -> np.ndarray:
        finest, up = self._walk(None)
        return finest._block_of if up is None else up[finest._block_of]

    def _walk(self, finer):
        """The level reached walking from self to finer (or the finest
        level), and the composed map from its blocks to self's."""
        up, level = None, self
        while level is not finer and level._finer is not None:
            up = level._up if up is None else up[level._up]
            level = level._finer
        return level, up

    @classmethod
    def trivial(cls, n_atoms: int) -> "Algebra":
        return cls(np.zeros(n_atoms, dtype=int))

    @classmethod
    def discrete(cls, n_atoms: int) -> "Algebra":
        return cls(np.arange(n_atoms))

    @classmethod
    def from_blocks(cls, blocks) -> "Algebra":
        """Build from an explicit list of atom index lists, as in a spec
        file's blocks: every block nonempty, and each index a Python or
        numpy integer, not a bool, in [0, n) and used once, n being the
        number of indices.  A ValueError names the block as [b]."""
        blocks = [list(b) for b in blocks]
        n = sum(map(len, blocks))
        block_of = np.full(n, -1)
        rule = "blocks must be nonempty lists of integer atom indices"
        for b, block in enumerate(blocks):
            if not block:
                raise ValueError(f"[{b}]: empty block; {rule}")
            for idx in block:
                if not (isinstance(idx, (int, np.integer)) and not isinstance(idx, bool)
                        and 0 <= idx < n):
                    raise ValueError(
                        f"[{b}]: atom index {idx!r} is not an integer in [0, {n}); {rule}")
                if block_of[idx] >= 0:
                    raise ValueError(f"[{b}]: atom {idx} is also in block {block_of[idx]}")
                block_of[idx] = b
        return cls(block_of)

    def blocks(self) -> list[np.ndarray]:
        """Atom indices of each block, in block order."""
        block_of = self.block_of
        order = np.argsort(block_of, kind="stable")
        bounds = np.searchsorted(block_of[order], np.arange(self.n_blocks + 1))
        return [order[bounds[i]:bounds[i + 1]] for i in range(self.n_blocks)]

    def _parents(self, coarser: "Algebra"):
        """The block of coarser holding each block's first atom, and the
        first atom whose coarse block differs from its block's entry
        (-1 when self refines coarser)."""
        fine, coarse = self.block_of, coarser.block_of
        _, first = np.unique(fine, return_index=True)
        parent = _frozen(coarse[first])
        bad = np.flatnonzero(parent[fine] != coarse)
        return parent, int(bad[0]) if bad.size else -1

    def refines(self, coarser: "Algebra") -> bool:
        """True when every block of self lies inside one block of coarser."""
        return coarser.n_atoms == self.n_atoms and self._parents(coarser)[1] < 0

    def coarse_block_map(self, coarser: "Algebra") -> np.ndarray:
        """For each block of self, the block of coarser containing it.

        When coarser is a level of a filtration and self a finer level
        of it, this composes the stored parent maps; otherwise it
        compares atoms.  Raises NotCoarser when the containment fails
        for some block.
        """
        level, up = coarser._walk(self)
        if level is self:
            return np.arange(self.n_blocks) if up is None else up
        if coarser.n_atoms != self.n_atoms:
            raise AlgebraMismatch("algebras live on different outcome spaces")
        parent, a = self._parents(coarser)
        if a >= 0:
            f = self.block_of[a]
            raise NotCoarser(
                f"block {f} straddles blocks {parent[f]} and "
                f"{coarser.block_of[a]} of the target")
        return parent

    def __eq__(self, other):
        return other is self or (isinstance(other, Algebra)
                                 and np.array_equal(self.block_of, other.block_of))

    def __hash__(self):
        return hash(self.block_of.tobytes())

    def __repr__(self):
        return f"Algebra({self.n_blocks} blocks on {self.n_atoms} atoms)"


def _frozen(up) -> np.ndarray:
    """A read-only view of block map up; _bincount counts up itself."""
    view = up.view()
    view.setflags(write=False)
    return view


def _bincount(up, weights=None, minlength=0) -> np.ndarray:
    # np.bincount copies read-only input
    return np.bincount(up if up.flags.writeable else up.base, weights, minlength)


def _block_values(algebra: Algebra, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != algebra.n_blocks:
        raise DimensionMismatch(
            f"need one value (or row) per block, got shape {v.shape} for "
            f"{algebra.n_blocks} blocks")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    return v


class SimpleFunction:
    """A function constant on each block of an algebra.

    values has shape (n_blocks,) for scalar functions or (n_blocks, m)
    for vector functions (one row per block).
    """

    __slots__ = ("algebra", "values")

    def __init__(self, algebra: Algebra, values):
        self.algebra = algebra
        self.values = _block_values(algebra, values)

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    def at_atoms(self) -> np.ndarray:
        """Values expanded to one entry (or row) per atom."""
        return self.values[self.algebra.block_of]

    def lift(self, finer: Algebra) -> "SimpleFunction":
        """The same function expressed on a refining algebra."""
        fine_to_coarse = finer.coarse_block_map(self.algebra)
        return SimpleFunction(finer, self.values[fine_to_coarse])

    def __repr__(self):
        kind = f"vector[{self.values.shape[1]}]" if self.is_vector else "scalar"
        return f"SimpleFunction({kind} on {self.algebra.n_blocks} blocks)"


class FAMeasure:
    """A finitely additive measure: one weight (or row) per block."""

    __slots__ = ("algebra", "weights")

    def __init__(self, algebra: Algebra, weights):
        self.algebra = algebra
        self.weights = _block_values(algebra, weights)

    @property
    def is_vector(self) -> bool:
        return self.weights.ndim == 2

    def mass(self):
        """Total weight over all blocks."""
        total = self.weights.sum(axis=0)
        return float(total) if np.ndim(total) == 0 else total

    def __repr__(self):
        return f"FAMeasure({self.weights.shape} on {self.algebra.n_blocks} blocks)"


def product(f: SimpleFunction, mu: FAMeasure) -> FAMeasure:
    """The measure (f mu)(b) = f(b) mu(b), blockwise.

    A vector function times a scalar measure gives a vector measure.
    A scalar function times a vector measure scales each block's
    weight vector by the function's value on that block.
    """
    if f.algebra != mu.algebra:
        raise AlgebraMismatch("function and measure live on different algebras")
    fv, mw = f.values, mu.weights
    if fv.ndim == 2 and mw.ndim == 1:
        out = fv * mw[:, None]
    elif fv.ndim == 1 and mw.ndim == 2:
        out = fv[:, None] * mw
    else:
        out = fv * mw
    return FAMeasure(f.algebra, out)


def restrict(mu: FAMeasure, coarser: Algebra) -> FAMeasure:
    """Sum the weights of mu into the blocks of a coarser algebra, each
    coarse block adding its fine blocks' weights in block order."""
    fine_to_coarse, w = mu.algebra.coarse_block_map(coarser), mu.weights
    if w.ndim == 1:
        return FAMeasure(coarser, _bincount(fine_to_coarse, w, coarser.n_blocks))
    out = np.empty((coarser.n_blocks, w.shape[1]))
    for c in range(w.shape[1]):
        out[:, c] = _bincount(fine_to_coarse, w[:, c], coarser.n_blocks)
    return FAMeasure(coarser, out)


def _restrict_product(fs, mu: FAMeasure, coarser: Algebra) -> np.ndarray:
    """restrict(product(f, mu), coarser).weights, to the bit, for f the
    elementwise sum of the scalar or vector functions fs, in their order,
    one column at a time in one buffer (a scalar f is one column):
    neither f, f mu nor a strided copy of a column is held.  No fs is the
    unit claim f = 1, which restricts mu itself.  The callers check that
    fs share mu's algebra."""
    if not fs:
        return restrict(mu, coarser).weights
    up, n = mu.algebra.coarse_block_map(coarser), coarser.n_blocks
    cols = [f.values if f.is_vector else f.values[:, None] for f in fs]
    out, col = np.empty((n, cols[0].shape[1])), np.empty(len(up))
    for c in range(out.shape[1]):
        np.copyto(col, cols[0][:, c])
        for v in cols[1:]:
            col += v[:, c]
        out[:, c] = _bincount(up, np.multiply(col, mu.weights, out=col), n)
    return FAMeasure(coarser, out if fs[0].is_vector else out[:, 0]).weights


def pairing(f: SimpleFunction, mu: FAMeasure):
    """The dual pairing <f, mu> = sum over blocks of f(b) mu(b).

    Scalar against scalar gives a float; when exactly one side is
    vector-valued the result is a vector; vector against vector
    contracts both indices to a float.
    """
    if f.algebra != mu.algebra:
        raise AlgebraMismatch("function and measure live on different algebras")
    fv, mw = f.values, mu.weights
    if fv.ndim == 2 and mw.ndim == 2:
        return float((fv * mw).sum())
    out = np.einsum("b...,b...->...", fv, mw)
    return out if out.ndim else float(out)


class Filtration:
    """An increasing sequence of algebras on one outcome space.

    Each algebra must refine the one before (NotCoarser otherwise).
    Every level but the finest is stored as its parent map from the
    blocks of the next finer level, so only the finest keeps atoms;
    filtration[j + 1].coarse_block_map(filtration[j]) hands out map j.
    """

    def __init__(self, algebras):
        algebras = list(algebras)
        if not algebras:
            raise ValueError("a filtration needs at least one algebra")
        n = algebras[0].n_atoms
        for alg in algebras:
            if alg.n_atoms != n:
                raise AlgebraMismatch("all algebras must share the atom set")
        self.algebras = algebras[-1:]
        for j in range(len(algebras) - 2, -1, -1):
            alg, finer = algebras[j], algebras[j + 1]
            up, bad = (alg._up, -1) if alg._finer is finer else finer._parents(alg)
            if bad >= 0:
                raise NotCoarser(f"algebra {j + 1} does not refine algebra {j}")
            if alg._finer is not self.algebras[0]:
                alg = Algebra._coarsening(self.algebras[0], up)
            self.algebras.insert(0, alg)

    @property
    def n_atoms(self) -> int:
        return self.algebras[0].n_atoms

    def __len__(self):
        return len(self.algebras)

    def __getitem__(self, j) -> Algebra:
        return self.algebras[j]


def binary_tree_filtration(n_periods: int) -> Filtration:
    """The filtration of a recombining-free binary tree.

    Atoms are the 2**n paths; at time j two paths share a block exactly
    when their first j moves agree, so block b of algebra j is the move
    prefix read as a binary number (bit set = up move), and the parent
    of block b of algebra j + 1 is b >> 1.
    """
    if n_periods < 1:
        raise ValueError("need at least one period")
    levels = [Algebra.discrete(2 ** n_periods)]
    for j in range(n_periods, 0, -1):
        levels.insert(0, Algebra._coarsening(levels[0], _frozen(np.arange(2 ** j) >> 1)))
    return Filtration(levels)


def _walk_levels(n_periods: int):
    """Yield Z_j = ups - downs on the blocks of binary_tree_filtration,
    one level at a time."""
    z = np.zeros(1)
    yield z
    for _ in range(n_periods):
        # block 2b (2b + 1) is block b followed by a down (up) move
        z = (z[:, None] + (-1.0, 1.0)).ravel()
        yield z


def random_walk(n_periods: int):
    """Symmetric random walk on the binary tree.

    Returns (filtration, walk, probability): walk[j] is the simple
    function Z_j = ups - downs after j moves, and probability is the
    uniform measure on the finest algebra, weight 2**-n per path.
    """
    filtration = binary_tree_filtration(n_periods)
    walk = [SimpleFunction(algebra, z)
            for algebra, z in zip(filtration.algebras, _walk_levels(n_periods))]
    probability = FAMeasure(filtration[-1],
                            np.full(2 ** n_periods, 0.5 ** n_periods))
    return filtration, walk, probability
