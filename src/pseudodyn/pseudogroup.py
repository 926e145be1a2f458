"""Partial injective maps, symmetric generating systems, word closures.

On a finite discrete space every injective partial map is a homeomorphism
between open subsets, and membership in the generated pseudogroup reduces
to pointwise realizability.  Two words are therefore identified exactly
when they have equal domain and equal values ("extensional identity");
witness words are carried as metadata only.
"""

from __future__ import annotations

import math
from collections import abc
from itertools import compress, islice
from typing import Iterable, Optional, Sequence

from .errors import CapabilityError, InputError, PreconditionError
from .rational import UNBOUNDED
from .space import UNDEFINED_BYTE, FiniteMetricSpace, PointSet

# The most maps a word closure may hold: the largest one known to fit has
# 1,188,736 maps, and a closure past the cap stops after about 320 MB.
CLOSURE_CAP = 1_500_000

_DECODE = tuple(range(UNDEFINED_BYTE)) + (None,)


class PartialMap:
    """Injective partial self-map of a finite space.

    ``vals[i]`` is the image index of point ``i``, or ``None`` when ``i``
    is outside the domain.  Equality and hashing are extensional (values
    only); ``name``/``word`` are display metadata.
    """

    __slots__ = ("space", "vals", "name", "word", "_hash", "_dom_mask",
                 "_key")

    def __init__(self, space: FiniteMetricSpace, vals: Sequence[Optional[int]],
                 name: str | None = None, word: tuple[str, ...] | None = None):
        vals = tuple(vals)
        n = space.n
        if len(vals) != n:
            raise InputError("value table length must match the space")
        seen = set()
        for v in vals:
            if v is None:
                continue
            if not (0 <= v < n):
                raise InputError(f"image index {v} out of range")
            if v in seen:
                raise InputError("map is not injective")
            seen.add(v)
        self.space = space
        self.vals = vals
        self.name = name
        self.word = word
        self._hash = hash(vals)
        self._dom_mask = None
        self._key = None

    @classmethod
    def _raw(cls, space, vals: tuple, name=None, word=None,
             key=None) -> "PartialMap":
        """Unvalidated constructor for internal algebra, where injectivity
        is guaranteed by construction; ``key``, when given, is ``vals`` as
        bytes (see ``PartialMap.key``)."""
        self = object.__new__(cls)
        self.space = space
        self.vals = vals
        self.name = name
        self.word = word
        self._hash = hash(vals)
        self._dom_mask = None
        self._key = key
        return self

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_dict(cls, space: FiniteMetricSpace, mapping: dict,
                  name: str | None = None) -> "PartialMap":
        vals: list[Optional[int]] = [None] * space.n
        for src, dst in mapping.items():
            vals[space.index(src)] = space.index(dst)
        return cls(space, vals, name=name)

    @classmethod
    def identity(cls, space: FiniteMetricSpace) -> "PartialMap":
        return cls(space, tuple(range(space.n)), name="id", word=())

    # -- extensional identity ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PartialMap) and self.vals == other.vals

    def __hash__(self):
        return self._hash

    def __repr__(self):
        pairs = ", ".join(
            f"{self.space.label(i)}->{self.space.label(v)}"
            for i, v in enumerate(self.vals) if v is not None
        )
        tag = self.name or self.word_str() or "map"
        return f"<{tag}: {pairs or 'empty'}>"

    def word_str(self) -> str | None:
        if self.word is None:
            return None
        if not self.word:
            return "id"
        # words are stored in application order; render as right-to-left
        # composition, the conventional reading.
        return "∘".join(reversed(self.word))

    # -- structure -----------------------------------------------------------

    @property
    def dom(self) -> PointSet:
        return frozenset(i for i, v in enumerate(self.vals) if v is not None)

    @property
    def dom_mask(self) -> int:
        if self._dom_mask is None:
            mask = 0
            for i, v in enumerate(self.vals):
                if v is not None:
                    mask |= 1 << i
            self._dom_mask = mask
        return self._dom_mask

    @property
    def key(self) -> bytes:
        """``vals`` as bytes, with 255 off the domain, on spaces of at most
        255 points; built once.  ``key.translate(table)`` reads a 256-byte
        table at each point's image, and at 255 off the domain."""
        if self._key is None:
            if self.space.n > UNDEFINED_BYTE:
                raise CapabilityError(
                    f"a byte key serves at most {UNDEFINED_BYTE} points")
            self._key = bytes([UNDEFINED_BYTE if v is None else v
                               for v in self.vals])
        return self._key

    @property
    def ran(self) -> PointSet:
        return frozenset(v for v in self.vals if v is not None)

    def apply(self, i: int) -> int:
        v = self.vals[i]
        if v is None:
            raise InputError(f"point {self.space.label(i)!r} outside the domain")
        return v

    def is_total(self) -> bool:
        return all(v is not None for v in self.vals)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.vals))

    # -- algebra ---------------------------------------------------------------

    def inverse(self, name: str | None = None) -> "PartialMap":
        vals: list[Optional[int]] = [None] * self.space.n
        for i, v in enumerate(self.vals):
            if v is not None:
                vals[v] = i
        if name is None and self.name is not None:
            name = self.name[:-3] if self.name.endswith("^-1") else self.name + "^-1"
        word = None
        if self.word is not None:
            word = tuple(_invert_letter(w) for w in reversed(self.word))
        return PartialMap._raw(self.space, tuple(vals), name=name, word=word)

    def then(self, other: "PartialMap") -> "PartialMap":
        """``other`` after ``self``: domain is the set of points whose image
        under ``self`` lands in the domain of ``other``."""
        if other.space is not self.space and other.space.points != self.space.points:
            raise InputError("maps live on different spaces")
        ovals = other.vals
        vals = tuple(
            ovals[v] if v is not None else None
            for v in self.vals
        )
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return PartialMap._raw(self.space, vals, word=word)

    def restrict(self, subset: Iterable[int]) -> "PartialMap":
        keep = frozenset(subset)
        vals = tuple(v if i in keep else None for i, v in enumerate(self.vals))
        name = f"{self.name}|" if self.name else None
        return PartialMap._raw(self.space, vals, name=name, word=None)


def _invert_letter(letter: str) -> str:
    return letter[:-3] if letter.endswith("^-1") else letter + "^-1"


class GeneratingSystem:
    """Finite generator family containing the total identity.

    ``cores`` is an optional parallel tuple of subsets ``K_g`` of the
    generator domains; the identity's core defaults to the whole space.
    Symmetry is what ``build`` guarantees, not a class invariant: derived
    systems (e.g. core-restricted ones) may be non-symmetric.
    """

    __slots__ = ("space", "generators", "cores", "_closure", "_germ",
                 "_tables")

    def __init__(self, space: FiniteMetricSpace, generators: Sequence[PartialMap],
                 cores: Sequence[Optional[PointSet]] | None = None):
        gens = tuple(generators)
        if not any(g.is_identity() and g.is_total() for g in gens):
            raise InputError("generating system must contain the total identity")
        if cores is not None:
            cores = tuple(None if c is None else frozenset(c) for c in cores)
            if len(cores) != len(gens):
                raise InputError("cores must parallel the generator list")
            fixed = []
            for g, core in zip(gens, cores):
                if g.is_identity() and core is None:
                    core = space.full_set()
                if core is None:
                    raise InputError(f"generator {g!r} is missing its core")
                if not core <= g.dom:
                    raise InputError(f"core of {g!r} is not inside its domain")
                fixed.append(core)
            cores = tuple(fixed)
        self.space = space
        self.generators = gens
        self.cores = cores
        self._closure = None
        self._germ = None
        self._tables = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, space: FiniteMetricSpace, maps: Sequence[PartialMap],
              cores: dict | None = None) -> "GeneratingSystem":
        """Assemble a symmetric system: the total identity is added when
        missing and so is the inverse of any generator (named ``g^-1``).

        A name labels one map: two maps named alike, or a name that the
        completion gives to another map (``id``, ``g^-1``), is an input
        error.  ``cores`` maps generator names to point-index sets; the
        core of an auto-added inverse defaults to the image of the
        original core so that core restriction commutes with inversion.
        Two names of one map must declare one core, and the identity's
        core is the whole space.
        """
        gens: list[PartialMap] = []
        seen: dict[PartialMap, PartialMap] = {}
        alias: dict[str, PartialMap] = {}

        def push(m: PartialMap) -> PartialMap:
            kept = seen.get(m)
            if kept is None:
                gens.append(m)
                seen[m] = m
                kept = m
            if m.name and alias.setdefault(m.name, kept) != kept:
                raise InputError(f"generator name {m.name!r} names two maps")
            return kept

        names = [g.name for g in maps if g.name]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise InputError(f"generator name {name!r} is declared twice")
        identity = PartialMap.identity(space)
        push(identity)
        for g in maps:
            if g.word is None:
                g = PartialMap(space, g.vals, name=g.name,
                               word=(g.name,) if g.name else None)
            push(g)
        for g in list(gens):
            push(g.inverse())

        core_tuple = None
        if cores is not None:
            by_map: dict[PartialMap, PointSet] = {}
            owner: dict[PartialMap, str] = {}  # the first name given a core
            for gname, core in cores.items():
                if gname not in alias:
                    raise InputError(f"core given for unknown generator {gname!r}")
                target, core = alias[gname], frozenset(core)
                if target.is_identity() and core != space.full_set():
                    raise InputError(f"generator {gname!r} is the identity, "
                                     "whose core is the whole space")
                first = owner.setdefault(target, gname)
                if by_map.setdefault(target, core) != core:
                    raise InputError(f"generators {first!r} and {gname!r} "
                                     "name one map with different cores")
            core_tuple = []
            for g in gens:
                if g.is_identity():
                    core_tuple.append(space.full_set())
                elif g in by_map:
                    core_tuple.append(by_map[g])
                else:
                    inv = g.inverse()
                    if inv in by_map:
                        core_tuple.append(frozenset(inv.apply(i) for i in by_map[inv]))
                    else:
                        core_tuple.append(g.dom)
            core_tuple = tuple(core_tuple)
        return cls(space, gens, cores=core_tuple)

    @property
    def has_cores(self) -> bool:
        return self.cores is not None

    # -- closure and tables -----------------------------------------------------

    def word_closure(self) -> "WordClosure":
        if self._closure is None:
            self._closure = word_closure(self)
        return self._closure

    def constraint_table(self, n=math.inf) -> list[Sequence[int]]:
        """``T[i][j]`` = the rank of max d(w i, w j) over the words w of
        length ``n`` defined at i and j: ``table_ball(T, i, space.threshold(
        eps, closed))`` is the dynamical n-ball around ``i``.  Every level
        from ``fixpoint_level`` on, and the default, is the fixpoint table.
        Its rows are read-only ``bytes``, or lists past 256 rank values."""
        return self._pair_tables().table(n)

    @property
    def fixpoint_level(self) -> int:
        """The least n >= 1 from which the tables stop changing; at most
        the closure's stabilization index, found without the closure."""
        self.constraint_table()
        return max(len(self._tables.tables) - 1, 1)

    def first_spreading(self, pairs, t: int):
        """``(g, (i, j))``: the closure's first map g, with its word, that
        sends one of ``pairs`` to rank ``t`` or more, and the first such
        pair; None when no word does.  The closure lists maps by their
        (length, lex)-least words, first-applied letter most significant,
        keeping the first of a repeated generator, so the table levels give
        each next letter: the first generator after which some pair reaches
        t in the level of the remaining length.  No closure is built."""
        self.constraint_table()
        tables = self._tables.tables
        k = next((k for k, T in enumerate(tables)
                  if any(T[i][j] >= t for i, j in pairs)), None)
        if k is None:
            return None
        g = PartialMap.identity(self.space)
        live = [(p, p) for p in pairs]  # (source pair, its image under g)
        for r in range(max(k, 1), 0, -1):
            T = tables[r - 1]
            for h in self.generators:
                v = h.vals
                step = [(p, (v[a], v[b])) for p, (a, b) in live
                        if v[a] is not None and v[b] is not None
                        and T[v[a]][v[b]] >= t]
                if step:
                    break
            live = step
            g = g.then(PartialMap._raw(self.space, v, word=_letter(h)))
        return g, live[0][0]

    def _pair_tables(self) -> "_PairTables":
        if self._tables is None:
            self._tables = _PairTables(self.space, self.generators)
        return self._tables

    def germ_relation(self) -> "GermRelation":
        if self._germ is None:
            self._germ = germ_relation(self)
        return self._germ


class _PairTables:
    """The pair recurrence T_k[i][j] = max(T_{k-1}[i][j], T_{k-1}[g i][g j]
    over the generators g defined at i and j) from T_0, the distance ranks,
    built on demand until a level raises nothing.

    Levels are built semi-naively, cell by cell: T_{k-1}[i][j] already
    bounds every T_{k-2}[g i][g j], so only a cell (a, b) raised at level
    k-1 can raise a cell at level k, namely (g^-1 a, g^-1 b).  Every table
    is symmetric with a zero diagonal, so only the cells a < b are pushed,
    and each rise writes both mirror cells.  Level k starts as a shallow
    copy of level k-1's rows and copies a row the first time one of its
    cells rises, so an unchanged row is the same object in both levels.
    The pullbacks g^-1 come from each generator's own values, since a
    compacted family need not hold the inverse of its maps.  Once settled,
    the engine keeps only its levels.  It holds no reference to the system,
    which caches it: that would make a cycle.

    Rows are ``bytes`` when every rank fits a byte (at most 256 rank
    values), so ``below_flags`` scans one with a single ``translate``;
    a raised row is built in a ``bytearray`` and frozen when its level is
    done.  A wider space keeps list rows.  Either way rows are read-only:
    levels share them.  ``below_flags`` is the one reader that knows the
    format."""

    __slots__ = ("tables", "_pulls", "_raised", "_copy")

    def __init__(self, space: FiniteMetricSpace, generators):
        n = space.n
        ranks, values = space.distance_ranks()
        narrow = len(values) <= 256
        self._copy = bytearray if narrow else list
        self.tables = [list(map(bytes if narrow else list, ranks))]
        self._pulls = []  # pull[a] = g^-1 a, or None off g's range
        for g in generators:
            if not g.is_identity():
                pull = [None] * n
                for i, a in enumerate(g.vals):
                    if a is not None:
                        pull[a] = i
                self._pulls.append(pull)
        # row a -> the columns b > a raised in it
        self._raised = {a: range(a + 1, n) for a in range(n - 1)}

    def table(self, n) -> list[Sequence[int]]:
        if n < 1:
            raise InputError("word length must be at least 1")
        tables = self.tables
        while len(tables) <= n and self._raised is not None:
            self._push()
        return tables[min(n, len(tables) - 1)]

    def _push(self) -> None:
        """Build the next level from the cells the last one raised, or
        settle when none rises."""
        prev = self.tables[-1]
        level = prev[:]
        copy = self._copy
        copied = []
        raised: dict[int, set[int]] = {}
        for a, cols in self._raised.items():
            src = prev[a]
            for pull in self._pulls:
                i = pull[a]
                if i is None:
                    continue
                row = level[i]
                for b in cols:
                    j = pull[b]
                    if j is not None and src[b] > row[j]:
                        if row is prev[i]:
                            row = level[i] = copy(row)
                            copied.append(i)
                        mirror = level[j]
                        if mirror is prev[j]:
                            mirror = level[j] = copy(mirror)
                            copied.append(j)
                        row[j] = mirror[i] = src[b]
                        if i < j:
                            raised.setdefault(i, set()).add(j)
                        else:
                            raised.setdefault(j, set()).add(i)
        if raised:
            if copy is bytearray:
                for i in copied:
                    level[i] = bytes(level[i])
            self.tables.append(level)
            self._raised = raised
        else:
            self._pulls = self._raised = self._copy = None


def below_flags(rows, t: int) -> list[bytes]:
    """For each row of a rank table, the bytes whose byte y is 1 when
    ``row[y] < t``, else 0: the ball ``{y : row[y] < t}`` as a mask for
    ``itertools.compress`` and ``bytes.translate``.  Pair-table rows of
    at most 256 rank values are ``bytes`` and take one ``translate``
    each; any other row (wider pair tables, distance ranks, spread
    tables) is compared cell by cell."""
    if rows and type(rows[0]) is bytes:
        below = b"\x01" * t + bytes(256 - t)
        return [row.translate(below) for row in rows]
    return [bytes([v < t for v in row]) for row in rows]


class ClosureMaps(abc.Sequence):
    """A word closure's maps under ``PartialMap.then``, in breadth-first
    order, carrying its system's pair tables ``pairs``: their fixpoint
    table is the spread table of these maps, so the moduli read it instead
    of folding them.  The tables hold no reference to the maps, the space
    or the system.

    The closure loop leaves each map as a key and a (parent, generator)
    link.  A map and its witness word are built when an index, a slice or
    an iteration first reaches it, together with every map before it, and
    once all are built the keys and links go.  Read-only; slices are plain
    lists.  A read may build maps, so one thread reads a closure at a time.
    """

    __slots__ = ("pairs", "_space", "_maps", "_size", "_keys", "_links")

    def __init__(self, space: FiniteMetricSpace, level1: list[PartialMap],
                 keys: list, links: list[tuple[int, int]], pairs):
        self.pairs = pairs
        self._space = space
        self._maps = list(level1)
        self._size = len(keys)
        self._keys = keys
        self._links = links  # the link of keys[k] is links[k - len(level1)]

    def _build(self, stop: int) -> None:
        """Build the maps before index ``stop``."""
        maps = self._maps
        start = len(maps)
        if start < stop:
            space, raw = self._space, PartialMap._raw
            first = self._size - len(self._links)
            links = self._links[start - first:stop - first]
            if type(self._keys[0]) is bytes:  # else the keys are the vals
                for key, (parent, gen) in zip(self._keys[start:stop], links):
                    vals = (tuple([_DECODE[v] for v in key])
                            if UNDEFINED_BYTE in key else tuple(key))
                    maps.append(raw(space, vals,
                                    word=maps[parent].word + maps[gen].word,
                                    key=key))
            else:
                for vals, (parent, gen) in zip(self._keys[start:stop], links):
                    maps.append(raw(space, vals,
                                    word=maps[parent].word + maps[gen].word))
        if len(maps) == self._size:
            self._keys = self._links = None

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        maps = self._maps
        if self._keys is None:
            return maps[i]
        if isinstance(i, slice):
            start, stop, step = i.indices(self._size)
            if step == 1:
                self._build(stop)
                return maps[start:stop]
            picked = range(start, stop, step)
            if picked:
                self._build(max(picked[0], picked[-1]) + 1)
            return [maps[k] for k in picked]
        k = i + self._size if i < 0 else i
        if not 0 <= k < self._size:
            raise IndexError("closure index out of range")
        self._build(k + 1)
        return maps[k]

    def __iter__(self):
        if self._keys is None:
            return iter(self._maps)
        return self._iter()

    def _iter(self):
        """Every map, building at most twice the prefix read so far."""
        maps = self._maps
        start = 0
        while start < self._size:
            stop = min(self._size, max(len(maps), 2 * start))
            self._build(stop)
            yield from islice(maps, start, stop)
            start = stop

    def __eq__(self, other):
        if isinstance(other, (list, ClosureMaps)):
            return self[:] == list(other)
        return NotImplemented

    __hash__ = None


class WordClosure:
    """Extensionally deduplicated word sets, level by level, to stabilization.

    ``stabilized_maps`` lists every realizable map once, in breadth-first
    order with one shortest witness word; its first ``sizes[k]`` maps are
    those realized by words of length ``k+1`` (cumulative, since the
    identity pads any shorter word).  Its tables are the system's; under
    ``PartialMap.then`` the maps are a ``ClosureMaps`` that carries them
    and builds each map when first read.

    It keeps the system's table engine, not the system: a system caches its
    closure, and a back reference would make a cycle that only the cyclic
    collector frees.  The balls of the set-algebra route are memoized
    here too, as bytes (``dynamics._formula_balls``).
    """

    __slots__ = ("stabilized_maps", "sizes", "stable_index", "_pairs",
                 "_formula_balls")

    def __init__(self, sys: GeneratingSystem, maps: Sequence[PartialMap],
                 sizes: list[int]):
        self.stabilized_maps = maps
        self.sizes = sizes
        self.stable_index = len(sizes)
        self._pairs = sys._pair_tables()
        self._formula_balls = {}  # see dynamics._formula_balls

    def maps_at(self, n: int) -> list[PartialMap]:
        """The word set at length ``n``: a prefix of ``stabilized_maps``."""
        if n < 1:
            raise InputError("word length must be at least 1")
        maps = self.stabilized_maps
        return maps if n >= self.stable_index else maps[:self.sizes[n - 1]]

    @property
    def level_maps(self) -> list[list[PartialMap]]:
        """Every level as its own list, sliced when read."""
        return [self.stabilized_maps[:size] for size in self.sizes]

    def constraint_table(self, n: int) -> list[Sequence[int]]:
        """The system's constraint table at length ``n``."""
        return self._pairs.table(n)


def spread_table(maps, space: FiniteMetricSpace) -> list[list[int]]:
    """``S[i][j]`` = the rank of max d(g(i), g(j)) over the maps defined at
    both points, 0 where none is (maps are injective, so a shared map makes
    the entry positive off the diagonal); ``values[S[i][j]]`` is the
    distance.  The fold of an explicit map list: the certificate audit
    folds the maps it is given with it, and it is the reference the pair
    tables and the group-claim probe's pair-orbit fold are tested
    against, so it reads every map of every list."""
    npts = space.n
    ranks = space.distance_ranks()[0]
    table = [[0] * npts for _ in range(npts)]
    for g in maps:
        vals = g.vals
        dom = [i for i, v in enumerate(vals) if v is not None]
        for a_pos, i in enumerate(dom):
            rank_row = ranks[vals[i]]
            row = table[i]
            for j in dom[a_pos + 1:]:
                r = rank_row[vals[j]]
                if r > row[j]:
                    row[j] = r
                    table[j][i] = r
    return table


def table_ball(table, i: int, t: int) -> PointSet:
    """``{y : table[i][y] < t}`` for a rank threshold ``t`` from
    ``space.threshold``: with a spread table the dynamical ball around
    ``i``, with the distance ranks the metric ball."""
    row = table[i]
    return frozenset(compress(range(len(row)), below_flags((row,), t)[0]))


def word_closure(sys: GeneratingSystem) -> WordClosure:
    """Breadth-first closure of the generators under composition with
    extensional deduplication, run until a round adds nothing."""
    return _closure(sys, PartialMap.then)


def _letter(g: PartialMap) -> tuple[str, ...]:
    """A generator's part of a witness word: its word, else its name."""
    if g.word is not None:
        return g.word
    return (g.name,) if g.name else ("?",)


def _closure(sys: GeneratingSystem, compose) -> WordClosure:
    """The closure loop behind every word closure: each round extends the
    newest words by one generator through ``compose(word, generator)``
    until a round adds nothing, or past ``CLOSURE_CAP`` maps.

    The loop runs on hashable keys, one per map, and one step function.
    Under ``PartialMap.then`` on at most 255 points a key is the map as
    ``bytes``, with 255 for "undefined", and a generator is its key
    padded to 256 bytes with 255: composing is then ``key.translate``,
    one C call that also sends 255 to 255.  Any other ``compose``, and
    any wider space, steps through ``compose`` on ``PartialMap``s keyed
    by their ``vals``.  Each new key keeps its parent's position and its
    generator's.  Under ``PartialMap.then`` the maps, with their witness
    words, are built when first read (``ClosureMaps``); under any other
    ``compose`` all of them are built after the loop, into a plain list.
    """
    space = sys.space
    seen: set[PartialMap] = set()
    level1: list[PartialMap] = []
    for g in sys.generators:
        if g.word is None:
            g = PartialMap(space, g.vals, name=g.name, word=_letter(g))
        if g not in seen:
            seen.add(g)
            level1.append(g)
    if compose is PartialMap.then and space.n <= UNDEFINED_BYTE:
        keys = [g.key for g in level1]
        pad = bytes([UNDEFINED_BYTE]) * (256 - space.n)
        tables = [key + pad for key in keys]
        step = bytes.translate
    else:
        keys = [g.vals for g in level1]
        tables = level1

        def step(vals, a):
            return compose(PartialMap._raw(space, vals), a).vals
    known = set(keys)
    links: list[tuple[int, int]] = []  # (parent, generator) past level 1
    sizes = [len(keys)]
    start = 0
    while True:
        end = len(keys)
        for parent in range(start, end):
            key = keys[parent]
            for gen, table in enumerate(tables):
                c = step(key, table)
                if c not in known:
                    known.add(c)
                    keys.append(c)
                    links.append((parent, gen))
            if len(keys) > CLOSURE_CAP:
                raise CapabilityError(
                    f"the word closure passed {CLOSURE_CAP} maps; htop, "
                    "entropy, check --what invariant|ergodic|homogeneous|"
                    "expansive, equicont and conjugate build none")
        if len(keys) == end:
            break
        sizes.append(len(keys))
        start = end
    if compose is PartialMap.then:
        maps = ClosureMaps(space, level1, keys, links, sys._pair_tables())
    else:
        maps = ClosureMaps(space, level1, keys, links, None)[:]
    return WordClosure(sys, maps, sizes)


class GermRelation:
    """All realized pairs (x, w(x)) over the words w in the generators.
    Immutable: its components are found once."""

    __slots__ = ("space", "pairs", "_components")

    def __init__(self, space: FiniteMetricSpace,
                 pairs: frozenset[tuple[int, int]]):
        self.space = space
        self.pairs = pairs
        self._components = None

    def equivalence_failure(self) -> Optional[tuple]:
        """None when the relation is an equivalence, else the first failure
        as point indices, checking reflexivity, symmetry and transitivity
        in that order: ``("reflexivity", i)``, ``("symmetry", i, j)`` or
        ``("transitivity", i, j, k)`` with (i, j) and (j, k) related but
        not (i, k)."""
        pairs = self.pairs
        for i in range(self.space.n):
            if (i, i) not in pairs:
                return ("reflexivity", i)
        for i, j in pairs:
            if (j, i) not in pairs:
                return ("symmetry", i, j)
        succ: dict[int, set[int]] = {}
        for i, j in pairs:
            succ.setdefault(i, set()).add(j)
        for i, js in succ.items():
            for j in js:
                missing = succ.get(j, set()) - js
                if missing:
                    return ("transitivity", i, j, min(missing))
        return None

    def components(self) -> list[frozenset[int]]:
        """Connected components of the relation viewed as an undirected
        graph, ordered by least member; a fresh list on every call."""
        if self._components is None:
            self._components = self._find_components()
        return list(self._components)

    def _find_components(self) -> tuple[frozenset[int], ...]:
        n = self.space.n
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        groups: dict[int, set[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), set()).add(i)
        return tuple(sorted((frozenset(v) for v in groups.values()), key=min))


def germ_relation(sys: GeneratingSystem) -> GermRelation:
    """A word maps x to y exactly when a path of generator edges
    z -> g(z) leads from x to y, so one breadth-first search from each
    point finds every pair without building the word closure."""
    edges = [g.vals for g in sys.generators]
    pairs = []
    for x in range(sys.space.n):
        reached = {x}
        queue = [x]
        for y in queue:  # the list grows while it is read: first in, first out
            for vals in edges:
                z = vals[y]
                if z is not None and z not in reached:
                    reached.add(z)
                    queue.append(z)
        pairs.extend((x, y) for y in queue)
    return GermRelation(sys.space, frozenset(pairs))


def compacted_system(sys: GeneratingSystem) -> GeneratingSystem:
    """Restrict every generator to its core (the identity stays total).

    The result keeps the generator names and sets each core equal to the
    new domain.  It is not forced to be symmetric: symmetry of the
    restricted family holds exactly when inverse cores are images of each
    other, which callers may or may not have arranged.
    """
    if not sys.has_cores:
        raise PreconditionError("compaction requires cores")
    gens = []
    cores = []
    for g, core in zip(sys.generators, sys.cores):
        if g.is_identity():
            gens.append(g)
            cores.append(sys.space.full_set())
            continue
        r = g.restrict(core)
        r = PartialMap(sys.space, r.vals, name=g.name,
                       word=(g.name,) if g.name else None)
        gens.append(r)
        cores.append(r.dom)
    return GeneratingSystem(sys.space, gens, cores=tuple(cores))


def separation_radius(sys: GeneratingSystem):
    """Minimal distance from a core to the complement of its domain,
    over the non-total generators; ``UNBOUNDED`` when all are total.

    Downstream comparisons use ``d >= rho``: on a finite distance grid this
    is equivalent to picking any constant strictly below the minimum and
    comparing strictly.
    """
    if not sys.has_cores:
        raise PreconditionError("separation radius requires cores")
    best = None
    for g, core in zip(sys.generators, sys.cores):
        outside = sys.space.full_set() - g.dom
        if not outside or not core:
            continue
        for z in outside:
            for y in core:
                d = sys.space.d(z, y)
                if best is None or d < best:
                    best = d
    return UNBOUNDED if best is None else best


def raw_word_maps(sys: GeneratingSystem, n: int) -> list[PartialMap]:
    """Every length-``n`` word as a map, with no deduplication.

    Exponential in ``n``; exists as the independent oracle for closure
    soundness at desk scale.
    """
    if n < 1:
        raise InputError("word length must be at least 1")
    words = [g for g in sys.generators]
    for _ in range(n - 1):
        words = [w.then(g) for w in words for g in sys.generators]
    return words
