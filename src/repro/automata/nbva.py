"""Simulation of nondeterministic bit vector automata (NBVA).

The configuration of an NBVA assigns each counted state a bit vector whose
set bits are the iteration counts currently in progress — the "set of
counter values" of Section 2.1.  One simulation step, driven by one input
byte, performs:

1. **state-transition**: from the previous configuration, compute every
   contribution to the next one — plain activations, ``set1`` entries into
   counter groups (gated by the source's read predicate when the source is
   itself counted), ``copy`` propagation within a group, and ``shift``
   loop-backs that advance the iteration count (bits shifted past the
   group width overflow and disappear, exactly like the hardware's
   overflow checker deactivating an exhausted BV-STE);
2. **state-matching**: zero out every target whose character class does
   not match the input byte (a BV is reset along with its inactive STE);
3. **reporting**: a match ends at this byte if a plain final state is
   active or a counted final state's read predicate holds.

Plain states are tracked in one integer bitset; live counted states in a
dict from position id to vector.

**Cold skip.**  While the machine is empty (no active plain state, no
live vector) the next configuration depends on the input byte alone:
only the initial states can wake, and they wake exactly on the bytes
their character classes accept.  Those bytes are precomputed into a
256-entry *hot* table, so the scanner jumps straight to the next hot
byte with one ``bytes.find`` over the segment translated through it; a
start-anchored scanner past stream offset 0 can never wake again and
jumps to the segment's end.  A skipped stretch of ``L`` cold bytes is
accounted exactly as ``L`` per-byte steps would be: ``L`` cycles,
``L * |initial counted|`` ``set1`` events (the initial BV-STEs are
re-entered every cycle — zero when start-anchored past offset 0), and no
activity, reports or bit-vector phases.  ``matched_states`` (the states
whose class accepts the byte) never depends on the configuration, so it
is counted once per segment from the byte histogram instead of per step.
The hardware model sees the same event counts either way; only the
simulator stops paying for cycles in which nothing can happen.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.automata.glushkov import Automaton, EdgeAction
from repro.regex.charclass import ALPHABET_SIZE, interned_label_masks, members


@dataclass
class NBVAStats:
    """Activity counters for one run (feed the hardware energy model)."""

    cycles: int = 0
    active_states: int = 0  # plain active + live counted, summed over cycles
    matched_states: int = 0
    reports: int = 0
    bv_phase_cycles: int = 0  # cycles that trigger the bit-vector phase
    bv_updates: int = 0  # total counted-state vector updates performed
    set1_events: int = 0
    shift_events: int = 0
    copy_events: int = 0
    read_events: int = 0
    # counts of the Section 3.1 overflow checker firing: a shift pushed a
    # vector's last live bit past its width, deactivating the BV-STE
    overflow_events: int = 0
    # When set to a list before the run, the indices of cycles that
    # trigger the bit-vector-processing phase are recorded here (the
    # array-level stall model needs the union across co-located regexes).
    bv_cycle_indices: list[int] | None = None

    @property
    def bv_activation_rate(self) -> float:
        """Fraction of cycles that trigger the BV phase."""
        return self.bv_phase_cycles / self.cycles if self.cycles else 0.0


class _NBVATables:
    """Everything an :class:`NBVASimulator` derives from its automaton.

    Holds no reference to the automaton itself, so :func:`_tables_of` can
    key its cache on the automaton's identity and drop the entry when the
    automaton is collected.
    """

    def __init__(self, automaton: Automaton):
        positions = automaton.positions
        counted = [p.pid for p in positions if p.is_counted]
        self.width_mask = {
            pid: automaton.groups[positions[pid].group].vector_mask
            for pid in counted
        }
        self.read = {
            pid: automaton.groups[positions[pid].group].read_predicate
            for pid in counted
        }

        # Per-source routing tables.
        n = automaton.state_count
        self.plain_act = [0] * n  # src -> plain-target bitmask
        set1_tmp: list[list[int]] = [[] for _ in range(n)]
        copy_tmp: list[list[int]] = [[] for _ in range(n)]
        shift_tmp: list[list[int]] = [[] for _ in range(n)]
        for edge in automaton.edges:
            if edge.action is EdgeAction.ACTIVATE:
                self.plain_act[edge.src] |= 1 << edge.dst
            elif edge.action is EdgeAction.SET1:
                set1_tmp[edge.src].append(edge.dst)
            elif edge.action is EdgeAction.COPY:
                copy_tmp[edge.src].append(edge.dst)
            else:
                shift_tmp[edge.src].append(edge.dst)
        self.set1_targets = [tuple(t) for t in set1_tmp]
        self.copy_targets = [tuple(t) for t in copy_tmp]
        self.shift_targets = [tuple(t) for t in shift_tmp]

        self.initial_plain = 0
        initial_counted: list[int] = []
        for pid in automaton.initial:
            if positions[pid].is_counted:
                initial_counted.append(pid)
            else:
                self.initial_plain |= 1 << pid
        self.initial_counted = tuple(initial_counted)
        self.final_plain = 0
        final_counted: list[int] = []
        for pid in automaton.finals:
            if positions[pid].is_counted:
                final_counted.append(pid)
            else:
                self.final_plain |= 1 << pid
        self.final_counted = tuple(final_counted)

        # Per-byte tables over plain positions (one shared expansion) and
        # counted positions (frozensets, identical ones shared).
        self.labels = interned_label_masks(
            (pos.pid, pos.cc) for pos in positions if not pos.is_counted
        )
        counted_match: list[set[int]] = [set() for _ in range(ALPHABET_SIZE)]
        for pos in positions:
            if pos.is_counted:
                for byte in members(pos.cc):
                    counted_match[byte].add(pos.pid)
        shared: dict[frozenset[int], frozenset[int]] = {}
        self.counted_match = []
        for pids in counted_match:
            frozen = frozenset(pids)
            self.counted_match.append(shared.setdefault(frozen, frozen))

        # Cold-skip tables (see the module docstring).  A byte is hot iff
        # an empty machine reading it wakes an initial state.
        initial = set(self.initial_counted)
        self.hot_table = bytes(
            1
            if self.initial_plain & self.labels[b]
            or not initial.isdisjoint(self.counted_match[b])
            else 0
            for b in range(ALPHABET_SIZE)
        )
        self.cold_set1 = len(initial)
        # matched_states per byte, grouped into weight classes: the
        # class table maps a byte to its class id, the commonest class
        # is the base weight every byte pays, and every other class adds
        # its excess once per occurrence.
        weights = [
            self.labels[b].bit_count() + len(self.counted_match[b])
            for b in range(ALPHABET_SIZE)
        ]
        by_weight: dict[int, int] = {}
        for w in weights:
            by_weight[w] = by_weight.get(w, 0) + 1
        self.base_weight = max(by_weight, key=lambda w: (by_weight[w], -w))
        excess = sorted(w for w in by_weight if w != self.base_weight)
        class_of = {w: c for c, w in enumerate(excess, start=1)}
        class_of[self.base_weight] = 0
        self.weight_table = bytes(class_of[w] for w in weights)
        self.weight_excess = tuple(
            (class_of[w], w - self.base_weight) for w in excess
        )

    def matched_weight(self, classes: bytes, start: int, stop: int) -> int:
        """``matched_states`` over ``classes[start:stop]`` (the segment
        translated through :attr:`weight_table`)."""
        total = self.base_weight * (stop - start)
        for cls, extra in self.weight_excess:
            total += extra * classes.count(cls, start, stop)
        return total


# Derived tables per live automaton, keyed by identity: a compiled
# ruleset is scanned many times, and every scan would otherwise rebuild
# each unit's 256-entry tables.  The finalizer runs while the automaton
# is being freed, before its id can be reused.
_TABLES: dict[int, _NBVATables] = {}


def _tables_of(automaton: Automaton) -> _NBVATables:
    key = id(automaton)
    tables = _TABLES.get(key)
    if tables is None:
        tables = _TABLES[key] = _NBVATables(automaton)
        weakref.finalize(automaton, _TABLES.pop, key, None)
    return tables


class NBVASimulator:
    """Unanchored multi-match simulation of an automaton with counters.

    Also accepts plain automata (it degenerates to NFA simulation), which
    the integration tests use to cross-check the two engines.
    Construction is cheap after the first one per automaton object: the
    derived tables are built once and shared.
    """

    def __init__(self, automaton: Automaton):
        self._automaton = automaton
        self._tables = _tables_of(automaton)

    @property
    def automaton(self) -> Automaton:
        """The automaton this simulator executes."""
        return self._automaton

    def find_matches(
        self,
        data: bytes,
        stats: NBVAStats | None = None,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ) -> list[int]:
        """All end positions of non-empty matches in ``data``."""
        return list(
            self.iter_matches(
                data,
                stats,
                anchored_start=anchored_start,
                anchored_end=anchored_end,
            )
        )

    def iter_matches(
        self,
        data: bytes,
        stats: NBVAStats | None = None,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ):
        """Generator over match end positions (and stats, if given)."""
        return self.scanner(
            anchored_start=anchored_start, anchored_end=anchored_end
        ).iter_feed(data, stats, at_end=True)

    def count_matches(self, data: bytes) -> int:
        """Number of non-empty matches in ``data``."""
        return sum(1 for _ in self.iter_matches(data))

    def scanner(
        self, *, anchored_start: bool = False, anchored_end: bool = False
    ) -> "NBVAScanner":
        """A streaming scanner with snapshot/restore for this NBVA."""
        return NBVAScanner(
            self, anchored_start=anchored_start, anchored_end=anchored_end
        )


# Version of the serialized NBVA frontier encoding.
NBVA_STATE_VERSION = 1


class NBVAScanner:
    """Streaming NBVA scan: feed segments, snapshot/restore mid-stream.

    The frontier is the plain active-state bitset plus every live
    counted-state bit vector — exactly what the simulation step carries
    between symbols — so a scanner restored from :meth:`snapshot`
    continues the counter dataflow bit-identically.  Match positions
    (and recorded ``bv_cycle_indices``) are *global* stream offsets.
    """

    def __init__(
        self,
        sim: NBVASimulator,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ):
        self._sim = sim
        self._anchored_start = anchored_start
        self._anchored_end = anchored_end
        self._offset = 0
        self._active = 0
        self._vectors: dict[int, int] = {}

    @property
    def offset(self) -> int:
        """Global stream position: bytes consumed so far."""
        return self._offset

    def feed(
        self,
        segment: bytes,
        stats: NBVAStats | None = None,
        *,
        at_end: bool = True,
    ) -> list[int]:
        """Consume the next segment; match positions are global."""
        return list(self.iter_feed(segment, stats, at_end=at_end))

    def iter_feed(
        self,
        segment: bytes,
        stats: NBVAStats | None = None,
        *,
        at_end: bool = True,
    ):
        """Lazy :meth:`feed`: yields global match positions as found.

        The frontier advances per consumed symbol (a cold skip advances
        it past the whole skipped stretch), so abandoning the generator
        mid-segment leaves the scanner at the last consumed position
        (the whole-stream ``iter_matches`` relies on this).  ``stats`` is
        exact whenever the generator yields or finishes.
        """
        t = self._sim._tables
        plain_act = t.plain_act
        set1_targets = t.set1_targets
        copy_targets = t.copy_targets
        shift_targets = t.shift_targets
        width_mask = t.width_mask
        read = t.read
        labels = t.labels
        counted_match = t.counted_match
        initial_plain = t.initial_plain
        initial_counted = t.initial_counted
        final_plain = t.final_plain
        final_counted = t.final_counted
        anchored_start = self._anchored_start
        anchored_end = self._anchored_end

        offset = self._offset
        n = len(segment)
        last = n - 1
        active = self._active
        vectors = self._vectors
        hot = None if anchored_start else segment.translate(t.hot_table)
        classes = None if stats is None else segment.translate(t.weight_table)
        counted = 0  # matched_states is accounted through segment[:counted]
        i = 0
        while i < n:
            if not active and not vectors:
                # Cold skip: an empty machine only wakes on a hot byte.
                if not anchored_start:
                    j = hot.find(1, i)
                    if j < 0:
                        j = n
                    set1_per_cycle = t.cold_set1
                elif offset + i:
                    j = n  # past offset 0 nothing can start any more
                    set1_per_cycle = 0
                else:
                    j = i  # stream offset 0 of an anchored scan: step it
                if j > i:
                    if stats is not None:
                        stats.cycles += j - i
                        stats.set1_events += (j - i) * set1_per_cycle
                    i = j
                    self._offset = offset + i
                    if i == n:
                        break

            byte = segment[i]
            if anchored_start and (offset + i):
                avail = 0
                set1: set[int] = set()
            else:
                avail = initial_plain
                set1 = set(initial_counted)
            contrib: dict[int, int] = {}
            matching = counted_match[byte]

            a = active
            while a:
                low = a & -a
                src = low.bit_length() - 1
                a ^= low
                avail |= plain_act[src]
                set1.update(set1_targets[src])

            for src, vec in vectors.items():
                for dst in copy_targets[src]:
                    contrib[dst] = contrib.get(dst, 0) | vec
                shifted = None
                for dst in shift_targets[src]:
                    if shifted is None:
                        shifted = vec << 1 & width_mask[dst]
                        if (
                            stats is not None
                            and not shifted
                            and dst in matching
                        ):
                            # the Section 3.1 overflow checker: the BV-STE
                            # matched but every live count shifted past the
                            # vector width, so it is deactivated
                            stats.overflow_events += 1
                    contrib[dst] = contrib.get(dst, 0) | shifted
                if stats is not None:
                    stats.copy_events += len(copy_targets[src])
                    stats.shift_events += len(shift_targets[src])
                if read[src](vec):
                    if stats is not None:
                        stats.read_events += 1
                    avail |= plain_act[src]
                    set1.update(set1_targets[src])

            for dst in set1:
                contrib[dst] = contrib.get(dst, 0) | 1

            # state-matching gate
            active = avail & labels[byte]
            vectors = {
                dst: vec for dst, vec in contrib.items() if vec and dst in matching
            }
            self._active = active
            self._vectors = vectors
            self._offset = offset + i + 1

            if stats is not None:
                stats.cycles += 1
                stats.active_states += active.bit_count() + len(vectors)
                stats.set1_events += len(set1)
                stats.bv_updates += len(vectors)
                if vectors:
                    stats.bv_phase_cycles += 1
                    if stats.bv_cycle_indices is not None:
                        stats.bv_cycle_indices.append(offset + i)

            matched = bool(active & final_plain)
            if not matched:
                for pid in final_counted:
                    vec = vectors.get(pid, 0)
                    if vec and read[pid](vec):
                        matched = True
                        break
            if matched and (not anchored_end or (at_end and i == last)):
                if stats is not None:
                    stats.reports += 1
                    stats.matched_states += t.matched_weight(
                        classes, counted, i + 1
                    )
                    counted = i + 1
                yield offset + i
            i += 1

        if stats is not None:
            stats.matched_states += t.matched_weight(classes, counted, n)

    def snapshot(self) -> dict:
        """JSON-ready mid-stream state (vectors in sorted pid order —
        dict order never affects results, but determinism keeps the
        serialized bytes, and hence checkpoint checksums, stable)."""
        return {
            "version": NBVA_STATE_VERSION,
            "offset": self._offset,
            "active": f"{self._active:x}",
            "vectors": [
                [pid, f"{vec:x}"]
                for pid, vec in sorted(self._vectors.items())
            ],
        }

    def restore(self, doc: dict) -> None:
        """Adopt a state produced by :meth:`snapshot`."""
        try:
            version = doc["version"]
            if version != NBVA_STATE_VERSION:
                raise ValueError(
                    f"NBVA-state version {version!r} "
                    f"(this build reads {NBVA_STATE_VERSION})"
                )
            offset = int(doc["offset"])
            active = int(doc["active"], 16)
            vectors = {
                int(pid): int(vec, 16) for pid, vec in doc["vectors"]
            }
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed NBVA-state document: {err}") from err
        if offset < 0:
            raise ValueError("state offset must be non-negative")
        self._offset = offset
        self._active = active
        self._vectors = vectors
