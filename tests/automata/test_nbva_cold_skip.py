"""Differential suite for the NBVA scanner's cold skip.

The scanner jumps over stretches where its machine is empty and accounts
them in bulk.  The oracle here is a plain per-byte stepper kept in this
file only: the scan loop as it was before the skip existed, stepping
every byte and counting every event per cycle.  Matches, every
:class:`NBVAStats` field and the serialized frontier must agree under
random regexes, inputs, segmentations and snapshot/restore cuts.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.glushkov import Automaton, EdgeAction, build_automaton
from repro.automata.nbva import NBVA_STATE_VERSION, NBVASimulator, NBVAStats
from repro.compiler import compile_pattern
from repro.compiler.program import CompiledMode
from repro.regex.charclass import ALPHABET_SIZE, members
from repro.regex.parser import parse
from repro.regex.rewrite import make_countable, rewrite_bounds_for_bv, unfold

from tests.helpers import regex_trees


class ReferenceNBVA:
    """Per-byte NBVA stepper: the oracle for the scanner's cold skip."""

    def __init__(
        self,
        automaton: Automaton,
        *,
        anchored_start: bool = False,
        anchored_end: bool = False,
    ):
        positions = automaton.positions
        groups = automaton.groups
        n = automaton.state_count
        self.width_mask = {}
        self.read = {}
        for pos in positions:
            if pos.is_counted:
                self.width_mask[pos.pid] = groups[pos.group].vector_mask
                self.read[pos.pid] = groups[pos.group].read_predicate
        self.plain_act = [0] * n
        self.set1_targets = [[] for _ in range(n)]
        self.copy_targets = [[] for _ in range(n)]
        self.shift_targets = [[] for _ in range(n)]
        for edge in automaton.edges:
            if edge.action is EdgeAction.ACTIVATE:
                self.plain_act[edge.src] |= 1 << edge.dst
            elif edge.action is EdgeAction.SET1:
                self.set1_targets[edge.src].append(edge.dst)
            elif edge.action is EdgeAction.COPY:
                self.copy_targets[edge.src].append(edge.dst)
            else:
                self.shift_targets[edge.src].append(edge.dst)
        self.initial_plain = 0
        self.initial_counted = []
        for pid in automaton.initial:
            if positions[pid].is_counted:
                self.initial_counted.append(pid)
            else:
                self.initial_plain |= 1 << pid
        self.final_plain = 0
        self.final_counted = []
        for pid in automaton.finals:
            if positions[pid].is_counted:
                self.final_counted.append(pid)
            else:
                self.final_plain |= 1 << pid
        self.labels = [0] * ALPHABET_SIZE
        self.counted_match = [set() for _ in range(ALPHABET_SIZE)]
        for pos in positions:
            for byte in members(pos.cc):
                if pos.is_counted:
                    self.counted_match[byte].add(pos.pid)
                else:
                    self.labels[byte] |= 1 << pos.pid
        self.anchored_start = anchored_start
        self.anchored_end = anchored_end
        self.offset = 0
        self.active = 0
        self.vectors: dict[int, int] = {}

    def feed(self, segment: bytes, stats: NBVAStats, *, at_end: bool):
        """One step per byte; returns the global match positions."""
        out = []
        last = len(segment) - 1
        for i, byte in enumerate(segment):
            pos = self.offset
            if self.anchored_start and pos:
                avail = 0
                set1: set[int] = set()
            else:
                avail = self.initial_plain
                set1 = set(self.initial_counted)
            contrib: dict[int, int] = {}
            matching = self.counted_match[byte]
            a = self.active
            while a:
                low = a & -a
                src = low.bit_length() - 1
                a ^= low
                avail |= self.plain_act[src]
                set1.update(self.set1_targets[src])
            for src, vec in self.vectors.items():
                for dst in self.copy_targets[src]:
                    contrib[dst] = contrib.get(dst, 0) | vec
                shifted = None
                for dst in self.shift_targets[src]:
                    if shifted is None:
                        shifted = vec << 1 & self.width_mask[dst]
                        if not shifted and dst in matching:
                            stats.overflow_events += 1
                    contrib[dst] = contrib.get(dst, 0) | shifted
                stats.copy_events += len(self.copy_targets[src])
                stats.shift_events += len(self.shift_targets[src])
                if self.read[src](vec):
                    stats.read_events += 1
                    avail |= self.plain_act[src]
                    set1.update(self.set1_targets[src])
            for dst in set1:
                contrib[dst] = contrib.get(dst, 0) | 1
            self.active = avail & self.labels[byte]
            self.vectors = {
                dst: vec for dst, vec in contrib.items() if vec and dst in matching
            }
            self.offset = pos + 1
            stats.cycles += 1
            stats.active_states += self.active.bit_count() + len(self.vectors)
            stats.matched_states += self.labels[byte].bit_count() + len(matching)
            stats.set1_events += len(set1)
            stats.bv_updates += len(self.vectors)
            if self.vectors:
                stats.bv_phase_cycles += 1
                stats.bv_cycle_indices.append(pos)
            matched = bool(self.active & self.final_plain) or any(
                self.vectors.get(pid, 0) and self.read[pid](self.vectors[pid])
                for pid in self.final_counted
            )
            if matched and (not self.anchored_end or (at_end and i == last)):
                stats.reports += 1
                out.append(pos)
        return out

    def snapshot(self) -> dict:
        return {
            "version": NBVA_STATE_VERSION,
            "offset": self.offset,
            "active": f"{self.active:x}",
            "vectors": [
                [pid, f"{vec:x}"] for pid, vec in sorted(self.vectors.items())
            ],
        }


def nbva_automaton(regex, depth: int) -> Automaton:
    """The NBVA the compiler would build: small bounds unfolded, the
    rest normalized to BV-readable shapes at vector depth ``depth``."""
    return build_automaton(
        rewrite_bounds_for_bv(
            make_countable(unfold(regex, 2)), depth=depth, word_align_exact=False
        )
    )


# Counting shapes the cold skip must get right: counted initial states
# (the set1 events of an empty machine), counters after a plain prefix,
# unbounded gaps, and bounds wider than the vector (overflow).
SHAPED = [
    "[ab]{2,5}x",
    "a{5}",
    "b{3}c",
    "(?:ab){3}",
    "a.*bc{3}",
    "x[ab]{4,9}y",
    "[a-d]{6}",
    "a+b{12,}c",
    "(?:a|bc){2,6}d",
    "c[^a]{3,7}",
]

patterns = st.one_of(
    st.sampled_from(SHAPED).map(parse),
    regex_trees(max_leaves=6, max_bound=12),
)

# Bytes the random regexes can accept, and bytes no regex here accepts
# except through ``.`` / negated classes: long cold runs between them.
HOT = b"abcd"
COLD = b"xyz\x00\xff "


@st.composite
def mixed_inputs(draw) -> bytes:
    pieces = draw(
        st.lists(
            st.one_of(
                st.binary(max_size=6).map(
                    lambda raw: bytes(HOT[b % len(HOT)] for b in raw)
                ),
                st.tuples(st.sampled_from(COLD), st.integers(0, 40)).map(
                    lambda t: bytes([t[0]]) * t[1]
                ),
            ),
            max_size=12,
        )
    )
    return b"".join(pieces)


@st.composite
def segmentations(draw, data: bytes) -> list[bytes]:
    """Random cuts, repeats allowed: empty and 1-byte segments occur."""
    cuts = sorted(
        draw(st.lists(st.integers(0, len(data)), max_size=8))
    )
    bounds = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def reference_run(automaton, data: bytes, anchors: dict):
    ref = ReferenceNBVA(automaton, **anchors)
    stats = NBVAStats(bv_cycle_indices=[])
    matches = ref.feed(data, stats, at_end=True)
    return matches, stats, ref.snapshot()


def as_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(
    regex=patterns,
    depth=st.sampled_from([2, 4, 8]),
    astart=st.booleans(),
    aend=st.booleans(),
    data=mixed_inputs(),
    pick=st.data(),
)
def test_segmented_scan_equals_reference(regex, depth, astart, aend, data, pick):
    automaton = nbva_automaton(regex, depth)
    anchors = dict(anchored_start=astart, anchored_end=aend)
    segments = pick.draw(segmentations(data))
    restore_at = pick.draw(st.integers(0, len(segments)))
    want_matches, want_stats, want_frontier = reference_run(
        automaton, data, anchors
    )

    sim = NBVASimulator(automaton)
    scanner = sim.scanner(**anchors)
    stats = NBVAStats(bv_cycle_indices=[])
    matches = []
    consumed = 0
    for k, segment in enumerate(segments):
        if k == restore_at:
            # checkpoint round trip: frontier and counters through JSON
            doc = json.loads(json.dumps(scanner.snapshot()))
            stats = NBVAStats(**json.loads(json.dumps(dataclasses.asdict(stats))))
            scanner = NBVASimulator(automaton).scanner(**anchors)
            scanner.restore(doc)
        consumed += len(segment)
        matches.extend(
            scanner.feed(segment, stats, at_end=consumed == len(data))
        )

    assert matches == want_matches
    assert dataclasses.asdict(stats) == dataclasses.asdict(want_stats)
    assert as_json(scanner.snapshot()) == as_json(want_frontier)


@settings(max_examples=200, deadline=None)
@given(
    regex=patterns,
    depth=st.sampled_from([2, 4, 8]),
    astart=st.booleans(),
    data=mixed_inputs(),
)
def test_abandoned_scan_stops_after_first_match(regex, depth, astart, data):
    automaton = nbva_automaton(regex, depth)
    anchors = dict(anchored_start=astart)
    want, _, _ = reference_run(automaton, data, anchors)
    scanner = NBVASimulator(automaton).scanner(**anchors)
    stats = NBVAStats(bv_cycle_indices=[])
    found = scanner.iter_feed(data, stats)
    first = next(found, None)
    found.close()
    if first is None:
        assert want == []
        assert scanner.offset == len(data)
        return
    assert first == want[0]
    assert scanner.offset == first + 1
    # The counters are exact at the yield, not only at the segment end.
    _, prefix_stats, prefix_frontier = reference_run(
        automaton, data[: first + 1], anchors
    )
    assert dataclasses.asdict(stats) == dataclasses.asdict(prefix_stats)
    assert as_json(scanner.snapshot()) == as_json(prefix_frontier)


@pytest.mark.parametrize(
    "pattern, witness",
    [
        ("^[ab]{20,50}x", b"ab" * 15 + b"x"),
        ("[ab]{20,50}x$", b"ab" * 15 + b"x"),
        ("^a{30}b$", b"a" * 30 + b"b"),
        ("^x.{40,90}y", b"x" + b"q" * 45 + b"y"),
        ("c{30,80}$", b"c" * 40),
        ("^(?:a|bc){20,40}d$", b"bc" * 25 + b"d"),
    ],
)
def test_compiled_anchors_equal_reference(pattern, witness):
    compiled = compile_pattern(pattern, 0)
    assert compiled.mode is CompiledMode.NBVA
    anchors = dict(
        anchored_start=compiled.anchored_start,
        anchored_end=compiled.anchored_end,
    )
    cold = b"z" * 30
    streams = (witness, cold + witness, witness + cold, witness * 2 + cold)
    reported = 0
    for stream in streams:
        want_matches, want_stats, want_frontier = reference_run(
            compiled.automaton, stream, anchors
        )
        reported += len(want_matches)
        scanner = NBVASimulator(compiled.automaton).scanner(**anchors)
        stats = NBVAStats(bv_cycle_indices=[])
        matches = scanner.feed(stream[:7], stats, at_end=False)
        matches += scanner.feed(stream[7:], stats, at_end=True)
        assert matches == want_matches
        assert dataclasses.asdict(stats) == dataclasses.asdict(want_stats)
        assert as_json(scanner.snapshot()) == as_json(want_frontier)
    assert reported  # the witness matches: the hot path ran too


def test_cold_cycles_count_initial_set1_events():
    """An empty machine re-enters its initial BV-STEs every cycle."""
    automaton = nbva_automaton(parse("[ab]{2,5}x"), 4)
    stats = NBVAStats(bv_cycle_indices=[])
    scanner = NBVASimulator(automaton).scanner()
    assert scanner.feed(b"z" * 100, stats) == []
    initial = sum(automaton.positions[p].is_counted for p in automaton.initial)
    assert stats.cycles == 100
    assert stats.set1_events == 100 * initial > 0
    assert stats.active_states == stats.bv_updates == 0
