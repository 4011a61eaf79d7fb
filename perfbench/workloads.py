"""The four workloads: paper-shaped rulesets and the inputs they scan.

Every input comes from the program's own generators and the workload
seed; the program sees only the generated patterns and bytes.  See
README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
HELD_OUT_SEED = 20251017  # kept out of tuning, for later claims


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "bulk" or "serve"
    profile: str
    patterns: int
    input_bytes: int  # bulk: the scanned input; serve: one session's stream
    lnfa_only: bool = False
    sessions: int = 0
    distinct_streams: bool = True  # False: every session streams one input
    segment_bytes: int = 0
    checkpoint_every: int = 1 << 20  # server's --checkpoint-every

    def generate(self, seed: int) -> tuple[list[str], list[bytes]]:
        """The patterns and the input(s): one blob, or one per session.

        Generating input costs about 0.6 s per MB, so a workload with
        long streams may send the same generated stream on every session.
        """
        from repro.compiler.program import CompiledMode
        from repro.workloads.datasets import (
            generate_benchmark,
            generate_mode_patterns,
        )
        from repro.workloads.inputs import generate_input
        from repro.workloads.profiles import PROFILES

        profile = PROFILES[self.profile]
        if self.lnfa_only:
            patterns = list(
                generate_mode_patterns(
                    profile, CompiledMode.LNFA, self.patterns, seed=seed
                )
            )
        else:
            patterns = list(
                generate_benchmark(self.profile, self.patterns, seed=seed).patterns
            )
        streams = max(1, self.sessions if self.distinct_streams else 1)
        inputs = [
            generate_input(
                profile.domain,
                self.input_bytes,
                seed=seed * 16 + index,
                patterns=patterns,
            )
            for index in range(streams)
        ]
        return patterns, [inputs[i % streams] for i in range(max(1, self.sessions))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk-snort",
            kind="bulk",
            profile="Snort",
            patterns=300,
            input_bytes=16_000,
        ),
        Workload(
            name="bulk-prosite",
            kind="bulk",
            profile="Prosite",
            patterns=300,
            input_bytes=128 * 1024,
        ),
        Workload(
            name="serve-mixed",
            kind="serve",
            profile="SpamAssassin",
            patterns=60,
            input_bytes=128 * 1024,
            sessions=2,
            segment_bytes=512,
            checkpoint_every=64 * 1024,
        ),
        Workload(
            name="serve-long",
            kind="serve",
            profile="Prosite",
            patterns=64,
            input_bytes=8 * 1024 * 1024,
            lnfa_only=True,
            sessions=2,
            distinct_streams=False,
            segment_bytes=4096,
        ),
    )
}
