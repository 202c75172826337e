"""Statistical significance companion to Table 1.

The paper reports point estimates; reviewers of a reproduction want error
bars.  For every target model this harness computes, over the *paired*
Arena-Hard outcomes (every arm answers the same prompts against the same
references):

* a percentile-bootstrap 95% CI on each arm's win rate;
* a two-sided paired sign test of PAS vs the baseline and PAS vs BPO
  (ties discarded, exact binomial via scipy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scipy_stats

from repro.experiments.context import TARGET_MODELS, ExperimentContext
from repro.experiments.reporting import ascii_table
from repro.utils.stats import bootstrap_ci

__all__ = ["PairedComparison", "SignificanceResult", "paired_sign_test", "run", "render"]


def paired_sign_test(outcomes_a: list[float], outcomes_b: list[float]) -> float:
    """Two-sided exact sign test on paired benchmark outcomes.

    Each pair contributes a sign when the two arms disagree; ties (equal
    outcomes, including judge-declared draws) carry no information and are
    discarded, per the classic sign-test construction.
    """
    if len(outcomes_a) != len(outcomes_b):
        raise ValueError("paired outcomes must align")
    wins_a = sum(1 for a, b in zip(outcomes_a, outcomes_b) if a > b)
    wins_b = sum(1 for a, b in zip(outcomes_a, outcomes_b) if b > a)
    decisive = wins_a + wins_b
    if decisive == 0:
        return 1.0
    return float(scipy_stats.binomtest(wins_a, decisive, 0.5).pvalue)


@dataclass(frozen=True)
class PairedComparison:
    """PAS-vs-arm comparison for one target model."""

    model: str
    arm: str
    pas_score: float
    arm_score: float
    pas_ci: tuple[float, float]
    arm_ci: tuple[float, float]
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


@dataclass
class SignificanceResult:
    comparisons: list[PairedComparison] = field(default_factory=list)

    def against(self, arm: str) -> list[PairedComparison]:
        return [c for c in self.comparisons if c.arm == arm]

    def n_significant(self, arm: str) -> int:
        return sum(1 for c in self.against(arm) if c.significant)


def run(ctx: ExperimentContext) -> SignificanceResult:
    """Paired Arena-Hard significance of PAS vs none and vs BPO."""
    rng = np.random.default_rng(ctx.seed + 999)
    methods = {
        "none": ctx.method_none(),
        "bpo": ctx.bpo,
        "pas": ctx.method_pas(),
    }
    result = SignificanceResult()
    for model in TARGET_MODELS:
        # The same memoised runs table1 scores its Arena-Hard column from.
        outcomes = {
            name: list(ctx.arena_hard_result(model, method).outcomes)
            for name, method in methods.items()
        }
        cis = {
            name: bootstrap_ci([100.0 * o for o in outs], rng)
            for name, outs in outcomes.items()
        }
        for arm in ("none", "bpo"):
            result.comparisons.append(
                PairedComparison(
                    model=model,
                    arm=arm,
                    pas_score=100.0 * float(np.mean(outcomes["pas"])),
                    arm_score=100.0 * float(np.mean(outcomes[arm])),
                    pas_ci=cis["pas"],
                    arm_ci=cis[arm],
                    p_value=paired_sign_test(outcomes["pas"], outcomes[arm]),
                )
            )
    return result


def render(result: SignificanceResult) -> str:
    headers = ["Model", "PAS vs", "PAS win% [95% CI]", "Arm win% [95% CI]", "sign-test p", "sig?"]
    rows = []
    for c in result.comparisons:
        rows.append(
            [
                c.model,
                c.arm,
                f"{c.pas_score:.1f} [{c.pas_ci[0]:.1f}, {c.pas_ci[1]:.1f}]",
                f"{c.arm_score:.1f} [{c.arm_ci[0]:.1f}, {c.arm_ci[1]:.1f}]",
                f"{c.p_value:.4f}",
                "yes" if c.significant else "no",
            ]
        )
    summary = (
        f"significant at 0.05: vs none {result.n_significant('none')}/6, "
        f"vs bpo {result.n_significant('bpo')}/6"
    )
    return ascii_table(headers, rows, title="Arena-Hard paired significance") + "\n" + summary
